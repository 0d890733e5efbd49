"""hbar-deformed derivative calculus on time polynomials.

The deformed derivative of order k is (k/hbar) h_k(hbar dtilde) where
dtilde = {d_1, d_2/2, d_3/3, ...}; it reduces to d_k at hbar = 0 and obeys
a generalized Leibniz rule.  The Miwa shift t -> t + hbar [z^{-1}]
substitutes t_k -> t_k + (hbar/k) zeta^k into one z-slot and equals the
action of exp(hbar D(z)) with D(z) = sum_k zeta^k d_k / k.

``DiffOperator`` keeps only its constructors and ``apply``; its ring
arithmetic (sum, product, scaling, equality, rendering) is
``sparse.MultisetPoly``'s.
"""

from __future__ import annotations

from functools import cache
from math import comb, factorial, gcd, prod

from .hscalar import HContext
from .linalg import det
from .partitions import compositions
from .rational import Rational
from .sparse import MultisetPoly
from .tpoly import TPoly, resident


class DiffOperator(MultisetPoly):
    """Finite sum of scalar multiples of products of time derivatives.

    A monomial is a sorted tuple of derivative indices (k_1 <= k_2 <= ...).
    Composition is commutative (constant-coefficient operators), so this is
    the polynomial ring in the symbols d_1, d_2, ... of ``sparse``.
    """

    __slots__ = ()
    _render_key = staticmethod(lambda ks: (len(ks), ks))

    @staticmethod
    def _symbol_text(k: int) -> str:
        return f"d{k}"

    @staticmethod
    def identity(ctx: HContext) -> "DiffOperator":
        return DiffOperator(ctx, {(): Rational(1)})

    @staticmethod
    def single(ctx: HContext, k: int) -> "DiffOperator":
        return DiffOperator(ctx, {(k,): Rational(1)})

    def apply(self, poly: TPoly) -> TPoly:
        """Linear, exact application; each d_k lowers weight by k."""
        acc = TPoly.zero(poly.ctx, poly.weight_cap, poly.z_cap, poly.nslots,
                         poly.degree_cap)
        for ks, c in self.terms.items():
            q = poly
            for k in ks:
                q = q.diff_t(k)
                if not q.terms:
                    break
            else:
                acc = acc + q.scale(c)
        return acc


@cache
def dh_operator(k: int, ctx: HContext) -> DiffOperator:
    """The deformed derivative of order k as an explicit operator.

    Order 0 is the identity.  For k >= 1,
      sum_{l=1..k} (hbar^{l-1} k / l!) sum_{compositions k_1+..+k_l = k}
          d_{k_1} ... d_{k_l} / (k_1 ... k_l),
    e.g. order 2 gives d_2 + hbar d_1^2.
    """
    if k < 0:
        raise ValueError("order must be nonnegative")
    if k == 0:
        return DiffOperator.identity(ctx)
    pairs = []
    for l in range(1, k + 1):
        pref = ctx.hbar_pow(l - 1) * Rational(k, factorial(l))
        pairs += ((ks, pref * Rational(1, prod(ks))) for ks in compositions(k, l))
    return DiffOperator(ctx, pairs)


def dh_determinant(n: int, ctx: HContext) -> DiffOperator:
    """Same operator extracted from the almost-triangular n x n determinant

        | d_1   -1    0   ...            |
        | d_2  h d_1  -2   ...           |  / (n-1)!
        | ...                            |
        | d_n  h d_{n-1} ... h d_1       |

    (h = hbar); agrees with ``dh_operator`` term by term.
    """
    if n < 1:
        raise ValueError("order must be positive")
    hbar = ctx.hbar_pow(1)
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            if j == 1:
                row.append(DiffOperator.single(ctx, i))
            elif j == i + 1:
                row.append(DiffOperator.constant(ctx, Rational(-i)))
            elif j <= i:
                row.append(DiffOperator.single(ctx, i - j + 1).scale(hbar))
            else:
                row.append(0)
        rows.append(row)
    d = det(rows)
    return d.scale(Rational(1, factorial(n - 1)))


def dh_apply(k: int, poly: TPoly) -> TPoly:
    return dh_operator(k, poly.ctx).apply(poly)


@cache
def _miwa_rows(pack, p: int, slot: int):
    """The monomial of the int ``p`` of the packing ``pack``
    (``tpoly._Packing``) under t_k -> t_k + (hbar/k) zeta_slot^k,
    truncated at the slot's z cap, as (rows, top): a row (int, num, den, j)
    is a monomial with factor num/den hbar^j (j None: the monomial itself,
    with no factor), and ``top`` is the largest power of hbar.

    A factor hbar/k zeta^k takes one from the t_k field and k from the
    weight and adds k to the slot's field; the total degree stays.  So a
    row is ``p`` plus its change of t fields plus the z-degree it adds
    times one unit moved from the weight into the slot.  Those moves
    (``_miwa_moves``) depend only on the t part of ``p`` and the room left
    in the slot, so every slot and every number of slots shares them."""
    f, mask = pack.width, pack.mask
    at = pack.zshift + f * slot
    unit = (1 << at) - (1 << pack.wshift)
    moves, top = _miwa_moves(p & ((1 << pack.zshift) - 1),
                             pack.Z - ((p >> at) & mask), f)
    return tuple((p + dt + zd * unit, num, den, j)
                 for dt, zd, num, den, j in moves), top


@cache
def _miwa_moves(tpart: int, room: int, f: int):
    """The expansion of the t fields ``tpart`` (each ``f`` bits) under the
    shift, at most ``room`` z-degree added, as (moves, top): a move
    (change of the t fields, z-degree added, num, den, j), in the order of
    the expansion: t-positions in turn, each power of a t_k taken as its
    terms j = 0..a."""
    mask = (1 << f) - 1
    # expansion state: (change of the t fields, z-degree added, num, den, j)
    states = [(0, 0, 1, 1, 0)]
    pos = 0
    while tpart >> (f * pos):
        a = (tpart >> (f * pos)) & mask
        k = pos + 1
        pos += 1
        if a == 0:
            continue
        one = 1 << (f * (k - 1))
        new_states = []
        for dt, zd, num, den, j0 in states:
            for j in range(0, a + 1):
                zd2 = zd + k * j
                if zd2 > room:
                    break
                if j == 0:
                    new_states.append((dt, zd, num, den, j0))
                    continue
                new_states.append((dt - j * one, zd2,
                                   num * comb(a, j),
                                   den * k ** j, j0 + j))
        states = new_states
    moves = []
    for dt, zd, num, den, j in states:
        g = gcd(num, den)
        moves.append((dt, zd, num // g, den // g, j or None))
    return tuple(moves), max(j for *_, j in states)


def miwa_shift(poly, slot: int):
    """Substitute t_k -> t_k + (hbar/k) zeta_slot^k, truncated at the
    slot's z-degree cap.  Composing shifts in different slots commutes.

    The shift moves k units of t-weight into z-degree, so it preserves the
    total degree and the result keeps the input's total-degree cap.
    ``poly`` is a resident polynomial (``tpoly.resident``), which stays on
    integer codes, or a TPoly, shifted on those codes and decoded.  A
    monomial's factors are products over the t_k of powers of hbar/k, so
    their powers of hbar are formed one factor at a time: in formal hbar a
    monomial whose largest power lies past the window raises hbar^(hi + 1)
    before its rows are formed (``_Resident.substitute``)."""
    if not (0 <= slot < poly.nslots):
        raise ValueError("slot out of range")
    codes = resident(poly) if isinstance(poly, TPoly) else poly
    pack = codes.pack

    def expand(p):
        return _miwa_rows(pack, p, slot)

    out = codes.substitute(expand)
    return out if codes is poly else out.decode()


def delta_apply(poly: TPoly, slot: int) -> TPoly:
    """The difference operator (exp(hbar D(z)) - 1)/hbar in one slot.

    Expanding in the slot variable it is sum_k zeta^k (deformed d_k)/k.
    """
    shifted = miwa_shift(poly, slot)
    return (shifted - poly).scale(poly.ctx.hbar_pow(-1))
