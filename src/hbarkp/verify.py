"""Independent verification of assembled solutions.

Each check builds an exact polynomial residual (denominators are cleared
by cross-multiplication, negative powers of the expansion points z_i by
multiplying with the slot variables zeta_i = z_i^{-1}), and passes iff the
residual vanishes identically on its trusted region.  No tolerances exist
anywhere: a coefficient either is exactly zero or the check fails.

Trusted region.  The total degree of a monomial is its t-weight plus the
sum of its zeta exponents.  The inputs are graded-truncated at a weight cap
W, so a residual monomial is fully determined exactly when its total degree
is at most ``trust``: W + 1 for the Fay identities, W + 2 for the
three-term relation and W + m(m-1)/2 for the m-point determinant (the zeta
prefactors raise the degree that the truncated inputs still pin down).

The trusted region is also the truncation rule: each check builds its
residual in ``TPoly``s whose total-degree cap is ``trust``, so no monomial
above it is ever computed.  That is exact, not approximate:

- total degree adds under products and is never negative, so the part of
  a product up to the cap depends only on the parts of its factors up to
  the cap; sums, scalings and x-derivatives of coefficients keep it;
- ``miwa_shift`` preserves it (t_k -> t_k + (hbar/k) zeta^k moves k units
  of t-weight into z-degree);
- d_1 lowers it by one, so d_1 of a capped polynomial would lack its top
  degree.  The checks apply d_1 only to Miwa shifts of the input, and the
  input carries no zeta-monomials (one that does is refused), so those
  shifts have total degree at most W <= ``trust`` and are complete.

So a monomial above ``trust`` never feeds one inside it, and every
residual coefficient inside the trusted region, its x-series valid order
included, is the one the uncapped computation gives.  The weight cap and
the per-slot z cap still apply as before.  Each check multiplies its zeta
prefactors into the lower-degree factor before the tau x tau (or F)
product, so the cap prunes early.  A private ``_*_residual`` function per
check takes the cap (``None`` for none) and returns the residual on
integer codes; the public check passes ``trust``.

Slot symmetry.  The residuals are sums of slot relabellings of one
polynomial, which ``_Resident.signed_relabellings`` adds up in one
accumulator.  The Fay residual is B - swap(B) with B = (hbar zeta1 zeta2
d_1 tau^{[z1]} + zeta1 tau^{[z1]}) tau^{[z2]} - zeta1 tau^{[z1,z2]} tau,
two tau-sized products where the identity as written takes four, and the
F-form one is B - swap(B) with B = zeta1 zeta2 (d F)^{[z1]}/hbar -
zeta1 (e^G - 1), so (d F)^{[z2]} is never formed.  The three-term residual
is the sum of the three cyclic relabellings of one of its terms.  Each
row of the m-point matrix is one function of its own slot, entry_{jk} =
f_k(zeta_j), so the determinant is sum_pi sgn(pi) pi(f_1(zeta_1) ...
f_m(zeta_m)), where pi renames the slots; the Vandermonde is sum_pi
sgn(pi) pi(zeta^delta) with delta = (m-1, ..., 1, 0), and
tau^{[z1..zm]} tau^{m-1} = S is symmetric.  So the residual is the
antisymmetrised zeta^delta S - P, with P the product of the diagonal
entries: m - 1 products for P, one large one for zeta^delta S after the
m - 2 of tau^{m-1} (formed first; under the weight cap it has no more
monomials than tau), and m! relabellings, where the Laplace determinant
takes m 2^(m-1) products.  The zeta powers are multiplied in first, into
each entry and into the symmetric factor, so the cap prunes the products
early.  The weight cap,
the per-slot z cap and the total-degree cap are the same in every slot,
so renaming the slots of a capped polynomial gives the capped renamed
polynomial: a relabelled product is the product of the relabelled
factors, and the argument above holds for the sum of them.  The same
holds for the Miwa shifts: the input has no zeta-monomials, so its shift
in slot s is its shift in slot 0 with slots 0 and s renamed.  Each check
shifts once per pattern of slots (tau^{[z1]}, tau^{[z1,z2]}, ...) and
relabels; the m-point check builds the row of slot 0 once, from one shift
and one d_1 chain, and relabels its entries into the other slots.

Formal hbar.  B and swap(B), zeta^delta S and P hold terms that the sum
over the relabellings cancels, and a product with one of them can leave
the window where the identity as written stays inside it.  Each check
then computes the identity as written: the Fay and F-form checks their
two sides, the m-point check the Vandermonde times tau^{[z1..zm]} tau ...
tau (tau multiplied in one factor at a time) minus the Laplace
determinant of the relabelled rows.  tau^{m-1} can also leave the window
where (zeta^delta tau^{[z1..zm]} tau) tau ... stays inside it; S is then
formed that way.  So a check raises only where the identity as written
raises.

Integer codes.  ``_embed`` encodes the input once (``tpoly.resident``):
every coefficient becomes integer numerators over one denominator for the
polynomial.  From there the Miwa shifts, d_1, the hbar and rational
scalings, the sums, the products with the zeta prefactors, the tau x tau
(or F) products, the relabellings and the determinant's ring products all
act on those integers.  Each of those operations mirrors the ``TPoly``
operation it stands for, so the residual, its valid orders and
coefficient types, and any ``HbarWindowError`` are the ones the same steps
on ``TPoly`` values give; the trusted-region argument above is unchanged.
The verdict is read from the codes: which monomials are nonzero, and the
first of them in sorted order, whose coefficient alone is reduced to
canonical rationals for ``worst``.  ``Residual.poly`` reduces the whole
residual into a ``TPoly`` when it is first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import permutations
from math import comb

from .hscalar import HbarWindowError, render_scalar, scalar_is_zero
from .linalg import det, minor
from .hcalc import miwa_shift
from .rational import Rational
from .tpoly import TPoly, _Resident, _coeff_is_zero, resident
from .xseries import XSeries


@dataclass(frozen=True)
class Residual:
    """Outcome of one identity check: binary pass, no tolerances."""

    identity: str
    caps: dict
    passed: bool
    worst: str | None
    # the residual: a TPoly or scalar, or resident codes (``tpoly.resident``)
    # that ``poly`` decodes when it is first read
    source: object | None = field(default=None, repr=False, compare=False)
    # monomials of the trusted region scanned, and how many are nonzero
    checked: int = 0
    nonzero: int = 0
    # the nonzero monomials of a polynomial residual in sorted order;
    # ``worst`` names the first
    failing: tuple = ()

    def __bool__(self):
        return self.passed

    @cached_property
    def poly(self):
        source = self.source
        return source.decode() if isinstance(source, _Resident) else source


def _render_coeff(c) -> str:
    if isinstance(c, XSeries):
        return c.render()
    return render_scalar(c)


def _poly_residual(identity: str, res: _Resident) -> Residual:
    """The verdict on a residual built under the cap ``trust``: it holds
    only monomials of the trusted region, and all of them must vanish.  It
    is read from the codes; only the first failing coefficient is
    decoded."""
    is_zero = res.kernel.is_zero
    failing = tuple(sorted(k for k, c in res.terms.items() if not is_zero(c)))
    worst = None
    if failing:
        texp, zexp = key = failing[0]
        worst = (f"t-exps {texp}, zeta-exps {zexp}: "
                 f"coefficient {_render_coeff(res.coefficient(key))}")
    caps = {
        "weight": res.weight_cap,
        "z": res.z_cap,
        "slots": res.nslots,
        "trust": res.degree_cap,
    }
    return Residual(identity, caps, not failing, worst, res, len(res.terms),
                    len(failing), failing)


def _check_unit_constant(tau: TPoly):
    c = tau.constant_coeff()
    if isinstance(c, XSeries):
        if scalar_is_zero(c.constant_term()):
            raise ValueError("tau is not invertible: zero constant coefficient")
    elif scalar_is_zero(c):
        raise ValueError("tau is not invertible: zero constant coefficient")


def _embed(poly: TPoly, nslots: int, z_cap: int, cap: int | None):
    """The input in ``nslots`` slots under the total-degree cap ``cap``,
    encoded once as a resident polynomial (``tpoly.resident``).

    An input that already carries zeta-monomials is refused: capping the
    inputs of d_1 at ``cap`` is exact only when they have no monomial above
    the weight cap in total degree.  Without them, the Miwa shift in slot s
    is the one in slot 0 with the two slots renamed (``_swap``)."""
    if any(zexp for _, zexp in poly.terms):
        raise ValueError("the input to a check must not carry zeta-monomials")
    return resident(poly.with_slots(nslots, z_cap, cap))


def _zetas(T: TPoly) -> list:
    return [TPoly.var_zeta(T.ctx, T.weight_cap, s, T.z_cap, T.nslots,
                           degree_cap=T.degree_cap) for s in range(T.nslots)]


def _swap(nslots: int, s: int) -> tuple:
    """The permutation of ``nslots`` slots that exchanges slots 0 and s."""
    perm = list(range(nslots))
    perm[0], perm[s] = s, 0
    return tuple(perm)


# the relabellings of two slots, and the cyclic ones of three: each of
# sign +1 but the swap
_SWAP_2 = ((0, 1), (1, 0))
_CYCLIC_3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def _fay_residual(tau: TPoly, z_cap: int, cap: int | None) -> _Resident:
    _check_unit_constant(tau)
    T = _embed(tau, 2, z_cap, cap)
    t1 = miwa_shift(T, 0)
    t2 = t1.relabelled(_swap(2, 1))
    t12 = miwa_shift(t1, 1)
    z1, z2 = _zetas(T)
    d1 = (z1 * z2).scale(T.ctx.hbar_pow(1)) * t1.diff_t(1)
    try:
        half = (d1 + z1 * t1) * t2 - (z1 * t12) * T
    except HbarWindowError:
        # B holds terms that B - swap(B) cancels: the identity as written
        left = d1 * t2 - d1.relabelled(_swap(2, 1)) * t1
        dz = z1 - z2
        return left - ((dz * t12) * T - (dz * t1) * t2)
    return half.signed_relabellings(_SWAP_2)


def check_fay(tau: TPoly, z_cap: int = 4) -> Residual:
    """Differential Fay identity, cross-multiplied to polynomial form:

    hbar zeta1 zeta2 [ (d_1 tau^{[z1]}) tau^{[z2]} - (d_1 tau^{[z2]}) tau^{[z1]} ]
      = (zeta1 - zeta2) ( tau^{[z1,z2]} tau - tau^{[z1]} tau^{[z2]} ).

    The residual is B - swap(B), B = (hbar zeta1 zeta2 d_1 tau^{[z1]}
    + zeta1 tau^{[z1]}) tau^{[z2]} - zeta1 tau^{[z1,z2]} tau.
    """
    trust = tau.weight_cap + 1
    return _poly_residual("differential-fay", _fay_residual(tau, z_cap, trust))


def _hirota3_residual(tau: TPoly, z_cap: int, cap: int | None) -> _Resident:
    T = _embed(tau, 3, z_cap, cap)
    z0, z1, z2 = _zetas(T)
    t0 = miwa_shift(T, 0)
    term = (((z1 - z0) * z2) * miwa_shift(t0, 1)) * t0.relabelled(_swap(3, 2))
    return term.signed_relabellings(_CYCLIC_3)


def check_hirota3(tau: TPoly, z_cap: int = 4) -> Residual:
    """Three-term bilinear functional relation, cleared of negative powers:

    sum over cyclic (a,b,c) of (zeta_b - zeta_a) zeta_c tau^{[za,zb]} tau^{[zc]} = 0.

    The term of (a, b, c) = (0, 1, 2) is computed once; the other two are
    its cyclic relabellings.
    """
    trust = tau.weight_cap + 2
    return _poly_residual("hirota-3-term", _hirota3_residual(tau, z_cap, trust))


def _det_m_row(shift, zeta, m: int) -> list:
    """The entries zeta^{m-k} (1 - hbar zeta d_1)^{k-1} tau^{[z]} of the
    row of slot 0, k = 1..m, from ``shift`` = tau^{[z]}, each multiplied
    out term by term with its zeta powers."""
    ctx = shift.ctx
    d_pows = [shift]
    for _ in range(m - 1):
        d_pows.append(d_pows[-1].diff_t(1))
    row = []
    for k in range(1, m + 1):
        entry = None
        for i in range(k):
            term = d_pows[i].scale(
                Rational((-1) ** i * comb(k - 1, i)) * ctx.hbar_pow(i)
            )
            term = term * zeta.pow_int(m - k + i)
            entry = term if entry is None else entry + term
        row.append(entry)
    return row


def _times_tau(left, T, n: int):
    """left tau ... tau, n factors tau, multiplied in one at a time."""
    for _ in range(n):
        left = left * T
    return left


def _det_m_relabelled(T, all_shift, row: list, zs: list, m: int):
    """The residual as the antisymmetrised zeta^delta S - P, with
    S = tau^{[z1..zm]} tau^{m-1} and P the product of the diagonal
    entries, entry k of slot 0's ``row`` relabelled into slot k."""
    lift = zs[0].pow_int(m - 1)
    for s in range(1, m - 1):
        lift = lift * zs[s].pow_int(m - 1 - s)
    left = lift * all_shift
    if left.terms:
        try:
            left = left * _times_tau(T, T, m - 2)
        except HbarWindowError:
            # tau^{m-1} forms products that (left tau) tau ... cancels
            # first; the chain leaves the window only where S did before
            left = _times_tau(left, T, m - 1)
    diagonal = row[0]
    for s in range(1, m):
        diagonal = diagonal * row[s].relabelled(_swap(m, s))
    return (left - diagonal).signed_relabellings(permutations(range(m)))


def _det_m_laplace(T, all_shift, shift, row, zs: list, m: int):
    """The residual as the identity is written: the Vandermonde times
    tau^{[z1..zm]} tau ... tau, minus the Laplace determinant of the m x m
    entries, row j slot 0's ``row`` relabelled (built from ``shift`` if
    ``row`` is None)."""
    left = None
    for i in range(m):
        for j in range(i + 1, m):
            dz = zs[i] - zs[j]
            left = dz if left is None else left * dz
    left = _times_tau(left * all_shift, T, m - 1)
    if row is None:
        row = _det_m_row(shift, zs[0], m)
    rows = [row] + [[e.relabelled(_swap(m, j)) for e in row]
                    for j in range(1, m)]
    return left - det(rows)


def _det_m_residual(tau: TPoly, m: int, z_cap: int,
                    cap: int | None) -> _Resident:
    T = _embed(tau, m, z_cap, cap)
    all_shift = shift = miwa_shift(T, 0)
    for s in range(1, m):
        all_shift = miwa_shift(all_shift, s)
    zs = _zetas(T)
    row = None
    try:
        row = _det_m_row(shift, zs[0], m)
        return _det_m_relabelled(T, all_shift, row, zs, m)
    except HbarWindowError:
        # zeta^delta S and P hold terms that the antisymmetrisation
        # cancels, and a product with one of them can leave a formal
        # window that the identity as written stays inside.
        return _det_m_laplace(T, all_shift, shift, row, zs, m)


def check_det_m(tau: TPoly, m: int, z_cap: int = 4) -> Residual:
    """m-point determinant identity, rows cleared by zeta_j^{m-1}:

    prod_{i<j} (zeta_i - zeta_j) tau^{[z1..zm]} tau^{m-1}
      = det_{jk}[ zeta_j^{m-k} (1 - hbar zeta_j d_1)^{k-1} tau^{[zj]} ].

    The residual is the sum over the permutations pi of the slots of
    sgn(pi) pi(zeta^delta tau^{[z1..zm]} tau^{m-1} - prod_k entry_{kk}),
    delta = (m-1, ..., 1, 0); see the module docstring.
    """
    if m < 2:
        raise ValueError("needs at least two points")
    trust = tau.weight_cap + m * (m - 1) // 2
    return _poly_residual(f"determinant-{m}-point",
                          _det_m_residual(tau, m, z_cap, trust))


def _kp2_residual(F: TPoly, z_cap: int, x_form: bool,
                  cap: int | None) -> _Resident:
    ctx = F.ctx
    G2 = _embed(F, 2, z_cap, cap)
    f1 = miwa_shift(G2, 0)
    f2 = f1.relabelled(_swap(2, 1))
    f12 = miwa_shift(f1, 1)
    big_g = (f12 - f1 - f2 + G2).scale(ctx.hbar_pow(-2))
    z1, z2 = _zetas(G2)
    d_f = G2.diff_x() if x_form else G2.diff_t(1)
    d_f1 = miwa_shift(d_f, 0)
    try:
        jump1 = d_f1.scale(ctx.hbar_pow(-1))
    except HbarWindowError:
        # (d F)^{[z1]} holds terms that B - swap(B) cancels before the
        # scaling: the identity as written
        jump = (d_f1 - d_f1.relabelled(_swap(2, 1))).scale(ctx.hbar_pow(-1))
        return (z2 - z1) * (big_g.exp() - 1) + (z1 * z2) * jump
    half = (z1 * z2) * jump1 - z1 * (big_g.exp() - 1)
    return half.signed_relabellings(_SWAP_2)


def check_kp2(F: TPoly, z_cap: int = 4, x_form: bool = False) -> Residual:
    """Fay identity in F-form, cross-multiplied:

    (zeta2 - zeta1)(e^{Delta(z1)Delta(z2) F} - 1)
      + zeta1 zeta2 [ (d F)^{[z1]} - (d F)^{[z2]} ] / hbar = 0,

    where Delta(z) = (shift - 1)/hbar, so Delta(z1)Delta(z2)F =
    (F^{[z1,z2]} - F^{[z1]} - F^{[z2]} + F)/hbar^2.  The residual is
    B - swap(B), B = zeta1 zeta2 (d F)^{[z1]} / hbar - zeta1 (e^{...} - 1).

    With ``x_form`` false, d is the t_1-derivative; with it true, d is the
    x-derivative of the coefficient functions (the variant adapted to
    solutions whose t_1-flow is an x-shift; assembled series satisfy both,
    and the x-form reacts to low-weight corruption at lower expansion
    order).
    """
    trust = F.weight_cap + 1
    tag = "fay-F-form-x" if x_form else "fay-F-form"
    return _poly_residual(tag, _kp2_residual(F, z_cap, x_form, trust))


def jacobi_minor_identity(rows) -> Residual:
    """Minor identity for a square matrix N (size >= 3):

    det N * det N[rows 1,2; cols m-1,m]
      = det N[2, m] det N[1, m-1] - det N[2, m-1] det N[1, m].
    """
    m = len(rows)
    if m < 3:
        raise ValueError("needs size >= 3")
    lhs = det(rows) * det(minor(rows, (0, 1), (m - 2, m - 1)))
    rhs = det(minor(rows, (1,), (m - 1,))) * det(minor(rows, (0,), (m - 2,))) \
        - det(minor(rows, (1,), (m - 2,))) * det(minor(rows, (0,), (m - 1,)))
    resid = lhs - rhs
    return _wrap_matrix_residual("jacobi-minors", resid, m)


def zdet_identity(rows, zs) -> Residual:
    """For any square matrix A and weights z_l:
    sum_l det(column l of A scaled rowwise by z_i) = (sum_l z_l) det A."""
    m = len(rows)
    if any(len(r) != m for r in rows):
        raise ValueError("matrix must be square")
    if len(zs) != m:
        raise ValueError("need one z per row/column")
    total = None
    for l in range(m):
        mod = [
            [rows[i][j] * zs[i] if j == l else rows[i][j] for j in range(m)]
            for i in range(m)
        ]
        d = det(mod)
        total = d if total is None else total + d
    zsum = zs[0]
    for z in zs[1:]:
        zsum = zsum + z
    resid = total - zsum * det(rows)
    return _wrap_matrix_residual("z-weighted-determinant", resid, m)


def _wrap_matrix_residual(identity: str, resid, size: int) -> Residual:
    failing = ()
    if isinstance(resid, TPoly):
        failing = tuple(sorted(k for k, c in resid.terms.items()
                               if not _coeff_is_zero(c)))
        checked, nonzero = len(resid.terms), len(failing)
        worst = None if not nonzero else resid.render()
    else:
        checked, nonzero = 1, int(not scalar_is_zero(resid))
        worst = None if not nonzero else str(resid)
    return Residual(identity, {"size": size}, not nonzero, worst, resid,
                    checked, nonzero, failing)
