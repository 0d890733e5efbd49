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
residual in resident polynomials (``tpoly.resident``, see Integer codes
below) whose total-degree cap is ``trust``, so no monomial above it is
ever computed.  That is exact, not approximate:

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

Slot symmetry.  The tau residuals are sums of slot relabellings of one
polynomial, which ``_Resident.signed_relabellings`` adds up in one
accumulator.  The Fay residual is B - swap(B) with B = (hbar zeta1 zeta2
d_1 tau^{[z1]} + zeta1 tau^{[z1]}) tau^{[z2]} - zeta1 tau^{[z1,z2]} tau,
two tau-sized products where the identity as written takes four.  The
F-form residual is the identity as written (``check_kp2``): its one
product chain, e^G, is symmetric in the slots, and (d F)^{[z2]} is
(d F)^{[z1]} relabelled, so symmetrising it would save no product.  The
three-term residual is the sum of the three cyclic relabellings of one
of its terms.  Each
row of the m-point matrix is one function of its own slot, entry_{jk} =
f_k(zeta_j), so the determinant is sum_pi sgn(pi) pi(f_1(zeta_1) ...
f_m(zeta_m)), where pi renames the slots; the Vandermonde is sum_pi
sgn(pi) pi(zeta^delta) with delta = (m-1, ..., 1, 0), and
tau^{[z1..zm]} tau^{m-1} = S is symmetric.  So the residual is the
antisymmetrised zeta^delta S - P, with P the product of the diagonal
entries: m - 1 products for P, one large one for zeta^delta S after the
m - 2 of tau^{m-1} (formed first; under the weight cap it has no more
monomials than tau), and m! relabellings.  The zeta powers are
multiplied in first, into each entry and into the symmetric factor, so
the cap prunes the products early.  The weight cap, the per-slot z cap
and the total-degree cap are the same in every slot, so renaming the
slots of a capped polynomial gives the capped renamed polynomial: a
relabelled product is the product of the relabelled factors, and the
argument above holds for the sum of them.  The same
holds for the Miwa shifts: the input has no zeta-monomials, so its shift
in slot s is its shift in slot 0 with slots 0 and s renamed.  The shifts
tau^{[z1]}, tau^{[z1,z2]}, ... are formed once for all the checks on one
tau and kept on tau (``_rung``): encoded and shifted under no degree
cap, each read by a check in its own number of slots under its own cap,
and relabelled.  The m-point check builds the row of slot 0 once, from
one shift and one d_1 chain, and relabels its entries into the other
slots.  The F-form check reads F's shifts the same way, and its t-form
takes (d_1 F)^{[z1]} as d_1 (F^{[z1]}): d_1 commutes with the shift.

Formal hbar.  Each check computes one residual.  B and swap(B),
zeta^delta S and P hold terms that the sum over the relabellings
cancels, and tau^{m-1} is formed before it meets zeta^delta
tau^{[z1..zm]}, so a product can leave the window where the identity as
written would not.  The check then raises ``HbarWindowError``, as every
other stage does where a value leaves the window, and a wider window is
the remedy.  Under the checks' own caps no input is known on which the
identity as written returns and the residual raises;
``tests/test_resident.py`` keeps drawing them.

Integer codes.  ``_rung`` encodes the input once (``tpoly.resident``):
every coefficient becomes integer numerators over one denominator for the
polynomial.  From there the Miwa shifts, d_1, the hbar and rational
scalings, the sums, the tau x tau (or F) products and the relabellings
all act on those integers.  A zeta prefactor is a polynomial in the
zetas alone with int coefficients, {zeta exponents: coefficient}, and
``P.times_zeta(prefactor)`` shifts the keys of P by each term's
exponents, summing the pairs as the product with that polynomial does;
an hbar zeta1 zeta2 prefactor is the shift followed by ``scale``.  The
residual, its valid orders and coefficient types, and any
``HbarWindowError`` are the ones the same steps on ``TPoly`` values
give, which ``tests/test_resident.py`` checks against its reference
residuals; the trusted-region argument above is unchanged.
Every monomial is a packed int (``tpoly._Packing``) from the encoding to
the verdict: the shifts, derivatives, prefactors, products and
relabellings rewrite ints and never a (texp, zexp) tuple.  The verdict is
read from the codes: which monomials are nonzero, and the first of them
in sorted order, whose coefficient alone is reduced to canonical
rationals for ``worst``.  Only the nonzero monomials are read back as
tuples, for ``Residual.failing``, so a passing check decodes no key.
``Residual.poly`` reduces the whole residual into a ``TPoly`` when it is
first read.
"""

from __future__ import annotations

from functools import cached_property
from itertools import permutations
from math import comb

from .hscalar import HbarWindowError, render_scalar, scalar_is_zero
from .linalg import det, minor
from .hcalc import miwa_shift
from .rational import Rational
from .record import Record
from .tpoly import CapError, TPoly, _Resident, _coeff_is_zero, resident
from .xseries import XSeries


class Residual(Record):
    """Outcome of one identity check: binary pass, no tolerances.

    ``source`` is the residual: a TPoly or scalar, or resident codes
    (``tpoly.resident``) that ``poly`` decodes when it is first read; it
    takes no part in equality or ``repr``.  ``checked`` counts the
    monomials of the trusted region scanned and ``nonzero`` those that do
    not vanish; ``failing`` lists the nonzero monomials of a polynomial
    residual in sorted order, and ``worst`` names the first."""

    _fields = ("identity", "caps", "passed", "worst", "source", "checked",
               "nonzero", "failing")
    _quiet = ("source",)

    def __init__(self, identity: str, caps: dict, passed: bool,
                 worst: str | None, source: object | None = None,
                 checked: int = 0, nonzero: int = 0, failing: tuple = ()):
        self._set(identity, caps, passed, worst, source, checked, nonzero,
                  failing)

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
    is read from the codes; only the nonzero monomials are decoded into
    tuples, and only the first failing coefficient into rationals."""
    is_zero, decode = res.kernel.is_zero, res.pack.key
    failing = tuple(sorted(decode(p) for p, c in res.terms.items()
                           if not is_zero(c)))
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


def _rung(poly: TPoly, s: int, nslots: int, z_cap: int,
          cap: int | None) -> _Resident:
    """poly^{[z1..zs]} (poly itself at s = 0) in ``nslots`` >= s slots under
    the total-degree cap ``cap``, read off poly's shift ladder.

    The ladder is kept on ``poly``, one per z cap, and grows on request:
    rung 0 encodes the input once (``tpoly.resident``), and rung s is the
    Miwa shift of rung s - 1 in slot s - 1, under no degree cap, so all
    the checks on one polynomial share its shifts.  A rung is held in the
    most slots a check has asked for, and a check that asks for more
    re-embeds it there (``_Resident.with_slots``): its slots from s on are
    zero, so it fits any number of slots from s on.  A shift keeps the
    total degree, so a cap drops the same monomials from a rung as from
    its input.  (The checks' caps are above the weight cap and drop
    nothing; under a lower one, a monomial the cap drops is still
    shifted, and can raise.)  A shift that raises ``HbarWindowError``
    leaves the error's arguments as its rung, and every later request
    for it raises the error again.

    An input that already carries zeta-monomials is refused: capping the
    inputs of d_1 at ``cap`` is exact only when they have no monomial above
    the weight cap in total degree.  Without them, the Miwa shift in slot s
    is the one in slot 0 with the two slots renamed (``_swap``)."""
    ladders = getattr(poly, "_ladders", None)
    if ladders is None:
        ladders = poly._ladders = {}
    ladder = ladders.get(z_cap)
    if ladder is None:
        if any(zexp for _, zexp in poly.terms):
            raise ValueError("the input to a check must not carry zeta-monomials")
        ladder = ladders[z_cap] = [resident(poly.with_slots(nslots, z_cap))]
    while len(ladder) <= s and isinstance(ladder[-1], _Resident):
        top = ladder[-1]
        if top.nslots < nslots:
            top = ladder[-1] = top.with_slots(nslots, None)
        try:
            ladder.append(miwa_shift(top, len(ladder) - 1))
        except HbarWindowError as exc:
            ladder.append(exc.args)
    rung = ladder[min(s, len(ladder) - 1)]
    if not isinstance(rung, _Resident):
        raise HbarWindowError(*rung)
    if rung.nslots < nslots:
        rung = ladder[s] = rung.with_slots(nslots, None)
    return rung.with_slots(nslots, cap)


def _need_zeta(z_cap: int) -> None:
    """The zeta prefactors hold zeta_s^1, which a z cap below 1 refuses."""
    if z_cap < 1:
        raise CapError("zeta power exceeds z cap")


def _swap(nslots: int, s: int) -> tuple:
    """The permutation of ``nslots`` slots that exchanges slots 0 and s."""
    perm = list(range(nslots))
    perm[0], perm[s] = s, 0
    return tuple(perm)


# the relabellings of two slots, and the cyclic ones of three: each of
# sign +1 but the swap
_SWAP_2 = ((0, 1), (1, 0))
_CYCLIC_3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
# zeta prefactors in two slots ({zeta exponents: coefficient}, the terms
# of each in the order of the zeta polynomial it stands for): zeta1,
# zeta1 zeta2 and zeta2 - zeta1
_Z1, _Z12 = {(1,): 1}, {(1, 1): 1}
_Z2_Z1 = {(0, 1): 1, (1,): -1}


def _fay_residual(tau: TPoly, z_cap: int, cap: int | None) -> _Resident:
    _check_unit_constant(tau)
    T, t1, t12 = (_rung(tau, s, 2, z_cap, cap) for s in range(3))
    t2 = t1.relabelled(_swap(2, 1))
    _need_zeta(z_cap)
    d1 = t1.diff_t(1).times_zeta(_Z12).scale(T.ctx.hbar_pow(1))
    half = (d1 + t1.times_zeta(_Z1)) * t2 - t12.times_zeta(_Z1) * T
    return half.signed_relabellings(_SWAP_2)


def check_fay(tau: TPoly, z_cap: int = 4) -> Residual:
    """Differential Fay identity, cross-multiplied to polynomial form:

    hbar zeta1 zeta2 [ (d_1 tau^{[z1]}) tau^{[z2]} - (d_1 tau^{[z2]}) tau^{[z1]} ]
      = (zeta1 - zeta2) ( tau^{[z1,z2]} tau - tau^{[z1]} tau^{[z2]} ).

    The residual is B - swap(B), B = (hbar zeta1 zeta2 d_1 tau^{[z1]}
    + zeta1 tau^{[z1]}) tau^{[z2]} - zeta1 tau^{[z1,z2]} tau: two
    tau-sized products where the identity as written takes four.  In
    formal hbar it raises where B leaves the window (module docstring).
    """
    trust = tau.weight_cap + 1
    return _poly_residual("differential-fay", _fay_residual(tau, z_cap, trust))


def _hirota3_residual(tau: TPoly, z_cap: int, cap: int | None) -> _Resident:
    T = _rung(tau, 0, 3, z_cap, cap)
    _need_zeta(z_cap)
    t0 = _rung(tau, 1, 3, z_cap, cap)
    # (zeta1 - zeta0) zeta2
    left = _rung(tau, 2, 3, z_cap, cap).times_zeta({(0, 1, 1): 1,
                                                    (1, 0, 1): -1})
    term = left * t0.relabelled(_swap(3, 2))
    return term.signed_relabellings(_CYCLIC_3)


def check_hirota3(tau: TPoly, z_cap: int = 4) -> Residual:
    """Three-term bilinear functional relation, cleared of negative powers:

    sum over cyclic (a,b,c) of (zeta_b - zeta_a) zeta_c tau^{[za,zb]} tau^{[zc]} = 0.

    The term of (a, b, c) = (0, 1, 2) is computed once; the other two are
    its cyclic relabellings.
    """
    trust = tau.weight_cap + 2
    return _poly_residual("hirota-3-term", _hirota3_residual(tau, z_cap, trust))


def _det_m_row(shift, m: int) -> list:
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
            term = term.times_zeta({(m - k + i,): 1})
            entry = term if entry is None else entry + term
        row.append(entry)
    return row


def _det_m_residual(tau: TPoly, m: int, z_cap: int,
                    cap: int | None) -> _Resident:
    T, shift, all_shift = (_rung(tau, s, m, z_cap, cap) for s in (0, 1, m))
    _need_zeta(z_cap)
    row = _det_m_row(shift, m)
    left = all_shift.times_zeta({tuple(range(m - 1, -1, -1)): 1})
    if left.terms:
        power = T
        for _ in range(m - 2):
            power = power * T
        left = left * power
    diagonal = row[0]
    for s in range(1, m):
        diagonal = diagonal * row[s].relabelled(_swap(m, s))
    return (left - diagonal).signed_relabellings(permutations(range(m)))


def check_det_m(tau: TPoly, m: int, z_cap: int = 4) -> Residual:
    """m-point determinant identity, rows cleared by zeta_j^{m-1}:

    prod_{i<j} (zeta_i - zeta_j) tau^{[z1..zm]} tau^{m-1}
      = det_{jk}[ zeta_j^{m-k} (1 - hbar zeta_j d_1)^{k-1} tau^{[zj]} ].

    The residual is the sum over the permutations pi of the slots of
    sgn(pi) pi(zeta^delta tau^{[z1..zm]} tau^{m-1} - prod_k entry_{kk}),
    delta = (m-1, ..., 1, 0); see the module docstring.  It takes m - 1
    products for P where the Laplace determinant of the identity as
    written takes m 2^(m-1).  In formal hbar it raises where a product
    leaves the window.
    """
    if m < 2:
        raise ValueError("needs at least two points")
    trust = tau.weight_cap + m * (m - 1) // 2
    return _poly_residual(f"determinant-{m}-point",
                          _det_m_residual(tau, m, z_cap, trust))


def _kp2_residual(F: TPoly, z_cap: int, x_form: bool,
                  cap: int | None) -> _Resident:
    ctx = F.ctx
    G2, f1, f12 = (_rung(F, s, 2, z_cap, cap) for s in range(3))
    f2 = f1.relabelled(_swap(2, 1))
    big_g = (f12 - f1 - f2 + G2).scale(ctx.hbar_pow(-2))
    _need_zeta(z_cap)
    # (d F)^{[z1]}: see check_kp2
    d_f1 = miwa_shift(G2.diff_x(), 0) if x_form else f1.diff_t(1)
    jump = (d_f1 - d_f1.relabelled(_swap(2, 1))).scale(ctx.hbar_pow(-1))
    return (big_g.exp() - 1).times_zeta(_Z2_Z1) + jump.times_zeta(_Z12)


def check_kp2(F: TPoly, z_cap: int = 4, x_form: bool = False) -> Residual:
    """Fay identity in F-form, cross-multiplied:

    (zeta2 - zeta1)(e^{Delta(z1)Delta(z2) F} - 1)
      + zeta1 zeta2 [ (d F)^{[z1]} - (d F)^{[z2]} ] / hbar = 0,

    where Delta(z) = (shift - 1)/hbar, so Delta(z1)Delta(z2)F =
    (F^{[z1,z2]} - F^{[z1]} - F^{[z2]} + F)/hbar^2.  The residual is the
    identity as written, (d F)^{[z2]} being (d F)^{[z1]} with the slots
    renamed, for every input: the symmetrised form B - swap(B),
    B = zeta1 zeta2 (d F)^{[z1]} / hbar - zeta1 (e^{...} - 1), costs the
    same, and in formal hbar it can leave the window where the identity
    stays inside it, so a check raises only where the identity does.

    With ``x_form`` false, d is the t_1-derivative; with it true, d is the
    x-derivative of the coefficient functions (the variant adapted to
    solutions whose t_1-flow is an x-shift; assembled series satisfy both,
    and the x-form reacts to low-weight corruption at lower expansion
    order).

    The t-form takes (d_1 F)^{[z1]} as d_1 (F^{[z1]}): the shift is a
    translation in t, and d_1 keeps valid orders and the dropping of zero
    series, so the residual is the same.  The x-form shifts d_x F: d_x of
    a shifted coefficient that cancelled to a zero series of full valid
    order would drop a monomial that the shift of d_x F keeps at valid
    order X - 1.  F^{[z1]} and F^{[z1,z2]} come from F's shift ladder,
    as the tau checks' shifts do from tau's (module docstring).
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
