"""Resident polynomials (``tpoly.resident``): the residual checks on
integer codes against the TPoly path they replace.

Each resident operation, and each whole ``verify._*_residual``, must give
what the same steps on TPoly values give: the same monomials in the same
order, the same values, valid orders and coefficient types, and the same
``HbarWindowError`` message.  The reference residuals below are the checks
written on TPoly values, with the Miwa shift as the state expansion it was
before ``hcalc`` shared one expansion between TPoly and resident
polynomials (``reference.ref_miwa_shift``).  Products are compared with
the schoolbook product of ``reference``, and so are the exponential and
the logarithm, which ``ref_exp`` and ``ref_log_unit`` write as the loops
TPoly had before it ran them on integer codes.

The tau residuals are sums of slot relabellings of one polynomial, and
the Miwa shift of an input without zeta-monomials in slot s is its shift
in slot 0 relabelled; the reference residuals take the same steps.  The
oracles compute the identities as they are written: both sides of the
Fay identities, the three cyclic terms each on its own and the m x m
determinant by Laplace expansion.  The F-form residual is the identity
as written, so its oracle is its reference.  The residuals must agree
with the oracles on every nonzero monomial, on the verdict and on the
failing monomials.  The Fay and m-point residuals hold terms that their
sums over the slot relabellings cancel, so in formal hbar they could
leave a window that the identity as written stays inside; the public
checks must return wherever the oracles return at the checks' own caps,
and the hirota3 and F-form residuals at every cap.
"""

from itertools import permutations
from math import comb
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbarkp.errors import HbarkpError
from hbarkp.hcalc import miwa_shift
from hbarkp.hscalar import (
    HContext, HPoly, HbarWindowError, scalar_inv, scalar_is_zero,
)
from hbarkp import tpoly, xseries
from hbarkp.linalg import det
from hbarkp.rational import Rational
from hbarkp.sampling import random_tau_data
from hbarkp.taubuild import tau_series
from hbarkp.tpoly import TPoly, _coeff_is_zero, resident, texp_of
from hbarkp.verify import (
    _det_m_residual, _fay_residual, _hirota3_residual, _kp2_residual,
    _poly_residual, check_det_m, check_fay, check_kp2,
)
from hbarkp.xseries import XSeries
from reference import (
    PARTS, assert_same_coeff, assert_same_poly, nonzero_series, polys,
    pow_int, ref_miwa_shift, ref_tpoly_mul, scalars, series, shapes, var_zeta,
    window_scalars,
)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)
RESIDUAL_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True,
                             database=None)
ORACLE_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True,
                           database=None)
PUBLIC_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True,
                           database=None)
NUMERIC = HContext.numeric(Rational(2, 3))
NEGATIVE = HContext.numeric(Rational(-3, 2))
ZERO = HContext.numeric(0)
WIDE = HContext.symbolic(-8, 8)
NARROW = HContext.symbolic(-2, 2)
# windows that hold exponent 0 alone, or at an end, or one off each end
edge_contexts = st.sampled_from([
    HContext.symbolic(0, 0), HContext.symbolic(0, 3), HContext.symbolic(-3, 0),
    HContext.symbolic(-1, 1)])
# whole residuals at W = 4 need the window a symbolic check is granted
GRANTED = HContext.symbolic(-30, 30)
residual_contexts = st.sampled_from([NUMERIC, NEGATIVE, ZERO, GRANTED, WIDE,
                                     NARROW])
formal_contexts = st.sampled_from([GRANTED, WIDE, NARROW])


# -- the TPoly path --------------------------------------------------------------

def _degree_bound(p: TPoly) -> int:
    bound = p.weight_cap + p.nslots * p.z_cap
    return bound if p.degree_cap is None else min(bound, p.degree_cap)


def _constant(p: TPoly, value) -> TPoly:
    return TPoly(p.ctx, p.weight_cap, p.z_cap, p.nslots, {((), ()): value},
                 degree_cap=p.degree_cap)


def ref_exp(p: TPoly) -> TPoly:
    if ((), ()) in p.terms and not _coeff_is_zero(p.terms[((), ())]):
        raise ValueError("exp needs zero constant monomial")
    acc = term = _constant(p, Rational(1))
    for n in range(1, _degree_bound(p) + 2):
        term = ref_tpoly_mul(term, p).scale(Rational(1, n))
        if not term.terms:
            break
        acc = acc + term
    return acc


def ref_log_unit(p: TPoly) -> TPoly:
    c0 = p.constant_coeff()
    if isinstance(c0, XSeries):
        c0_inv = c0.inverse()
        log_c0 = c0.log()
    else:
        c0_inv = scalar_inv(c0)
        log_c0 = None
    rest = p.scale(c0_inv) - 1
    acc = TPoly.zero(p.ctx, p.weight_cap, p.z_cap, p.nslots, p.degree_cap)
    term = _constant(p, Rational(1))
    for n in range(1, _degree_bound(p) + 2):
        term = ref_tpoly_mul(term, rest)
        if not term.terms:
            break
        acc = acc + term.scale(Rational((-1) ** (n + 1), n))
    if isinstance(c0, XSeries):
        acc = acc + _constant(p, log_c0)
    elif not scalar_is_zero(c0 - 1):
        raise ValueError("scalar constant coefficient must be 1 for log")
    return acc


def _zetas(T):
    return [var_zeta(T.ctx, T.weight_cap, s, T.z_cap, T.nslots,
                           degree_cap=T.degree_cap) for s in range(T.nslots)]


def _unit_constant(tau):
    c = tau.constant_coeff()
    c = c.constant_term() if isinstance(c, XSeries) else c
    if c == 0:
        raise ValueError("tau is not invertible: zero constant coefficient")


def ref_fay(tau, z_cap, cap):
    """B - swap(B), B = (hbar zeta1 zeta2 d_1 tau^{[z1]} + zeta1 tau^{[z1]})
    tau^{[z2]} - zeta1 tau^{[z1,z2]} tau."""
    _unit_constant(tau)
    T = tau.with_slots(2, z_cap, cap)
    t1 = ref_miwa_shift(T, 0)
    t2, t12 = relabelled(t1, (1, 0)), ref_miwa_shift(t1, 1)
    z1, z2 = _zetas(T)
    d1 = (z1 * z2).scale(T.ctx.hbar_pow(1)) * t1.diff_t(1)
    half = (d1 + z1 * t1) * t2 - (z1 * t12) * T
    return signed_relabellings(half, SWAP_2)


def relabelled(poly: TPoly, perm) -> TPoly:
    """perm·poly: slot s renamed to perm[s]."""
    terms = {}
    for (texp, zexp), c in poly.terms.items():
        slots = [0] * poly.nslots
        for s, d in enumerate(zexp):
            slots[perm[s]] = d
        terms[(texp, tuple(slots))] = c
    return TPoly(poly.ctx, poly.weight_cap, poly.z_cap, poly.nslots, terms,
                 degree_cap=poly.degree_cap)


def sign(perm) -> int:
    inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
    return -1 if inversions % 2 else 1


def signed_relabellings(poly: TPoly, perms) -> TPoly:
    total = None
    for perm in perms:
        term = relabelled(poly, perm)
        if sign(perm) < 0:
            term = -term
        total = term if total is None else total + term
    return total


SWAP_2 = ((0, 1), (1, 0))
CYCLIC_3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def swap(nslots, s):
    perm = list(range(nslots))
    perm[0], perm[s] = s, 0
    return tuple(perm)


def ref_hirota3(tau, z_cap, cap):
    """One cyclic term, summed over the cyclic relabellings of the slots."""
    T = tau.with_slots(3, z_cap, cap)
    z0, z1, z2 = _zetas(T)
    t0 = ref_miwa_shift(T, 0)
    term = (((z1 - z0) * z2) * ref_miwa_shift(t0, 1)) * \
        relabelled(t0, (2, 1, 0))
    return signed_relabellings(term, CYCLIC_3)


def ref_det_m(tau, m, z_cap, cap):
    """zeta^delta tau^{[z1..zm]} tau^{m-1}, with tau^{m-1} formed first,
    minus the product of the diagonal entries, built in slot 0 and
    relabelled into their slots; antisymmetrised over the slots."""
    ctx = tau.ctx
    T = tau.with_slots(m, z_cap, cap)
    all_shift = T
    for s in range(m):
        all_shift = ref_miwa_shift(all_shift, s)
    zs = _zetas(T)
    d_pows = [ref_miwa_shift(T, 0)]
    for _ in range(m - 1):
        d_pows.append(d_pows[-1].diff_t(1))
    row = []
    for k in range(1, m + 1):
        entry = None
        for i in range(k):
            term = d_pows[i].scale(
                Rational((-1) ** i * comb(k - 1, i)) * ctx.hbar_pow(i))
            term = term * pow_int(zs[0], m - k + i)
            entry = term if entry is None else entry + term
        row.append(entry)
    lift = pow_int(zs[0], m - 1)
    for s in range(1, m - 1):
        lift = lift * pow_int(zs[s], m - 1 - s)
    left = lift * all_shift
    if left.terms:
        power = T
        for _ in range(m - 2):
            power = power * T
        left = left * power
    diagonal = row[0]
    for s in range(1, m):
        diagonal = diagonal * relabelled(row[s], swap(m, s))
    return signed_relabellings(left - diagonal, permutations(range(m)))


# -- independent oracles: the identities as they are written ------------------------

def oracle_hirota3(tau, z_cap, cap):
    """The sum of the three cyclic terms, each computed on its own."""
    T = tau.with_slots(3, z_cap, cap)
    sh = [ref_miwa_shift(T, s) for s in range(3)]
    zs = _zetas(T)
    total = None
    for (a, b), c in (((0, 1), 2), ((1, 2), 0), ((2, 0), 1)):
        term = ((zs[b] - zs[a]) * zs[c] * ref_miwa_shift(sh[a], b)) * sh[c]
        total = term if total is None else total + term
    return total


def oracle_det_m(tau, m, z_cap, cap):
    """The Vandermonde times tau^{[z1..zm]} tau^{m-1}, minus the Laplace
    determinant of the m x m entries."""
    ctx = tau.ctx
    T = tau.with_slots(m, z_cap, cap)
    sh = [ref_miwa_shift(T, s) for s in range(m)]
    all_shift = T
    for s in range(m):
        all_shift = ref_miwa_shift(all_shift, s)
    zs = _zetas(T)
    left = None
    for i in range(m):
        for j in range(i + 1, m):
            dz = zs[i] - zs[j]
            left = dz if left is None else left * dz
    left = left * all_shift
    for _ in range(m - 1):
        left = left * T
    rows = []
    for j in range(m):
        d_pows = [sh[j]]
        for _ in range(m - 1):
            d_pows.append(d_pows[-1].diff_t(1))
        row = []
        for k in range(1, m + 1):
            entry = None
            for i in range(k):
                term = d_pows[i].scale(
                    Rational((-1) ** i * comb(k - 1, i)) * ctx.hbar_pow(i))
                term = term * pow_int(zs[j], m - k + i)
                entry = term if entry is None else entry + term
            row.append(entry)
        rows.append(row)
    return left - det(rows)


def oracle_fay(tau, z_cap, cap):
    """The differential Fay identity as it is written."""
    _unit_constant(tau)
    T = tau.with_slots(2, z_cap, cap)
    t1, t2 = ref_miwa_shift(T, 0), ref_miwa_shift(T, 1)
    t12 = ref_miwa_shift(t1, 1)
    z1, z2 = _zetas(T)
    pre = (z1 * z2).scale(T.ctx.hbar_pow(1))
    left = (pre * t1.diff_t(1)) * t2 - (pre * t2.diff_t(1)) * t1
    dz = z1 - z2
    return left - ((dz * t12) * T - (dz * t1) * t2)


def _kp2_parts(F, z_cap, x_form, cap):
    """(Delta(z1) Delta(z2) F, d F, zeta1, zeta2)."""
    ctx = F.ctx
    G2 = F.with_slots(2, z_cap, cap)
    f1, f2 = ref_miwa_shift(G2, 0), ref_miwa_shift(G2, 1)
    f12 = ref_miwa_shift(f1, 1)
    big_g = (f12 - f1 - f2 + G2).scale(ctx.hbar_pow(-2))
    d_f = G2.map_coeffs(lambda s: s.diff()) if x_form else G2.diff_t(1)
    return (big_g, d_f, *_zetas(G2))


def oracle_kp2(F, z_cap, x_form, cap):
    """The F-form Fay identity as it is written."""
    big_g, d_f, z1, z2 = _kp2_parts(F, z_cap, x_form, cap)
    jump = (ref_miwa_shift(d_f, 0) - ref_miwa_shift(d_f, 1)).scale(
        F.ctx.hbar_pow(-1))
    return (z2 - z1) * (ref_exp(big_g) - 1) + (z1 * z2) * jump


# -- comparison ------------------------------------------------------------------

def outcome(fn, *args):
    """('ok', value) or ('raise', exception type and message); a zero
    scalar has no inverse."""
    try:
        return "ok", fn(*args)
    except (HbarkpError, ValueError, ZeroDivisionError) as exc:
        return "raise", (type(exc), str(exc))


def assert_same_outcome(got_fn, want_fn):
    got, want = outcome(got_fn), outcome(want_fn)
    assert got[0] == want[0], (got, want)
    if want[0] == "raise":
        assert got[1] == want[1]
    else:
        assert_same_poly(got[1], want[1])
    return want


# -- strategies ------------------------------------------------------------------

@st.composite
def poly_pairs(draw, low=False):
    shape = draw(shapes())
    return draw(polys(shape, low=low)), draw(polys(shape, low=low))


def units(ctx):
    """Scalars the checks scale by: rationals times hbar powers."""
    if not ctx.is_numeric:
        hbar_pows = st.integers(ctx.lo, ctx.hi)
    else:  # no negative power of hbar = 0
        hbar_pows = st.integers(-2 if ctx.value else 0, 2)
    return st.builds(lambda r, j: Rational(r) * ctx.hbar_pow(j),
                     st.integers(-3, 3).filter(bool), hbar_pows)


# -- each operation ----------------------------------------------------------------

@SETTINGS
@given(poly_pairs())
def test_encode_and_decode_give_the_polynomial_back(pair):
    p, _ = pair
    assert_same_poly(resident(p).decode(), p)


@SETTINGS
@given(poly_pairs())
def test_sums_and_differences_match(pair):
    p, q = pair
    assert_same_outcome(lambda: (resident(p) + resident(q)).decode(),
                        lambda: p + q)
    assert_same_outcome(lambda: (resident(p) - resident(q)).decode(),
                        lambda: p - q)
    assert_same_outcome(lambda: (-resident(p)).decode(), lambda: -p)
    # a scalar meets the constant coefficient; where p has none, TPoly
    # stores the scalar itself and a resident polynomial a constant series
    if ((), ()) in p.terms or not any(isinstance(c, XSeries)
                                      for c in p.terms.values()):
        assert_same_outcome(lambda: (resident(p) - 1).decode(),
                            lambda: p - 1)


@SETTINGS
@given(st.data())
def test_subtracting_a_scalar_adds_its_negative(data):
    """p - s is p + (-s), for an HPoly s as for an int or a rational, and
    so is a - s for an x-series a; s - a is (-a) + s."""
    shape = data.draw(shapes())
    ctx = shape[0]
    p = data.draw(polys(shape))
    s = data.draw(window_scalars(ctx))
    assert_same_outcome(lambda: p - s, lambda: p + (-s))
    assert_same_outcome(lambda: (resident(p) - s).decode(),
                        lambda: (resident(p) + (-s)).decode())
    a = data.draw(series(ctx, shape[1] or 0, window_scalars(ctx)))
    assert_same_coeff(a - s, a + (-s))
    assert_same_coeff(s - a, (-a) + s)


def test_subtracting_a_power_of_hbar():
    """In [-4, 4], p - hbar for p = 2 + hbar t_1 and for x-series, and
    a - hbar and hbar - a for the x-series a = 1 + hbar x."""
    ctx = HContext.symbolic(-4, 4)
    h = ctx.hbar_pow(1)
    a = XSeries(ctx, 1, [Rational(1), h])
    for terms in ({((), ()): Rational(2), ((1,), ()): h}, {((1,), ()): a},
                  {((), ()): a}):
        p = TPoly(ctx, 2, terms=terms)
        assert_same_poly(p - h, p + (-h))
        assert_same_poly((resident(p) - h).decode(),
                         (resident(p) + (-h)).decode())
        assert (p - h) + h == p
    assert_same_coeff(a - h, a + (-h))
    assert_same_coeff(h - a, (-a) + h)
    assert h - a == XSeries(ctx, 1, [h - 1, -h])


def test_an_empty_scalar_polynomial_does_not_join_x_series():
    """An empty polynomial is held on the kernel of its own coefficients,
    scalars, and is refused beside x-series, as any two kernels are."""
    empty = resident(TPoly.zero(NUMERIC, 2))
    p = resident(TPoly(NUMERIC, 2, terms={((1,), ()): XSeries.one(NUMERIC, 1)}))
    for fn in (lambda: empty + p, lambda: p + empty, lambda: empty * p):
        with pytest.raises(ValueError, match="scalar and x-series"):
            fn()


@SETTINGS
@given(poly_pairs(low=True))
def test_products_match(pair):
    p, q = pair
    assert_same_outcome(lambda: (resident(p) * resident(q)).decode(),
                        lambda: ref_tpoly_mul(p, q))


def test_the_first_pair_out_of_the_window_names_the_error():
    """Pairs of equal degree meet in the order of their monomials, so
    swapping two monomials of q swaps which end of [-2, 2] is left first."""
    def h(e):
        return XSeries(NARROW, 1, [HPoly(NARROW, {e: Rational(1)})])
    p = TPoly(NARROW, 2, terms={((), ()): h(-2) + h(2)})
    t2, t11 = ((0, 1), ()), ((2,), ())
    for terms, power in (({t2: h(-1), t11: h(1)}, -3),
                         ({t11: h(1), t2: h(-1)}, 3)):
        q = TPoly(NARROW, 2, terms=terms)
        for fn in (lambda: p * q, lambda: resident(p) * resident(q)):
            assert outcome(fn)[1][1] == \
                f"hbar^{power} outside window [-2, 2]"


def assert_times_zeta_matches(data, shape):
    """times_zeta of a zeta polynomial with int coefficients, 1 to 3 terms
    with exponents within the z cap, just past it or far past it (where a
    packed key would overflow its field), is the product with that
    polynomial as a TPoly on the left, which drops a term past the z cap:
    the same values, types, term order and kept monomials."""
    ctx, _, W, Z, nslots, D = shape
    p = data.draw(polys(shape))
    exps = st.one_of(st.integers(0, Z + 1), st.integers(0, Z),
                     st.integers(Z + 2, 20))
    zexps = st.lists(exps, max_size=nslots).map(
        lambda z: tuple(z[:max((i + 1 for i, d in enumerate(z) if d),
                               default=0)]))
    prefactor = data.draw(st.dictionaries(
        zexps, st.integers(-3, 3).filter(bool), min_size=1, max_size=3))
    zeta = TPoly(ctx, W, Z, nslots,
                 {((), e): Rational(c) for e, c in prefactor.items()},
                 degree_cap=D)
    assert_same_outcome(lambda: resident(p).times_zeta(prefactor).decode(),
                        lambda: ref_tpoly_mul(zeta, p))


@SETTINGS
@given(st.data())
def test_zeta_shifts_match(data):
    assert_times_zeta_matches(data, data.draw(shapes()))


@SETTINGS
@given(st.data())
def test_zeta_shifts_match_in_edge_windows(data):
    assert_times_zeta_matches(
        data, data.draw(shapes(slots=(1, 2), contexts=edge_contexts)))


@SETTINGS
@given(st.data())
def test_scalings_match(data):
    shape = data.draw(shapes())
    p = data.draw(polys(shape))
    s = data.draw(st.one_of(scalars(shape[0]), units(shape[0])))
    assert_same_outcome(lambda: resident(p).scale(s).decode(),
                        lambda: p.scale(s))


@SETTINGS
@given(st.data())
def test_derivatives_match(data):
    shape = data.draw(shapes())
    p = data.draw(polys(shape))
    k = data.draw(st.integers(1, 3))
    assert_same_outcome(lambda: resident(p).diff_t(k).decode(),
                        lambda: p.diff_t(k))
    if shape[1] is not None:
        assert_same_outcome(lambda: resident(p).diff_x().decode(),
                            lambda: p.map_coeffs(lambda c: c.diff()))


@SETTINGS
@given(st.data())
def test_miwa_shifts_match(data):
    shape = data.draw(shapes(slots=(1, 2)))
    p = data.draw(polys(shape))
    slot = data.draw(st.integers(0, shape[4] - 1))
    want = assert_same_outcome(lambda: miwa_shift(p, slot),
                               lambda: ref_miwa_shift(p, slot))
    got = outcome(lambda: miwa_shift(resident(p), slot).decode())
    assert got[0] == want[0]
    if want[0] == "raise":
        assert got[1] == want[1]
    else:
        assert_same_poly(got[1], want[1])


@SETTINGS
@given(st.data())
def test_exponentials_match(data):
    """The exponential of x-series holds its constant 1 as a constant
    series, so the results are compared after subtracting 1, as the F-form
    check does."""
    shape = data.draw(shapes())
    p = data.draw(polys(shape, low=True))
    p = TPoly(p.ctx, p.weight_cap, p.z_cap, p.nslots,
              {k: c for k, c in p.terms.items() if k != ((), ())},
              degree_cap=p.degree_cap)
    for got in (lambda: (resident(p).exp() - 1).decode(),
                lambda: p.exp() - 1):
        assert_same_outcome(got, lambda: ref_exp(p) - 1)


@SETTINGS
@given(st.data())
def test_logarithms_match(data):
    """Mostly with the constant coefficient 1, or 1 + O(x) for x-series, as
    the logarithm needs; else with the constant coefficient drawn, which a
    scalar other than 1 or a series without a unit constant term refuses."""
    shape = data.draw(shapes())
    ctx, cap = shape[:2]
    p = data.draw(polys(shape, low=True))
    if data.draw(st.integers(0, 3)) < 3:
        one = data.draw(st.sampled_from([Rational(1), ctx.one()]))
        if cap is not None:
            tail = data.draw(series(ctx, cap))
            one = XSeries(ctx, cap, (one,) + tail.coeffs[1:], valid=tail.valid)
        p = TPoly(ctx, p.weight_cap, p.z_cap, p.nslots,
                  {**p.terms, ((), ()): one}, degree_cap=p.degree_cap)
    assert_same_outcome(lambda: p.log_unit(), lambda: ref_log_unit(p))
    assert_same_outcome(lambda: resident(p).log_unit().decode(),
                        lambda: ref_log_unit(p))


@SETTINGS
@given(st.data())
def test_each_operation_in_edge_windows(data):
    """The formal code keys x^j hbar^e by j * S + (e - lo), S = hi - lo + 1.
    In windows with exponent 0 at an end of that range, or as its only
    exponent, the encoding, sums, products, scalings by c hbar^j, both
    derivatives and the Miwa shift match the TPoly path."""
    shape = data.draw(shapes(slots=(1, 2), contexts=edge_contexts))
    ctx = shape[0]
    p, q = data.draw(polys(shape, low=True)), data.draw(polys(shape, low=True))
    assert_same_poly(resident(p).decode(), p)
    assert_same_outcome(lambda: (resident(p) + resident(q)).decode(),
                        lambda: p + q)
    assert_same_outcome(lambda: (resident(p) - resident(q)).decode(),
                        lambda: p - q)
    assert_same_outcome(lambda: (resident(p) * resident(q)).decode(),
                        lambda: ref_tpoly_mul(p, q))
    s = data.draw(units(ctx))
    assert_same_outcome(lambda: resident(p).scale(s).decode(),
                        lambda: p.scale(s))
    k = data.draw(st.integers(1, 3))
    assert_same_outcome(lambda: resident(p).diff_t(k).decode(),
                        lambda: p.diff_t(k))
    if shape[1] is not None:
        assert_same_outcome(lambda: resident(p).diff_x().decode(),
                            lambda: p.map_coeffs(lambda c: c.diff()))
    slot = data.draw(st.integers(0, shape[4] - 1))
    want = outcome(lambda: ref_miwa_shift(p, slot))
    got = outcome(lambda: miwa_shift(resident(p), slot).decode())
    assert got[0] == want[0]
    if want[0] == "raise":
        assert got[1] == want[1]
    else:
        assert_same_poly(got[1], want[1])


def test_a_narrow_window_raises_the_same_error_in_a_logarithm():
    """In [-2, 2], log(c0 + hbar^2 t_1) meets hbar^4 in the square of
    hbar^2 t_1 / c0.  With c0 = 2 that error comes first: a scalar constant
    coefficient other than 1 is refused last, as at weight cap 1, where
    the square is above the cap."""
    h2 = HPoly(NARROW, {2: Rational(1)})
    one = XSeries.one(NARROW, 1)
    fns = (ref_log_unit, TPoly.log_unit,
           lambda p: resident(p).log_unit().decode())
    for c0, c1 in ((Rational(1), h2), (Rational(2), h2), (one, one.scale(h2))):
        p = TPoly(NARROW, 2, terms={((), ()): c0, ((1,), ()): c1})
        for fn in fns:
            assert outcome(fn, p)[1] == (HbarWindowError,
                                         "hbar^4 outside window [-2, 2]")
    p = TPoly(NARROW, 1, terms={((), ()): Rational(2), ((1,), ()): h2})
    for fn in fns:
        assert outcome(fn, p)[1] == (
            ValueError, "scalar constant coefficient must be 1 for log")


def test_the_exponential_of_x_series_has_a_constant_series_one():
    """Where the TPoly loop gave the exponential of x-series the scalar 1
    as its constant coefficient, it is the constant series 1 now; the
    value is the same, and so is every other coefficient."""
    a = XSeries(NUMERIC, 2, [Rational(1), Rational(2)])
    p = TPoly(NUMERIC, 2, terms={((1,), ()): a})
    got, want = p.exp(), ref_exp(p)
    assert list(got.terms) == list(want.terms)
    assert_same_coeff(got.terms[((), ())], XSeries.one(NUMERIC, 2))
    assert_same_coeff(want.terms[((), ())], Rational(1))
    assert_same_poly(got - 1, want - 1)


def test_scalars_among_x_series_are_constant_series():
    """A scalar among x-series coefficients is taken as a constant series
    (``resident``), so on the monomials that only scalars feed, exp, log
    and the Miwa shift give x-series where the TPoly loops gave scalars, of
    the same value."""
    a = XSeries(NUMERIC, 2, [Rational(1), Rational(2)])
    p = TPoly(NUMERIC, 2, 2, 1, {((1,), ()): Rational(3), ((0, 1), ()): a})
    for got, want in ((p.exp(), ref_exp(p)),
                      ((p + 1).log_unit(), ref_log_unit(p + 1)),
                      (miwa_shift(p, 0), ref_miwa_shift(p, 0))):
        assert list(got.terms) == list(want.terms)
        assert all(isinstance(c, XSeries) for c in got.terms.values())
        assert not all(isinstance(c, XSeries) for c in want.terms.values())
        for key, c in want.terms.items():
            assert got.terms[key] == c


def test_a_narrow_window_raises_the_same_error_in_a_miwa_shift():
    """In [-2, 2]: t_1^3 forms hbar^3 in its expansion before any
    coefficient is scaled, also where the coefficient is a zero series
    kept for its valid order; hbar^2 t_2 is scaled to hbar^3 zeta^2."""
    h2 = HPoly(NARROW, {2: Rational(1)})
    one = XSeries.one(NARROW, 1)
    zero = XSeries(NARROW, 1, [], valid=0)
    for texp, c in (((3,), one), ((3,), zero), ((0, 1), one.scale(h2))):
        p = TPoly(NARROW, 3, 4, 1, {(texp, ()): c})
        for fn in (ref_miwa_shift, miwa_shift,
                   lambda p, s: miwa_shift(resident(p), s)):
            assert outcome(fn, p, 0)[1][1] == "hbar^3 outside window [-2, 2]"


# -- whole residuals -----------------------------------------------------------------

@st.composite
def inputs(draw, max_weight=4, contexts=residual_contexts):
    """(tau or F without zeta-monomials, z cap, total-degree cap)."""
    ctx = draw(contexts)
    cap = draw(st.one_of(st.none(), st.integers(0, 1), st.integers(0, 2)))
    # the bilinear identities first see a non-solution at weight 4
    W = draw(st.integers(3, max_weight))
    Z = draw(st.integers(2, 4))
    D = draw(st.one_of(st.none(), st.integers(W, W + 3)))
    coeff = scalars(ctx).filter(bool) if cap is None else nonzero_series(ctx, cap)
    parts = draw(st.lists(st.sampled_from([p for p in PARTS if 0 < sum(p) <= W]),
                          min_size=2, max_size=5, unique=True))
    terms = {(texp_of(p), ()): draw(coeff) for p in parts}
    # mostly an invertible constant coefficient, as a tau has
    if draw(st.integers(0, 4)) < 4:
        terms[((), ())] = ctx.one() if cap is None else XSeries.one(ctx, cap)
    return TPoly(ctx, W, terms=terms), Z, D


@RESIDUAL_SETTINGS
@given(inputs())
def test_fay_residual_matches(case):
    tau, Z, D = case
    assert_same_outcome(lambda: _fay_residual(tau, Z, D).decode(),
                        lambda: ref_fay(tau, Z, D))


@RESIDUAL_SETTINGS
@given(inputs())
def test_hirota3_residual_matches(case):
    tau, Z, D = case
    assert_same_outcome(lambda: _hirota3_residual(tau, Z, D).decode(),
                        lambda: ref_hirota3(tau, Z, D))


@RESIDUAL_SETTINGS
@given(inputs(), st.integers(2, 3))
def test_det_m_residual_matches(case, m):
    tau, Z, D = case
    assert_same_outcome(lambda: _det_m_residual(tau, m, Z, D).decode(),
                        lambda: ref_det_m(tau, m, Z, D))


@RESIDUAL_SETTINGS
@given(inputs(), st.booleans())
def test_kp2_residual_matches(case, x_form):
    F, Z, D = case
    if x_form and not any(isinstance(c, XSeries) for c in F.terms.values()):
        return  # scalar coefficients have no x-derivative
    assert_same_outcome(lambda: _kp2_residual(F, Z, x_form, D).decode(),
                        lambda: oracle_kp2(F, Z, x_form, D))


def test_the_references_run_without_the_resident_kernel(monkeypatch):
    """The TPoly reference ring multiplies x-series coefficient pair by
    coefficient pair: in numeric hbar a product of two x-series TPolys
    and ``ref_fay`` run with the resident product and the kernels'
    ``accumulate`` refused."""
    tau = tau_series(random_tau_data(Random(7), NUMERIC, 3, 2)).assemble()

    def refuse(*args):
        raise AssertionError("the resident product ran")
    monkeypatch.setattr(tpoly._Resident, "__mul__", refuse)
    monkeypatch.setattr(tpoly._Resident, "__rmul__", refuse)
    for kernel in (xseries._NumericInts, xseries._SymbolicInts):
        monkeypatch.setattr(kernel, "accumulate", refuse)
    a = XSeries(NUMERIC, 2, [Rational(1), Rational(2)], valid=1)
    p = TPoly(NUMERIC, 3, terms={((), ()): a, ((1,), ()): a.scale(3),
                                 ((0, 1), ()): XSeries.x(NUMERIC, 2)})
    assert_same_poly(p * p, ref_tpoly_mul(p, p))
    assert ref_fay(tau, 3, tau.weight_cap + 1).is_zero()


# -- the relabelled residuals against the identities as written ------------------------

def assert_agrees_with_oracle(identity, got_fn, oracle_fn, must_return=True):
    """Where both return, the residual must keep every monomial of the
    oracle and agree with it on the verdict, the first failing monomial
    and every nonzero monomial.  It may keep zero series below full valid
    order that the oracle's sums cancelled away.  With ``must_return`` the
    residual must also return wherever the oracle returns.  Where the
    oracle raises, nothing is asserted."""
    got, want = outcome(got_fn), outcome(oracle_fn)
    if want[0] == "raise" or (got[0] == "raise" and not must_return):
        return
    assert got[0] == "ok", (got, want)
    codes, want = got[1], want[1]
    got = codes.decode()
    assert set(want.terms) <= set(got.terms)
    nonzero = {k: c for k, c in got.terms.items() if not _coeff_is_zero(c)}
    assert nonzero.keys() == {k for k, c in want.terms.items()
                              if not _coeff_is_zero(c)}
    for key, c in nonzero.items():
        assert_same_coeff(c, want.terms[key])
    got = _poly_residual(identity, codes)
    want = _poly_residual(identity, resident(want))
    assert (got.passed, got.worst, got.failing) == \
        (want.passed, want.worst, want.failing)
    assert got.nonzero == len(got.failing)


def det_m_trust(tau, m):
    return tau.weight_cap + m * (m - 1) // 2


# The Fay and m-point residuals must return where the oracles return only
# at the cap the public checks pass, ``trust``; under no cap or another
# one, they are compared where both return.

@ORACLE_SETTINGS
@given(inputs())
def test_fay_residual_agrees_with_the_identity(case):
    tau, Z, D = case
    assert_agrees_with_oracle("differential-fay",
                              lambda: _fay_residual(tau, Z, D),
                              lambda: oracle_fay(tau, Z, D),
                              must_return=D == tau.weight_cap + 1)


@ORACLE_SETTINGS
@given(inputs(), st.booleans())
def test_kp2_residual_agrees_with_the_identity(case, x_form):
    F, Z, D = case
    if x_form and not any(isinstance(c, XSeries) for c in F.terms.values()):
        return  # scalar coefficients have no x-derivative
    assert_agrees_with_oracle("fay-F-form",
                              lambda: _kp2_residual(F, Z, x_form, D),
                              lambda: oracle_kp2(F, Z, x_form, D))


@ORACLE_SETTINGS
@given(inputs())
def test_hirota3_residual_agrees_with_the_three_terms(case):
    tau, Z, D = case
    assert_agrees_with_oracle("hirota-3-term",
                              lambda: _hirota3_residual(tau, Z, D),
                              lambda: oracle_hirota3(tau, Z, D))


@ORACLE_SETTINGS
@given(inputs(), st.integers(2, 4))
def test_det_m_residual_agrees_with_the_laplace_determinant(case, m):
    tau, Z, D = case
    assert_agrees_with_oracle("determinant",
                              lambda: _det_m_residual(tau, m, Z, D),
                              lambda: oracle_det_m(tau, m, Z, D),
                              must_return=D == det_m_trust(tau, m))


@ORACLE_SETTINGS
@given(inputs(max_weight=3))
def test_five_point_residual_agrees_with_the_laplace_determinant(case):
    tau, Z, D = case
    assert_agrees_with_oracle("determinant",
                              lambda: _det_m_residual(tau, 5, Z, D),
                              lambda: oracle_det_m(tau, 5, Z, D),
                              must_return=D == det_m_trust(tau, 5))


@PUBLIC_SETTINGS
@given(inputs(contexts=formal_contexts), st.sampled_from(["fay", 2, 3, 4]))
def test_the_checks_return_where_the_identities_return_at_their_caps(case, m):
    """In formal hbar, wherever the identity as written returns under the
    cap a public check passes, the check returns as well, with the
    verdict, first failing monomial and failing monomials of the identity
    as written."""
    tau, Z, _ = case
    if m == "fay":
        identity, trust = "differential-fay", tau.weight_cap + 1
        got = outcome(check_fay, tau, Z)
        want = outcome(oracle_fay, tau, Z, trust)
    else:
        identity, trust = f"determinant-{m}-point", det_m_trust(tau, m)
        got = outcome(check_det_m, tau, m, Z)
        want = outcome(oracle_det_m, tau, m, Z, trust)
    if want[0] == "raise":
        return
    assert got[0] == "ok", (got, want)
    got, want = got[1], _poly_residual(identity, resident(want[1]))
    assert (got.identity, got.caps["trust"]) == (identity, trust)
    assert (got.passed, got.worst, got.failing) == \
        (want.passed, want.worst, want.failing)


def test_kp2_residual_stays_inside_where_a_symmetrised_half_leaves_the_window():
    """In [-8, 8], (d_1 F)^{[z1]} / hbar would hold hbar^-9 t_1 for
    F = 1 + hbar^-8 t_1^2, which the identity as written cancels against
    (d_1 F)^{[z2]} / hbar before the scaling; so a half B of a
    symmetrised residual would leave the window, and the check, which
    computes the identity as written, passes, as the identity does."""
    F = TPoly(WIDE, 2, terms={((), ()): Rational(1),
                              ((2,), ()): HPoly(WIDE, {-8: Rational(1)})})
    assert check_kp2(F, 3).passed
    assert_same_poly(_kp2_residual(F, 3, False, 3).decode(),
                     oracle_kp2(F, 3, False, 3))
