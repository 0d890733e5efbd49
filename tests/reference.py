"""Reference constructions, comparisons and strategies that only the tests
use, in one module that every test module imports from; no test module
imports another (``test_unreferenced`` checks that).

The pipeline never forms a lone slot variable or a power of a whole
polynomial; the tests build their expected polynomials from these, on the
reference ring ``TPoly``.  The schoolbook products multiply and add the
rationals pair by pair, in the order the kernels meet the pairs, so a
product's monomials come in the reference's order and its first window
error is the reference's.  ``ref_miwa_shift`` is the Miwa shift as a
state expansion, and ``ref_schur_over_hbar`` the basis s_lam(t/hbar) of
the tau series from the Jacobi-Trudi determinant.
"""

from fractions import Fraction
from functools import cache
from math import comb

from hypothesis import strategies as st

from hbarkp.hscalar import HContext, HPoly, HbarWindowError, scalar_is_zero
from hbarkp.linalg import det
from hbarkp.partitions import partitions_of
from hbarkp.rational import Rational
from hbarkp.tpoly import CapError, TPoly, _droppable, texp_of, weight_of
from hbarkp.xseries import XSeries


def var_zeta(ctx, weight_cap, slot: int, z_cap, nslots, power: int = 1,
             degree_cap=None) -> TPoly:
    """zeta_slot^power, the slot variable standing for z_slot^{-1}."""
    if not (0 <= slot < nslots):
        raise ValueError("slot out of range")
    if power > z_cap:
        raise CapError("zeta power exceeds z cap")
    zexp = (0,) * slot + (power,)
    return TPoly(ctx, weight_cap, z_cap, nslots, {((), zexp): Rational(1)},
                 degree_cap=degree_cap)


def pow_int(poly: TPoly, n: int) -> TPoly:
    """poly^n, multiplied in one factor at a time from the constant 1."""
    out = poly._constant_like(Rational(1))
    for _ in range(n):
        out = out * poly
    return out


# -- schoolbook products ---------------------------------------------------------

def ref_scalar_mul(x, y):
    """x * y, summing term products one by one; an HPoly * HPoly product
    is window-checked as a whole, at its lowest exponent and then at its
    highest, and a product with a rational never is."""
    hx, hy = isinstance(x, HPoly), isinstance(y, HPoly)
    if not hx and not hy:
        return Rational(x) * Rational(y)
    if hx and hy and x.ctx != y.ctx:
        raise ValueError("mixed hbar contexts")
    ctx = x.ctx if hx else y.ctx
    tx = x.terms if hx else {0: Rational(x)}
    ty = y.terms if hy else {0: Rational(y)}
    out = {}
    for e1, c1 in tx.items():
        for e2, c2 in ty.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    if hx and hy:
        exps = [e for e, c in out.items() if c]
        for e in (min(exps), max(exps)) if exps else ():
            if not ctx.lo <= e <= ctx.hi:
                raise HbarWindowError(
                    f"hbar^{e} outside window [{ctx.lo}, {ctx.hi}]")
        return HPoly(ctx, out)
    return HPoly(ctx, {e: c for e, c in out.items() if c != 0}, _clean=True)


def ref_xseries_mul(a: XSeries, b: XSeries) -> XSeries:
    if a.ctx != b.ctx:
        raise ValueError("mixed hbar contexts")
    if a.cap != b.cap:
        raise ValueError("mixed x caps")
    v = min(a.valid, b.valid)
    out = [None] * (v + 1)
    # the pairs of a's coefficients in turn, so the first pair that leaves
    # the window is the kernel's
    for i in range(v + 1):
        for k in range(v + 1 - i):
            p = ref_scalar_mul(a.coeffs[i], b.coeffs[k])
            out[i + k] = p if out[i + k] is None else out[i + k] + p
    return XSeries(a.ctx, a.cap, out, valid=v)


def ref_coeff_mul(x, y):
    if isinstance(x, XSeries) and isinstance(y, XSeries):
        return ref_xseries_mul(x, y)
    if isinstance(x, XSeries) or isinstance(y, XSeries):
        return x * y  # XSeries.scale, term by term
    return ref_scalar_mul(x, y)


def _add_exps(a, b):
    n = max(len(a), len(b))
    s = [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
         for i in range(n)]
    while s and s[-1] == 0:
        s.pop()
    return tuple(s)


def ref_tpoly_mul(p: TPoly, q: TPoly) -> TPoly:
    """The pairs of p's monomials in turn, each operand stably sorted by
    total degree under a total-degree cap, else by weight, so that the
    monomials come in the product's order and the first pair that leaves
    the window is the product's."""
    def degree(item):
        (t, z), _ = item
        return weight_of(t) + (sum(z) if p.degree_cap is not None else 0)

    out = {}
    for (t1, z1), c1 in sorted(p.terms.items(), key=degree):
        for (t2, z2), c2 in sorted(q.terms.items(), key=degree):
            t, z = _add_exps(t1, t2), _add_exps(z1, z2)
            w = weight_of(t)
            if w > p.weight_cap or any(d > p.z_cap for d in z):
                continue
            if p.degree_cap is not None and w + sum(z) > p.degree_cap:
                continue
            prod = ref_coeff_mul(c1, c2)
            out[(t, z)] = out[(t, z)] + prod if (t, z) in out else prod
    return TPoly(p.ctx, p.weight_cap, p.z_cap, p.nslots,
                 {k: c for k, c in out.items() if not _droppable(c)},
                 degree_cap=p.degree_cap)


# -- the Miwa shift and the Schur basis -------------------------------------------

def ref_miwa_shift(poly: TPoly, slot: int, sign: int = 1) -> TPoly:
    """t_k -> t_k + sign (hbar/k) zeta_slot^k, truncated at the slot's z
    cap, as a state expansion over the t-positions in turn."""
    ctx = poly.ctx
    Z = poly.z_cap
    out: dict = {}
    for (texp, zexp), coeff in poly.terms.items():
        base_z = zexp[slot] if slot < len(zexp) else 0
        states = [(list(texp), 0, None)]
        for pos, a in enumerate(texp):
            if a == 0:
                continue
            k = pos + 1
            new_states = []
            for exps, zd, fac in states:
                for j in range(0, a + 1):
                    zd2 = zd + k * j
                    if base_z + zd2 > Z:
                        break
                    if j == 0:
                        new_states.append((exps, zd, fac))
                        continue
                    f = Rational(comb(a, j) * sign ** j, k ** j) * ctx.hbar_pow(j)
                    e2 = list(exps)
                    e2[pos] = a - j
                    new_states.append((e2, zd2, f if fac is None else fac * f))
            states = new_states
        for exps, zd, fac in states:
            nz = list(zexp) + [0] * (poly.nslots - len(zexp))
            nz[slot] += zd
            while exps and exps[-1] == 0:
                exps = exps[:-1]
            while nz and nz[-1] == 0:
                nz = nz[:-1]
            key = (tuple(exps), tuple(nz))
            c = coeff if fac is None else coeff * fac
            out[key] = out[key] + c if key in out else c
    return TPoly(ctx, poly.weight_cap, poly.z_cap, poly.nslots, out,
                 degree_cap=poly.degree_cap)


PLAIN = HContext.numeric(Rational(1))


@cache
def _jacobi_trudi(lam) -> TPoly:
    """s_lam = det[h_{lam_i - i + j}], hbar-free, h_k = sum over mu of k
    of t_mu / sigma(mu)."""
    W = lam.weight

    def h(k):
        if k < 0:
            return 0
        return TPoly(PLAIN, W, terms={(texp_of(mu), ()): Rational(1, mu.sigma)
                                      for mu in partitions_of(k)})
    s = det([[h(lam[i] - i + j) for j in range(len(lam))]
             for i in range(len(lam))])
    return s if isinstance(s, TPoly) else TPoly.one(PLAIN, W)


def ref_schur_over_hbar(lam, ctx, cap):
    """s_lam(t/hbar): the coefficient of t_mu in the Jacobi-Trudi
    determinant times hbar^{-ell(mu)} (the rational itself for mu = ()),
    the terms in ``partitions_of`` order."""
    s = _jacobi_trudi(lam)
    terms = {}
    for mu in partitions_of(lam.weight):
        c = s.terms.get((texp_of(mu), ()))
        if c:
            terms[(texp_of(mu), ())] = c * ctx.hbar_pow(-mu.ell) if mu else c
    return TPoly(ctx, cap, terms=terms)


# -- comparison ----------------------------------------------------------------

def assert_same_scalar(got, want):
    assert isinstance(got, HPoly) == isinstance(want, HPoly), (got, want)
    if isinstance(want, HPoly):
        assert got.ctx == want.ctx
        assert got.terms == want.terms
    else:
        assert got == want


def assert_same_series(got: XSeries, want: XSeries):
    assert (got.cap, got.valid) == (want.cap, want.valid)
    assert len(got.coeffs) == len(want.coeffs)
    for g, w in zip(got.coeffs, want.coeffs):
        assert_same_scalar(g, w)


def assert_same_coeff(got, want):
    assert isinstance(got, XSeries) == isinstance(want, XSeries), (got, want)
    if isinstance(want, XSeries):
        assert_same_series(got, want)
    else:
        assert_same_scalar(got, want)


def assert_same_poly(got: TPoly, want: TPoly):
    """The same shape (context and caps), the same monomials in the same
    order, with the same coefficients."""
    assert isinstance(got, TPoly)
    assert ((got.ctx, got.weight_cap, got.z_cap, got.nslots, got.degree_cap)
            == (want.ctx, want.weight_cap, want.z_cap, want.nslots,
                want.degree_cap))
    assert list(got.terms) == list(want.terms)
    for key, c in want.terms.items():
        assert_same_coeff(got.terms[key], c)


# -- strategies ----------------------------------------------------------------

fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 12))
# int, Fraction and zero coefficients; mpq when it is the backend
rationals = st.one_of(st.integers(-3, 3), fractions.map(Rational),
                      st.just(Rational(0)))


def hpolys(ctx):
    return st.dictionaries(st.integers(ctx.lo, ctx.hi), fractions,
                           max_size=3).map(lambda t: HPoly(ctx, t))


def scalars(ctx):
    if ctx.is_numeric:
        return rationals
    return st.one_of(rationals, hpolys(ctx))


@st.composite
def series(draw, ctx, cap, scalar=None):
    scalar = scalars(ctx) if scalar is None else scalar
    valid = draw(st.integers(0, cap))
    # fewer coefficients than valid + 1 leaves Rational(0) pads
    coeffs = draw(st.lists(scalar, max_size=valid + 1))
    return XSeries(ctx, cap, coeffs, valid=valid)


@st.composite
def nonzero_series(draw, ctx, cap, scalar=None):
    scalar = scalars(ctx) if scalar is None else scalar
    valid = draw(st.integers(0, cap))
    coeffs = draw(st.lists(scalar, min_size=1, max_size=valid + 1))
    if scalar_is_zero(coeffs[0]):
        coeffs[0] = ctx.one() if ctx.is_numeric else ctx.hbar_pow(
            draw(st.integers(max(-1, ctx.lo), min(1, ctx.hi))))
    return XSeries(ctx, cap, coeffs, valid=valid)


def window_scalars(ctx):
    """Nonzero scalars.  In formal hbar, a third of them are one power of
    hbar at an end of the window or next to it, so that products and powers
    of them sometimes leave it."""
    units = st.builds(Fraction, st.integers(-6, 6).filter(bool),
                      st.integers(1, 12))
    nonzero = st.one_of(st.integers(-3, 3).filter(bool), units.map(Rational))
    if ctx.is_numeric:
        return nonzero
    ends = st.sampled_from([ctx.lo, min(ctx.lo + 1, ctx.hi),
                            max(ctx.hi - 1, ctx.lo), ctx.hi])
    return st.one_of(
        nonzero,
        st.dictionaries(st.integers(ctx.lo, ctx.hi), units, min_size=1,
                        max_size=3).map(lambda t: HPoly(ctx, t)),
        st.builds(lambda e, r: HPoly(ctx, {e: r}), ends, units))


# numeric hbar (also 0 and negative) and formal windows, wide and narrow
shape_contexts = st.sampled_from([
    HContext.numeric(Rational(2, 3)), HContext.numeric(Rational(-3, 2)),
    HContext.numeric(0), HContext.symbolic(-8, 8), HContext.symbolic(-2, 2)])


@st.composite
def shapes(draw, slots=(0, 2), contexts=shape_contexts):
    """(ctx, x cap or None for scalar coefficients, W, Z, nslots, degree cap)."""
    ctx = draw(contexts)
    # x-series coefficients twice as often as scalar ones
    cap = draw(st.one_of(st.none(), st.integers(0, 2), st.integers(0, 2)))
    W = draw(st.integers(2, 4))
    nslots = draw(st.integers(*slots))
    Z = draw(st.integers(1, 3))
    D = draw(st.one_of(st.none(), st.integers(W, W + nslots * Z)))
    return ctx, cap, W, Z, nslots, D


PARTS = [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1), (4,), (3, 1), (2, 2),
         (2, 1, 1), (1, 1, 1, 1)]


@st.composite
def polys(draw, shape, size=6, low=False):
    """2 to ``size`` monomials within the caps, so that the constructor
    keeps them all, of weight mostly <= 2 if ``low`` (so that products keep
    them), with zeta exponents.  The coefficients are ``window_scalars``,
    or series of them, which may be zero below full valid order or of low
    valid order."""
    ctx, cap, W, Z, nslots, D = shape
    scalar = window_scalars(ctx)
    if cap is None:
        coeff = scalar
    else:
        coeff = st.one_of(
            nonzero_series(ctx, cap, scalar), nonzero_series(ctx, cap, scalar),
            series(ctx, cap, scalar).filter(
                lambda c: c.valid < cap or not c.is_zero()))
    parts = [p for p in (PARTS[:4] * 3 + PARTS if low else PARTS)
             if sum(p) <= W]
    budget = W + nslots * Z if D is None else D

    def key(part, zexp):
        """The monomial with each zeta exponent cut to the degree left."""
        left, cut = budget - sum(part), []
        for d in zexp:
            cut.append(min(d, left))
            left -= cut[-1]
        return texp_of(part), tuple(cut)
    keys = st.builds(key, st.sampled_from(parts),
                     st.lists(st.integers(0, Z), max_size=nslots))
    terms = draw(st.dictionaries(keys, coeff, min_size=2, max_size=size))
    return TPoly(ctx, W, Z, nslots, terms, degree_cap=D)
