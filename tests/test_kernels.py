"""The integer product kernels of XSeries, HPoly and TPoly against the
schoolbook reference of ``reference``, which multiplies and adds the
rationals pair by pair.

The kernels must agree with it in value, in coefficient type (a
coefficient is an HPoly iff a pair behind it had an HPoly factor), in
valid order and in the set of kept monomials, and must raise
``HbarWindowError`` on exactly the inputs the reference raises on: a
pair that leaves the window raises even when the sum would cancel it.
The reference meets the pairs in the order the products do, so a TPoly
product also keeps its monomials in the reference's order and names the
exponent of the reference's first error.

The same holds for the kernel linear combination behind the tau and F
assemblies (``tpoly.linear_combination``), whose bases are integer rows,
against the sum of ``basis.scale(coeff)`` term by term, each basis formed
from its rows as a TPoly, with the monomials in the sum's order.  The
extraction of the data (``taubuild.extract_cauchy_like_tau``, one
weighted sum over the monomials of tau) agrees with the deformed derivatives applied to the
whole polynomial and read at t = 0 wherever those return, and raises
``HbarWindowError`` only where they raise.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbarkp.hcalc import dh_apply
from hbarkp.hscalar import HContext, HPoly, HbarValueError, HbarWindowError
from hbarkp.partitions import partitions_upto
from hbarkp.rational import Rational
from hbarkp.taubuild import as_xseries, extract_cauchy_like_tau
from hbarkp.tpoly import TPoly, linear_combination, texp_of
from hbarkp.xseries import Coded, XSeries, int_kernel
from reference import (
    assert_same_coeff, assert_same_poly, assert_same_scalar,
    assert_same_series, fractions, hpolys, ref_scalar_mul, ref_tpoly_mul,
    ref_xseries_mul, scalars, series,
)

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True,
                    database=None)
NUMERIC = HContext.numeric(Rational(2, 3))
WIDE = HContext.symbolic(-8, 8)
NARROW = HContext.symbolic(-2, 2)


# -- outcomes -------------------------------------------------------------------

def outcome(fn, *args):
    """('ok', value) or ('raise', exception type)."""
    try:
        return "ok", fn(*args)
    except (HbarWindowError, ValueError) as exc:
        return "raise", type(exc)


def outcome_text(fn, *args):
    """('ok', value) or ('raise', exception type and message)."""
    try:
        return "ok", fn(*args)
    except (HbarWindowError, ValueError) as exc:
        return "raise", (type(exc), str(exc))


# -- strategies ----------------------------------------------------------------

contexts = st.sampled_from([NUMERIC, WIDE, NARROW])
# The formal code keys x^j hbar^e by j * S + (e - lo), S = hi - lo + 1:
# these windows hold exponent 0 alone, or at an end, or one off each end.
EDGES = [HContext.symbolic(0, 0), HContext.symbolic(0, 3),
         HContext.symbolic(-3, 0), HContext.symbolic(-1, 1)]
edge_contexts = st.sampled_from(EDGES)


@st.composite
def series_pairs(draw, contexts=contexts):
    ctx = draw(contexts)
    cap = draw(st.integers(0, 4))
    return draw(series(ctx, cap)), draw(series(ctx, cap))


@st.composite
def tpoly_pairs(draw, contexts=contexts):
    ctx = draw(contexts)
    cap = draw(st.integers(0, 3))
    W = draw(st.integers(0, 4))
    nslots = draw(st.integers(0, 2))
    Z = draw(st.integers(0, 2))
    D = draw(st.one_of(st.none(), st.integers(0, W + nslots * Z)))
    # all-XSeries operands, or scalars among them: either way TPoly
    # multiplies coefficient by coefficient
    mixed = draw(st.booleans())
    coeff = st.one_of(series(ctx, cap), scalars(ctx)) if mixed else series(ctx, cap)
    keys = st.tuples(
        st.lists(st.integers(0, 2), max_size=3).map(tuple),
        st.lists(st.integers(0, Z), max_size=nslots).map(tuple))

    def poly():
        terms = draw(st.dictionaries(keys, coeff, max_size=6))
        return TPoly(ctx, W, Z, nslots, terms, degree_cap=D)
    return poly(), poly()


# -- properties ----------------------------------------------------------------

@SETTINGS
@given(ctx=st.sampled_from([WIDE, NARROW]), data=st.data())
def test_hpoly_product_matches_reference(ctx, data):
    a, b = data.draw(hpolys(ctx)), data.draw(hpolys(ctx))
    got, want = outcome(HPoly.__mul__, a, b), outcome(ref_scalar_mul, a, b)
    assert got[0] == want[0]
    if want[0] == "ok":
        assert_same_scalar(got[1], want[1])
    else:
        assert got[1] is want[1]


def assert_xseries_product(pair):
    a, b = pair
    got, want = outcome(XSeries.__mul__, a, b), outcome(ref_xseries_mul, a, b)
    assert got[0] == want[0]
    if want[0] == "ok":
        assert_same_series(got[1], want[1])
    else:
        assert got[1] is want[1]


def assert_tpoly_product(pair):
    p, q = pair
    got = outcome_text(TPoly.__mul__, p, q)
    want = outcome_text(ref_tpoly_mul, p, q)
    assert got[0] == want[0]
    if want[0] == "raise":
        assert got[1] == want[1]
        return
    assert_same_poly(got[1], want[1])


@SETTINGS
@given(series_pairs())
def test_xseries_product_matches_reference(pair):
    assert_xseries_product(pair)


@SETTINGS
@given(tpoly_pairs())
def test_tpoly_product_matches_reference(pair):
    assert_tpoly_product(pair)


@SETTINGS
@given(series_pairs(edge_contexts))
def test_xseries_product_in_edge_windows(pair):
    assert_xseries_product(pair)


@SETTINGS
@given(tpoly_pairs(edge_contexts))
def test_tpoly_product_in_edge_windows(pair):
    assert_tpoly_product(pair)


# -- codes as ring elements ----------------------------------------------------

def coded(s: XSeries) -> Coded:
    """``s`` over the denominator of its own coefficients."""
    kernel = int_kernel(s.ctx, s.cap)
    den, (code,) = kernel.codes((s,))
    return Coded(kernel, den, code)


@SETTINGS
@given(series_pairs(st.sampled_from([NUMERIC, WIDE, NARROW] + EDGES)),
       st.one_of(st.integers(-6, 6), fractions.map(Rational)))
def test_coded_ring_operations_match_xseries(pair, r):
    """Sums (mostly of unequal denominators), negation, products and int
    or rational multiples of ``Coded`` decode to the XSeries results."""
    a, b = pair
    for got, want in ((lambda: coded(a) + coded(b), lambda: a + b),
                      (lambda: -coded(a), lambda: -a),
                      (lambda: coded(a) * coded(b), lambda: a * b),
                      (lambda: coded(a) * r, lambda: a.scale(r))):
        g, w = outcome_text(lambda: got().series()), outcome_text(want)
        assert g[0] == w[0]
        if w[0] == "raise":
            assert g[1] == w[1]
        else:
            assert_same_series(g[1], w[1])


numeric_codes = st.lists(
    st.integers(0, 4).flatmap(lambda v: st.tuples(
        st.just(v), st.just(0),
        st.lists(st.one_of(st.integers(-3, 3), st.integers(-2 ** 80, 2 ** 80)),
                 min_size=v + 1, max_size=v + 1))),
    max_size=6)


@SETTINGS
@given(numeric_codes, numeric_codes)
def test_kronecker_width_is_the_bit_length_formula(codes1, codes2):
    """The field width of the numeric Kronecker operands is the sum of the
    largest bit length of a numerator on each side, as a maximum over
    every numerator's ``abs(x).bit_length()`` gives it, plus the bits of
    the valid order and of the pair count and a sign bit."""
    def bits(codes):
        return max((abs(x).bit_length() for c in codes for x in c[2]),
                   default=0)
    kernel = int_kernel(NUMERIC, 4)
    ops1, ops2 = kernel.operands(codes1, codes2)
    v = max((c[0] for c in codes1), default=0)
    n = min(len(codes1), len(codes2))
    B = bits(codes1) + bits(codes2) + (v + 1).bit_length() + n.bit_length() + 1
    assert all(op[2] == B for op in ops1 + ops2)


def test_a_multiple_whose_numerator_does_not_divide_the_denominator():
    """(1/2 + x/3) * 4/5: gcd(4, 6 * 5) = 2, so the code is doubled over
    15; (1/2 + x/3) * 3 goes into the denominator alone, 6 / 3 = 2."""
    a = coded(XSeries(NUMERIC, 1, [Rational(1, 2), Rational(1, 3)]))
    assert a.den == 6
    four_fifths = a * Rational(4, 5)
    assert (four_fifths.den, four_fifths.code[2]) == (15, [6, 4])
    assert four_fifths.series().coeffs == (Rational(2, 5), Rational(4, 15))
    three = a * 3
    assert (three.den, three.code[2]) == (2, [3, 2])
    assert three.series().coeffs == (Rational(3, 2), Rational(1))


# -- windows, contexts and caps --------------------------------------------------

def h(ctx, e, c=1):
    return HPoly(ctx, {e: Rational(c)})


# -- mixed scalar and x-series operands ---------------------------------------------

def test_a_monomial_fed_only_by_scalar_pairs_stays_scalar():
    """hbar = 2/3, a = 1 + 2x: in (2 + a t_1)(3 + a t_1) only the scalar
    pair 2 * 3 feeds the constant monomial, which is the scalar 6, not the
    constant series [6, 0, 0]."""
    a = XSeries(NUMERIC, 2, [Rational(1), Rational(2)])
    t1 = ((1,), ())
    p = TPoly(NUMERIC, 2, terms={((), ()): Rational(2), t1: a})
    q = TPoly(NUMERIC, 2, terms={((), ()): Rational(3), t1: a})
    got = p * q
    assert_same_poly(got, ref_tpoly_mul(p, q))
    assert_same_coeff(got.terms[((), ())], Rational(6))


def test_a_scalar_times_a_series_keeps_the_types_of_a_scaling():
    """In formal hbar, 2 * (1 + hbar x + 3x^2) is ``XSeries.scale``: only
    the x coefficient is an HPoly.  The product of the constant series 2
    with the series would make every coefficient from x on an HPoly."""
    b = XSeries(WIDE, 2, [Rational(1), h(WIDE, 1), Rational(3)])
    p = TPoly(WIDE, 1, terms={((), ()): Rational(2), ((1,), ()): b})
    q = TPoly(WIDE, 1, terms={((), ()): b})
    got = p * q
    assert_same_poly(got, ref_tpoly_mul(p, q))
    assert [isinstance(c, HPoly) for c in got.terms[((), ())].coeffs] == \
        [False, True, False]


def test_window_error_when_pairs_leave_but_the_sum_cancels():
    """h * h^2 - h^2 * h is zero, but each pair is hbar^3 outside [-2, 2]."""
    ctx = NARROW
    a = XSeries(ctx, 1, [h(ctx, 1), h(ctx, 2)])
    b = XSeries(ctx, 1, [h(ctx, 1, -1), h(ctx, 2)])
    for fn in (ref_xseries_mul, XSeries.__mul__):
        with pytest.raises(HbarWindowError):
            fn(a, b)
    # the same pairs as monomials h + h^2 t1 and -h + h^2 t1 at weight cap 1
    p = TPoly(ctx, 1, terms={((), ()): h(ctx, 1), ((1,), ()): h(ctx, 2)})
    q = TPoly(ctx, 1, terms={((), ()): h(ctx, 1, -1), ((1,), ()): h(ctx, 2)})
    with pytest.raises(HbarWindowError):
        p * q
    one = XSeries.one(ctx, 1)
    ps = TPoly(ctx, 1, terms={k: one.scale(c) for k, c in p.terms.items()})
    qs = TPoly(ctx, 1, terms={k: one.scale(c) for k, c in q.terms.items()})
    for fn in (ref_tpoly_mul, TPoly.__mul__):
        with pytest.raises(HbarWindowError):
            fn(ps, qs)


def test_window_is_checked_past_a_lower_valid_order_of_the_same_key():
    """A pair is checked through its own valid order, even where another
    pair on the same key has already cut the result's valid order."""
    ctx = NARROW
    low = XSeries(ctx, 2, [Rational(1)], valid=0)
    hi_a = XSeries(ctx, 2, [Rational(1), h(ctx, 2)])
    hi_b = XSeries(ctx, 2, [h(ctx, 1), h(ctx, 1)])
    t1 = ((1,), ())
    p = TPoly(ctx, 2, terms={((), ()): low, t1: hi_a})
    q = TPoly(ctx, 2, terms={t1: low, ((), ()): hi_b})
    for fn in (ref_tpoly_mul, TPoly.__mul__):
        with pytest.raises(HbarWindowError):
            fn(p, q)


def _products(a, b):
    """(product, reference, left, right, comparison) for a * b as series,
    and as the coefficients of the constant monomials of two polynomials,
    which multiply on resident codes."""
    p = TPoly(a.ctx, 1, terms={((), ()): a})
    q = TPoly(b.ctx, 1, terms={((), ()): b})
    return ((XSeries.__mul__, ref_xseries_mul, a, b, assert_same_series),
            (TPoly.__mul__, ref_tpoly_mul, p, q, assert_same_poly))


def test_operands_that_leave_the_window_only_past_the_reach_of_a_pair():
    """In [-1, 1] the HPoly spans of a = 1 + hbar x and b = 1 + hbar x add
    up to [0, 2], but only hbar x * hbar x reaches hbar^2, at x^2, past the
    common valid order 1; and hbar^-1 x times hbar^-1 reaches hbar^-2 at
    x^1, past the valid order 0 of the constant hbar^-1.  No pair is
    multiplied there, so nothing raises."""
    ctx = EDGES[3]
    one = h(ctx, 0)
    cases = [(XSeries(ctx, 2, [one, h(ctx, 1)], valid=1),
              XSeries(ctx, 2, [one, h(ctx, 1)], valid=1)),
             (XSeries(ctx, 1, [h(ctx, 1), h(ctx, -1)]),
              XSeries(ctx, 1, [h(ctx, -1)], valid=0))]
    for a, b in cases:
        for fn, ref, x, y, assert_same in _products(a, b):
            assert_same(fn(x, y), ref(x, y))


def test_the_first_pair_in_index_order_names_the_window_error():
    """In [-1, 1], a = hbar + hbar^-1 x and b = hbar^-1 + hbar x: the pair
    (x^0, x^1) reaches hbar^2 before the pair (x^1, x^0) reaches hbar^-2,
    and with the operands swapped it is the other way round."""
    ctx = EDGES[3]
    a = XSeries(ctx, 1, [h(ctx, 1), h(ctx, -1)])
    b = XSeries(ctx, 1, [h(ctx, -1), h(ctx, 1)])
    for x, y, power in ((a, b, 2), (b, a, -2)):
        for fn, ref, u, w, _ in _products(x, y):
            for f in (fn, ref):
                assert outcome_text(f, u, w)[1] == (
                    HbarWindowError, f"hbar^{power} outside window [-1, 1]")


def test_mixed_contexts_and_caps_raise():
    other = HContext.symbolic(-3, 3)
    with pytest.raises(ValueError, match="mixed hbar contexts"):
        h(WIDE, 1) * h(other, 1)
    a = XSeries(WIDE, 2, [h(WIDE, 1)])
    with pytest.raises(ValueError, match="mixed x caps"):
        a * XSeries(WIDE, 3, [h(WIDE, 1)])
    with pytest.raises(ValueError, match="mixed hbar contexts"):
        a * XSeries(other, 2, [h(other, 1)])
    # coefficients of one polynomial with different x caps
    t1 = ((1,), ())
    p = TPoly(WIDE, 2, terms={((), ()): a, t1: XSeries(WIDE, 3, [1])})
    q = TPoly(WIDE, 2, terms={((), ()): a})
    for fn in (ref_tpoly_mul, TPoly.__mul__):
        with pytest.raises(ValueError, match="mixed x caps"):
            fn(p, q)


def test_a_linear_combination_of_mixed_x_caps_raises():
    row = ((((1,), ()), 1, 1, 1),)
    pairs = [(row, XSeries.zero(WIDE, 1)), (row, XSeries.zero(WIDE, 2))]
    with pytest.raises(ValueError, match=r"^mixed hbar contexts or x caps$"):
        linear_combination(pairs, WIDE, 1)


def test_a_coefficient_of_another_context_raises():
    """A series of one context that holds an HPoly of another is refused
    by the product kernel, also where no HPoly * HPoly pair would meet."""
    stray = XSeries(WIDE, 2, [h(HContext.symbolic(-3, 3), 1), Rational(1)])
    t1 = ((1,), ())
    for b in (XSeries(WIDE, 2, [Rational(1), Rational(2)]),
              XSeries(WIDE, 2, [h(WIDE, 1)])):
        with pytest.raises(ValueError, match="mixed hbar contexts"):
            stray * b
        with pytest.raises(ValueError, match="mixed hbar contexts"):
            TPoly(WIDE, 2, terms={t1: stray}) * TPoly(WIDE, 2, terms={t1: b})


def test_results_are_canonical_rationals():
    a = XSeries(NUMERIC, 2, [Rational(1, 6), Rational(1, 4), Rational(1, 10)])
    b = XSeries(NUMERIC, 2, [Rational(3, 2), Rational(-2, 3), Rational(5, 7)])
    got = a * b
    want = ref_xseries_mul(a, b)
    for g, w in zip(got.coeffs, want.coeffs):
        assert (g.numerator, g.denominator) == (w.numerator, w.denominator)
        assert type(g) is Rational


# -- linear combinations: the tau and F assemblies --------------------------------

def row_scalar(ctx, num, den, j):
    """The scalar of a basis row (key, num, den, j) as rational arithmetic
    forms it: num/den hbar^j, an HPoly in formal hbar; j None: num/den."""
    r = Rational(num, den)
    if j is None:
        return r
    if ctx.is_numeric:
        return r * ctx.hbar_pow(j)
    return HPoly(ctx, {j: r})


def ref_linear_combination(pairs, ctx, W):
    """Each pair's basis formed as a TPoly of its row scalars, then scaled
    and added, one pair after the other."""
    acc = TPoly.zero(ctx, W)
    for rows, coeff in pairs:
        basis = TPoly(ctx, W, terms={key: row_scalar(ctx, *row)
                                     for key, *row in rows})
        acc = acc + basis.scale(coeff)
    return acc


@st.composite
def combinations(draw, contexts=contexts):
    """Bases given by rows on a few monomials, each paired with a series
    from a small pool that holds a zero of full valid order, with weights
    +-1 and +-hbar among the row scalars, so that sums cancel and a
    monomial can drop out and come back; a row's power of hbar may lie
    one past either end of the window."""
    ctx = draw(contexts)
    cap = draw(st.integers(0, 3))
    W = draw(st.integers(2, 3))
    nonzero = series(ctx, cap).filter(lambda s: not s.is_zero())
    pool = draw(st.lists(nonzero, min_size=1, max_size=2))
    pool += [draw(series(ctx, cap)), XSeries.zero(ctx, cap)]
    lo, hi = (-2, 2) if ctx.is_numeric else (ctx.lo - 1, ctx.hi + 1)
    e = 1 if hi >= 2 else lo + 1  # hbar, else the low end of the window
    units = st.tuples(st.sampled_from([1, -1]), st.just(1),
                      st.sampled_from([None, e]))
    weights = st.one_of(units, st.tuples(
        st.integers(-6, 6).filter(bool), st.integers(1, 12),
        st.one_of(st.none(), st.integers(lo, hi))))
    # rows hold trimmed keys within the weight cap, as the bases do
    keys = st.tuples(st.sampled_from([(), (1,), (0, 1)]), st.just(()))
    pairs = []
    for _ in range(draw(st.integers(0, 6))):
        terms = draw(st.dictionaries(keys, weights, min_size=1, max_size=3))
        rows = tuple((key, *w) for key, w in terms.items())
        pairs.append((rows, draw(st.sampled_from(pool))))
    return pairs, ctx, W


def assert_linear_combination(case):
    pairs, *shape = case
    got = outcome_text(linear_combination, pairs, *shape)
    want = outcome_text(ref_linear_combination, pairs, *shape)
    assert got[0] == want[0]
    if want[0] == "raise":
        assert got[1] == want[1]
        return
    assert_same_poly(got[1], want[1])


@SETTINGS
@given(combinations())
def test_linear_combination_matches_the_term_by_term_sum(case):
    assert_linear_combination(case)


@SETTINGS
@given(combinations(edge_contexts))
def test_linear_combination_in_edge_windows(case):
    assert_linear_combination(case)


@SETTINGS
@given(combinations(st.just(HContext.numeric(0))))
def test_linear_combination_at_hbar_zero(case):
    """At hbar = 0 a row with a negative power of hbar raises the
    ``HbarValueError`` of forming it, and one with a positive power is a
    zero scalar, which adds nothing, not even a valid order."""
    pairs, *shape = case
    try:
        want = ref_linear_combination(pairs, *shape)
    except HbarValueError as exc:
        with pytest.raises(HbarValueError, match=str(exc)):
            linear_combination(pairs, *shape)
        return
    got = linear_combination(pairs, *shape)
    assert set(got.terms) == set(want.terms)
    for key, c in want.terms.items():
        assert_same_coeff(got.terms[key], c)


def _rational_edge_cases():
    """Row lists whose sum at t_1 has rational coefficients only, though
    some terms carry hbar: the first cancels to a zero of full valid order,
    which the sum drops before the last term brings t_1 back; in the
    second, a zero series of full valid order times hbar is dropped."""
    ctx = WIDE
    a = XSeries(ctx, 1, [Rational(1), Rational(1)])
    t1 = ((1,), ())
    return {
        "cancel-and-restart": [(((t1, 1, 1, 1),), a), (((t1, -1, 1, 1),), a),
                               (((t1, 1, 1, None),), a)],
        "zero-series-term": [(((t1, 1, 1, None),), a),
                             (((t1, 1, 1, 1),), XSeries.zero(ctx, 1))],
    }


@pytest.mark.parametrize("name", sorted(_rational_edge_cases()))
def test_linear_combination_keeps_rational_types(name):
    pairs = _rational_edge_cases()[name]
    got = linear_combination(pairs, WIDE, 1).terms[((1,), ())]
    want = ref_linear_combination(pairs, WIDE, 1).terms[((1,), ())]
    assert_same_coeff(got, want)
    assert not any(isinstance(c, HPoly) for c in got.coeffs)


def test_a_cancelled_monomial_restarts_at_the_end():
    """(t1: hbar, t2: hbar) a, then (t1: -hbar) a cancels t1 to a zero of
    full valid order, which the sum drops; (t1: 1) a brings it back after
    t2, as the TPoly sum appends a monomial it does not hold."""
    a = XSeries(WIDE, 1, [Rational(1), Rational(1)])
    t1, t2 = ((1,), ()), ((0, 1), ())
    pairs = [(((t1, 1, 1, 1), (t2, 1, 1, 1)), a), (((t1, -1, 1, 1),), a),
             (((t1, 1, 1, None),), a)]
    got = linear_combination(pairs, WIDE, 2)
    want = ref_linear_combination(pairs, WIDE, 2)
    assert list(want.terms) == [t2, t1]
    assert_same_poly(got, want)


def test_linear_combination_raises_the_first_window_error():
    """hbar^-2 + hbar^2 times the rows hbar^-1 and hbar leaves [-2, 2] at
    both rows: the first row names the error, and a later pair, whose row
    hbar^-5 lies outside the window, never gets its turn.  After a pair
    that stays inside, forming that row raises."""
    ctx = NARROW
    a = XSeries(ctx, 0, [HPoly(ctx, {-2: Rational(1), 2: Rational(1)})])
    low, high = (((), ()), 1, 1, -1), (((1,), ()), 1, 1, 1)
    later = ((((1,), ()), 1, 1, -5),)
    cases = [((low, high), r"hbar\^-3 "), ((high, low), r"hbar\^3 "),
             (((((), ()), 1, 1, 0),), r"hbar\^-5 ")]
    for first, error in cases:
        for fn in (linear_combination, ref_linear_combination):
            with pytest.raises(HbarWindowError, match=error):
                fn([(first, a), (later, a)], ctx, 1)


# -- reads at t = 0 -------------------------------------------------------------

@st.composite
def polys_and_orders(draw):
    ctx = draw(contexts)
    cap = draw(st.integers(0, 3))
    W = draw(st.integers(1, 4))
    coeff = st.one_of(series(ctx, cap), scalars(ctx)) if draw(st.booleans()) \
        else series(ctx, cap)
    # at least two monomials inside the weight cap, so that most are read
    keys = st.tuples(st.sampled_from([texp_of(lam) for lam in partitions_upto(W)]),
                     st.just(()))
    terms = draw(st.dictionaries(keys, coeff, min_size=2, max_size=8))
    return TPoly(ctx, W, terms=terms), draw(st.integers(1, W))


def x_cap_of(tau) -> int:
    """The x cap of tau's series, 0 if it has scalar coefficients only."""
    return next((c.cap for c in tau.terms.values() if isinstance(c, XSeries)), 0)


def operator_route(tau, K):
    """The data as the operators give them: c_0 = tau at t = 0 and
    c_k = (hbar/k) (deformed d_k) tau at t = 0, the operator applied to
    all of tau."""
    ctx, x_cap = tau.ctx, x_cap_of(tau)
    out = [as_xseries(tau.constant_coeff(), ctx, x_cap)]
    for k in range(1, K + 1):
        v = as_xseries(dh_apply(k, tau).constant_coeff(), ctx, x_cap)
        out.append(v.scale(ctx.hbar_pow(1) * Rational(1, k)))
    return out


@SETTINGS
@given(polys_and_orders())
def test_extraction_matches_the_operator_route(case):
    """Where the operator route returns, the reading returns the same
    values, valid orders and coefficient types; it raises only where the
    route raises.  The constant coefficient is set to 1, so that c_0 is
    invertible."""
    poly, K = case
    tau = TPoly(poly.ctx, poly.weight_cap,
                terms={**poly.terms, ((), ()): Rational(1)})
    got = outcome(lambda: extract_cauchy_like_tau(tau, K, x_cap_of(tau)).c)
    want = outcome(operator_route, tau, K)
    if got[0] == "raise":
        assert got[1] is HbarWindowError
        assert want[0] == "raise"
    if want[0] == "ok":
        assert got[0] == "ok"
        assert len(got[1]) == len(want[1])
        for g, w in zip(got[1], want[1]):
            assert_same_series(g, w)


def test_extraction_reads_tau_at_t_zero_only():
    """tau = 1 + hbar^2 t_1^3 in [-2, 2], K = 2: the operator route's
    d_1^2 scales 6 hbar^2 t_1 by hbar, which leaves the window though
    nothing reaches t = 0; the reading returns c_1 = c_2 = 0, as series
    whose coefficients are all HPoly."""
    tau = TPoly(NARROW, 3, terms={((), ()): Rational(1), ((3,), ()): h(NARROW, 2)})
    with pytest.raises(HbarWindowError, match=r"hbar\^3 "):
        operator_route(tau, 2)
    data = extract_cauchy_like_tau(tau, 2, 0)
    zero = XSeries(NARROW, 0, [NARROW.zero()])
    for k in (1, 2):
        assert_same_series(data.series(k), zero)


def test_extraction_scales_by_hbar_after_summing():
    """tau = 1 + hbar t_1^2 - 2 hbar^2 t_2 in [-2, 2]:
    c_2 = hbar (hbar/1)^2 + (-2 hbar^2)(hbar/2) = hbar^3 - hbar^3 = 0.
    Each term reaches hbar^3, but the operator route forms (deformed d_2)
    tau at t = 0 = 2 hbar^2 - 2 hbar^2 = 0 before scaling it by hbar/2, and
    the reading also sums before scaling by hbar, so neither raises."""
    tau = TPoly(NARROW, 2, terms={((), ()): Rational(1), ((2,), ()): h(NARROW, 1),
                                  ((0, 1), ()): h(NARROW, 2, -2)})
    zero = XSeries(NARROW, 0, [NARROW.zero()])
    assert_same_series(operator_route(tau, 2)[2], zero)
    assert_same_series(extract_cauchy_like_tau(tau, 2, 0).series(2), zero)
