"""The shared sparse ring: ``DiffOperator`` and ``DiffPoly`` obey the
commutative ring laws with numeric and formal-hbar coefficients, the
constructor sums monomials that sort alike, and the renderings of
``DiffOperator``, ``DiffPoly`` and ``TPoly`` are pinned."""

from hypothesis import given, settings
from hypothesis import strategies as st

from hbarkp.hcalc import DiffOperator, dh_operator
from hbarkp.hscalar import HContext, HPoly, scalar_is_zero
from hbarkp.lops import DiffPoly
from hbarkp.rational import Rational
from hbarkp.tpoly import TPoly
from hbarkp.verify import _render_coeff
from hbarkp.xseries import XSeries

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)
NUMERIC = HContext.numeric(Rational(2, 3))
SYMBOLIC = HContext.symbolic(-8, 8)

# Symbols of each ring: derivative orders k of d_k, generators (s, l).
SYMBOLS = {
    DiffOperator: st.integers(1, 3),
    DiffPoly: st.tuples(st.integers(1, 3), st.integers(0, 2)),
}

rationals = st.builds(Rational, st.integers(-3, 3), st.integers(1, 4))


def scalars(ctx):
    if ctx.is_numeric:
        return rationals
    # Three factors of exponents in [-1, 1] stay inside the window.
    return st.dictionaries(st.integers(-1, 1), rationals, max_size=3).map(
        lambda terms: HPoly(ctx, terms))


@st.composite
def ring_case(draw):
    """(ring class, context, three polynomials given as unsorted pairs, a
    scalar); the pairs may repeat a monomial in different orders."""
    cls = draw(st.sampled_from(sorted(SYMBOLS, key=lambda c: c.__name__)))
    ctx = draw(st.sampled_from([NUMERIC, SYMBOLIC]))
    monomials = st.lists(SYMBOLS[cls], max_size=3).map(tuple)
    pairs = st.lists(st.tuples(monomials, scalars(ctx)), max_size=4)
    return cls, ctx, [draw(pairs) for _ in range(3)], draw(scalars(ctx))


def canonical(terms: dict) -> bool:
    return all(tuple(sorted(k)) == k and not scalar_is_zero(c)
               for k, c in terms.items())


@SETTINGS
@given(ring_case())
def test_ring_laws(case):
    cls, ctx, pair_lists, s = case
    a, b, c = (cls(ctx, pairs) for pairs in pair_lists)
    # The constructor is the sum of the single terms.
    for poly, pairs in zip((a, b, c), pair_lists):
        total = cls.zero(ctx)
        for key, coeff in pairs:
            total = total + cls(ctx, {key: coeff})
        assert poly.terms == total.terms
    laws = [
        (a + b, b + a),
        ((a + b) + c, a + (b + c)),
        (a * b, b * a),
        ((a * b) * c, a * (b * c)),
        (a * (b + c), a * b + a * c),
        (a - a, cls.zero(ctx)),
        (a - b, a + (-b)),
        (a.scale(s), a * cls.constant(ctx, s)),
        (a + 0, a),
        (0 + a, a),
        (a * cls.constant(ctx, Rational(1)), a),
    ]
    for lhs, rhs in laws:
        assert type(lhs) is cls
        assert canonical(lhs.terms)
        assert lhs.terms == rhs.terms
        assert lhs == rhs


def test_mixed_rings_do_not_add():
    d = DiffOperator.single(NUMERIC, 1)
    f = DiffPoly.generator(NUMERIC, 1)
    assert d.__add__(f) is NotImplemented
    assert d.__eq__(f) is NotImplemented


def test_diff_operator_render():
    assert dh_operator(3, HContext.symbolic(-4, 4)).render() == (
        "1*d3 + 3/2*hbar*d1*d2 + 1/2*hbar^2*d1^3")
    assert dh_operator(3, HContext.numeric(Rational(1, 2))).render() == (
        "1*d3 + 3/4*d1*d2 + 1/8*d1^3")
    ctx = HContext.symbolic(-4, 4)
    op = DiffOperator(ctx, {
        (): HPoly(ctx, {0: 1, -1: Rational(-2, 3)}),
        (2, 1, 1): Rational(-3, 4),
        (3,): HPoly(ctx, {2: -1}),
    })
    assert op.render() == "(-2/3*hbar^-1 + 1) + -1*hbar^2*d3 + -3/4*d1^2*d2"
    assert repr(op) == f"DiffOperator({op.render()})"
    assert DiffOperator.zero(ctx).render() == "0"


def test_diff_poly_render_with_hbar_coefficients():
    ctx = HContext.symbolic(-4, 4)
    poly = DiffPoly(ctx, {
        ((2, 0), (1, 3)): HPoly(ctx, {1: 1, 0: -1}),
        ((1, 1), (1, 1)): HPoly(ctx, {-2: Rational(5, 2)}),
        (): Rational(-1, 2),
    })
    assert poly.render() == (
        "-1/2 + 5/2*hbar^-2*d(f1)^2 + (-1 + hbar)*d^3(f1)*f2")


def test_tpoly_render():
    ctx = HContext.symbolic(-4, 4)
    poly = TPoly(ctx, 4, 2, 2, {
        ((1,), (0, 2)): HPoly(ctx, {0: 1, 1: Rational(-1, 2)}),
        ((0, 2), ()): Rational(-7, 3),
        ((), (1,)): HPoly(ctx, {-1: 3}),
        ((), ()): HPoly(ctx, {0: -1}),
    })
    assert poly.render() == (
        "-1 + 3*hbar^-1*zeta1 + (1 - 1/2*hbar)*t1*zeta2^2 + -7/3*t2^2")
    num = HContext.numeric(Rational(1, 2))
    series = TPoly(num, 3, 0, 0, {
        ((1,), ()): XSeries(num, 2, [Rational(1, 2), Rational(-1), Rational(0)]),
        ((), ()): XSeries(num, 2, [Rational(-2), Rational(0), Rational(3)]),
        ((0, 1), ()): Rational(-5),
    })
    assert series.render() == "[-2, 0, 3] + [1/2, -1, 0]*t1 + -5*t2"
    assert TPoly.zero(num, 3).render() == "0"


def test_tpoly_render_of_formal_hbar_series_matches_the_verdict_text():
    ctx = HContext.symbolic(-4, 4)
    series = XSeries(ctx, 2, [HPoly(ctx, {0: Rational(-1, 2), 1: 1}),
                              Rational(-1), HPoly(ctx, {-1: 3})])
    poly = TPoly(ctx, 3, 0, 0, {((1,), ()): series, ((), ()): Rational(2)})
    assert poly.render() == "2 + [-1/2 + hbar, -1, 3*hbar^-1]*t1"
    assert _render_coeff(series) == "[-1/2 + hbar, -1, 3*hbar^-1]"
    assert series.render() == _render_coeff(series)
