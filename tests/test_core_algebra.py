"""Scalars, x-series and time polynomials: exactness, caps, valid orders."""

from fractions import Fraction
from random import Random

import pytest

from hbarkp.hscalar import (
    HContext,
    HPoly,
    HbarValueError,
    HbarWindowError,
    scalar_from_json,
    scalar_to_json,
)
from hbarkp.rational import Rational, format_rational, parse_rational
from hbarkp.sampling import random_rational, random_tpoly, random_xseries
from hbarkp.tpoly import CapError, TPoly
from hbarkp.xseries import OrderExhaustedError, XSeries


# -- rationals ---------------------------------------------------------------

def test_rational_serialization_roundtrip():
    for text in ["3/4", "-7/2", "5", "0", "-1"]:
        assert format_rational(parse_rational(text)) == text
    assert format_rational(Rational(2, 4)) == "1/2"
    assert format_rational(Rational(3, -6)) == "-1/2"


# -- hbar scalars ------------------------------------------------------------

def test_hpoly_window_overflow_raises(sym_ctx):
    h = sym_ctx.hbar()
    top = sym_ctx.hbar_pow(8)
    with pytest.raises(HbarWindowError):
        _ = top * h
    with pytest.raises(HbarWindowError):
        sym_ctx.hbar_pow(9)
    # additions that cancel do not overflow
    assert (top - top).is_zero()


def test_hpoly_numeric_agreement(rng):
    """Symbolic arithmetic evaluated at hbar = r matches numeric mode."""
    sym = HContext.symbolic(-10, 10)
    for r in [Rational(1), Rational(1, 2), Rational(-2, 3), Rational(3)]:
        num = HContext.numeric(r)
        for _ in range(40):
            a = HPoly(sym, {rng.randint(-3, 3): random_rational(rng) for _ in range(3)})
            b = HPoly(sym, {rng.randint(-3, 3): random_rational(rng) for _ in range(3)})
            av, bv = a.eval_at(r), b.eval_at(r)
            assert (a + b).eval_at(r) == av + bv
            assert (a * b).eval_at(r) == av * bv
            assert (a - b).eval_at(r) == av - bv
            assert (-a).eval_at(r) == -av
            k = rng.randint(-2, 2)
            if r != 0 or k >= 0:
                assert (a * sym.hbar_pow(k)).eval_at(r) == av * num.hbar_pow(k)


def test_hbar_zero_division_guard():
    ctx = HContext.numeric(0)
    assert ctx.hbar_pow(0) == 1
    assert ctx.hbar_pow(3) == 0
    with pytest.raises(HbarValueError):
        ctx.hbar_pow(-1)


def _form_reference(ctx, nums, den):
    """sum_e nums[e] hbar^e / den term by term on ``Fraction``: the value at
    a numeric hbar, or the terms of the HPoly in formal hbar; or the class
    and message of the error."""
    try:
        if ctx.is_numeric:
            h, total = Fraction(ctx.value), Fraction(0)
            for e, n in nums.items():
                if e < 0 and h == 0:
                    raise HbarValueError("negative power of hbar at hbar = 0")
                total += Fraction(n, den) * h ** e
            return "ok", total
        terms = {}
        for e, n in nums.items():
            if n:
                if not ctx.lo <= e <= ctx.hi:
                    raise HbarWindowError(
                        f"hbar^{e} outside window [{ctx.lo}, {ctx.hi}]")
                terms[e] = Fraction(n, den)
        return "ok", terms
    except (HbarValueError, HbarWindowError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("ctx", [
    HContext.numeric(Rational(1, 2)), HContext.numeric(Rational(-2, 3)),
    HContext.numeric(3), HContext.numeric(0),
    HContext.symbolic(-8, 8), HContext.symbolic(-2, 2),
    HContext.symbolic(0, 0), HContext.symbolic(0, 3),
    HContext.symbolic(-3, 0), HContext.symbolic(-1, 1),
], ids=["1/2", "-2/3", "3", "0", "[-8,8]", "[-2,2]", "[0,0]", "[0,3]",
        "[-3,0]", "[-1,1]"])
def test_form_matches_a_fraction_reference(ctx):
    """``HContext.form`` against the terms summed one at a time: the same
    value and type, or the same error class and message, on numerators
    by hbar exponent that include zeros, negative exponents and exponents
    past every window, and on no numerators at all."""
    rng = Random(25)
    cases = [({}, 1), ({0: 0}, 3), ({-1: 0}, 2), ({4: 0, -4: 0}, 1)]
    for _ in range(300):
        nums = {rng.randint(-5, 5): rng.randint(-4, 4)
                for _ in range(rng.randint(1, 4))}
        cases.append((nums, rng.randint(1, 12)))
    for nums, den in cases:
        want = _form_reference(ctx, nums, den)
        try:
            got = ctx.form(nums, den)
        except (HbarValueError, HbarWindowError) as exc:
            assert (type(exc), str(exc)) == want, (nums, den)
            continue
        assert want[0] == "ok", (nums, den)
        if ctx.is_numeric:
            assert type(got) is Rational and got == want[1], (nums, den)
        else:
            assert type(got) is HPoly and got.terms == want[1], (nums, den)
            assert all(type(c) is Rational for c in got.terms.values())


def test_scalar_json_roundtrip(sym_ctx, num_ctx):
    s = 3 * sym_ctx.hbar_pow(2) - sym_ctx.scalar(1, 2)
    assert scalar_from_json(sym_ctx, scalar_to_json(s)) == s
    v = num_ctx.scalar(-7, 3)
    assert scalar_from_json(num_ctx, scalar_to_json(v)) == v


def test_scalar_takes_a_backend_rational_as_it_is(sym_ctx, num_ctx):
    """``HContext.scalar`` returns a rational of the backend's type as it
    is in numeric hbar; ints, (num, den) pairs and the other rational type
    (``Fraction`` under gmpy2) go through the constructor.  Either way the
    value and type are those of ``Rational(num, den)``, and formal hbar
    lifts it into an HPoly at hbar^0."""
    r = Rational(-6, 4)
    assert num_ctx.scalar(r) is r
    for args in [(r,), (r, 1), (3,), (-6, 4), (0,), (Fraction(5, 7),),
                 (Rational(3, 5), 2)]:
        want = Rational(*args)
        got = num_ctx.scalar(*args)
        assert got == want and type(got) is Rational, args
        got = sym_ctx.scalar(*args)
        assert type(got) is HPoly and got.terms == ({0: want} if want else {})
        assert all(type(c) is Rational for c in got.terms.values())
    for text in ("3/4", "-2", "0"):
        got = scalar_from_json(num_ctx, text)
        assert got == Rational(text) and type(got) is Rational


# -- x-series ----------------------------------------------------------------

def test_xseries_log_is_alternating_harmonic(num_ctx):
    one_plus_x = XSeries.one(num_ctx, 6) + XSeries.x(num_ctx, 6)
    lg = one_plus_x.log()
    expected = [Rational(0)] + [Rational((-1) ** (n + 1), n) for n in range(1, 7)]
    assert list(lg.coeffs) == expected


def test_xseries_exp_log_inverse_pair(num_ctx, rng):
    assert XSeries.zero(num_ctx, 5).exp() == XSeries.one(num_ctx, 5)
    for _ in range(25):
        s = random_xseries(rng, num_ctx, 5, zero_const=True)
        assert s.exp().log() == s
        u = XSeries.one(num_ctx, 5) + random_xseries(rng, num_ctx, 5, zero_const=True)
        assert u.log().exp() == u


def test_xseries_exp_log_preconditions(num_ctx):
    with pytest.raises(ValueError):
        XSeries.one(num_ctx, 4).exp()
    with pytest.raises(ValueError):
        (XSeries.one(num_ctx, 4) + XSeries.one(num_ctx, 4)).log()
    with pytest.raises(ValueError):
        XSeries.zero(num_ctx, 4).log()


def test_xseries_valid_order_bookkeeping(num_ctx):
    s = XSeries(num_ctx, 4, [Rational(1), Rational(2), Rational(3), Rational(4), Rational(5)])
    d = s.diff()
    assert d.valid == 3
    assert list(d.coeffs) == [Rational(2), Rational(6), Rational(12), Rational(20)]
    with pytest.raises(OrderExhaustedError):
        d.coeff(4)
    dddd = s.diff().diff().diff().diff()
    assert dddd.valid == 0
    with pytest.raises(OrderExhaustedError):
        dddd.diff()
    # arithmetic combines valid orders as a minimum
    assert (d * s).valid == 3
    assert (d + s).valid == 3


def test_xseries_inverse(num_ctx, rng):
    for _ in range(20):
        s = random_xseries(rng, num_ctx, 5, nonzero_const=True)
        assert s * s.inverse() == XSeries.one(num_ctx, 5)
    with pytest.raises(ZeroDivisionError):
        XSeries.zero(num_ctx, 3).inverse()


def test_xseries_ring_axioms(num_ctx, rng):
    for _ in range(15):
        a = random_xseries(rng, num_ctx, 4)
        b = random_xseries(rng, num_ctx, 4)
        c = random_xseries(rng, num_ctx, 4)
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a + b == b + a


# -- time polynomials ----------------------------------------------------------

def test_tpoly_monomial_product(sym_ctx):
    t1 = TPoly.var_t(sym_ctx, 4, 1)
    assert (t1 * t1).coeff((1, 1)) == 1
    t2 = TPoly.var_t(sym_ctx, 4, 2)
    assert (t1 + t2) * TPoly.one(sym_ctx, 4) == t1 + t2


def test_tpoly_grading_truncation(sym_ctx):
    t1 = TPoly.var_t(sym_ctx, 2, 1)
    cube = t1 * t1 * t1  # weight 3 > cap 2
    assert cube.is_zero()
    assert cube.terms == {}


def test_tpoly_weight_cap_errors(sym_ctx):
    with pytest.raises(CapError):
        TPoly.var_t(sym_ctx, 2, 3)


def test_tpoly_ring_axioms(num_ctx, rng):
    for _ in range(12):
        a = random_tpoly(rng, num_ctx, 5)
        b = random_tpoly(rng, num_ctx, 5)
        c = random_tpoly(rng, num_ctx, 5)
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a


def test_tpoly_symbolic_numeric_agreement(rng):
    """Whole-polynomial arithmetic agrees between modes at hbar = r."""
    sym = HContext.symbolic(-10, 10)
    r = Rational(2, 3)
    num = HContext.numeric(r)

    def both(rng_seed):
        g = Random(rng_seed)
        terms_s, terms_n = {}, {}
        for _ in range(4):
            key = ((g.randint(0, 2), g.randint(0, 1)), ())
            e = g.randint(-2, 2)
            c = random_rational(g)
            ts = HPoly(sym, {e: c})
            terms_s[key] = terms_s.get(key, sym.zero()) + ts
            terms_n[key] = terms_n.get(key, num.zero()) + c * num.hbar_pow(e)
        return (TPoly(sym, 5, terms=terms_s), TPoly(num, 5, terms=terms_n))

    a_s, a_n = both(1)
    b_s, b_n = both(2)
    prod_s = a_s * b_s
    prod_n = a_n * b_n
    keys = set(prod_s.terms) | set(prod_n.terms)
    for key in keys:
        cs = prod_s.terms.get(key, sym.zero())
        cn = prod_n.terms.get(key, num.zero())
        val = cs.eval_at(r) if isinstance(cs, HPoly) else Rational(cs)
        assert val == cn


def test_tpoly_diff_and_exp(num_ctx):
    t1 = TPoly.var_t(num_ctx, 4, 1)
    t2 = TPoly.var_t(num_ctx, 4, 2)
    p = t1 * t1 * t2
    assert p.diff_t(1) == t1.scale(Rational(2)) * t2
    assert p.diff_t(2) == t1 * t1
    assert p.diff_t(3).is_zero()
    # exp of weight-graded nilpotent argument terminates
    e = (t1 + t2).exp()
    assert e.coeff(()) == 1
    assert e.coeff((1,)) == 1
    assert e.coeff((1, 1)) == Rational(1, 2)
    assert e.coeff((2,)) == 1
    assert e.coeff((2, 1)) == 1  # t1 t2 from t1*t2 cross term
    with pytest.raises(ValueError):
        TPoly.one(num_ctx, 4).exp()


def test_tpoly_log_exp_roundtrip(num_ctx, rng):
    for _ in range(10):
        p = random_tpoly(rng, num_ctx, 4, n_terms=3)
        p = p - TPoly.constant(num_ctx, 4, p.constant_coeff())  # kill constant
        assert p.exp().log_unit() == p
