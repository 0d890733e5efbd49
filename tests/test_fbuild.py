"""F-function series, data conversions, and the bridge to tau."""

from random import Random

import pytest

from hbarkp.fbuild import (
    FData,
    bridge_to_tau,
    cauchy_from_cauchylike,
    cauchy_from_cauchylike_symbolic,
    cauchylike_from_cauchy,
    f_lambda,
    f_series,
    f_series_symbolic,
)
from hbarkp.hscalar import (
    HContext, HbarValueError, HbarWindowError, HPoly, scalar_even_only,
)
from hbarkp.hcalc import dh_apply
from hbarkp.kpconst import p_const
from hbarkp.lops import DiffPoly
from hbarkp.partitions import Partition, partitions_upto
from hbarkp.rational import Rational
from hbarkp.sampling import random_f_data, random_xseries
from hbarkp.taubuild import tau_series
from hbarkp.xseries import Jets, OrderExhaustedError, XSeries

SYM = HContext.symbolic(-9, 9)


def mixed_f_data(rng, ctx, W, X):
    """Random data whose coefficients, in formal mode, mix rationals with
    hbar-monomials r hbar^e, |e| <= 3 within the window, and zero HPolys."""
    data = random_f_data(rng, ctx, W, X)
    if ctx.is_numeric:
        return data
    f = tuple(
        XSeries(ctx, X, [c if rng.random() < 0.5
                         else c * ctx.hbar_pow(
                             rng.randint(max(ctx.lo, -3), min(ctx.hi, 3)))
                         for c in s.coeffs])
        for s in data.f)
    return FData(ctx, W, X, data.f0, f)


def xseries_substitute(poly, data, like):
    """``poly.substitute(Jets(data, like))`` on XSeries values, one
    product at a time, term by term in the order of the polynomial's
    terms."""
    total = XSeries.zero(like.ctx, like.cap)
    for gens, c in poly.terms.items():
        prod = XSeries.constant(like.ctx, like.cap, 1)
        for s, l in gens:
            d = data[s]
            for _ in range(l):
                d = d.diff()
            prod = prod * d
        total = total + prod.scale(c)
    return total


def xseries_f_table(data):
    """``f_series(data).table`` built on XSeries values."""
    return {lam: xseries_substitute(f_lambda(lam, data.ctx),
                                    data.source_map(), data.f0)
            for lam in partitions_upto(data.weight_cap, 1)}


def _typed(series):
    """Valid order, cap and each coefficient with its type."""
    return (series.valid, series.cap,
            [("HPoly", c.ctx, c.terms) if isinstance(c, HPoly) else ("Q", c)
             for c in series.coeffs])


def test_f_lambda_symbolic_examples():
    for k in range(1, 5):
        assert f_lambda(Partition((k,)), SYM) == DiffPoly.generator(SYM, k, 0)
    assert f_lambda(Partition((1, 1)), SYM) == DiffPoly.generator(SYM, 1, 1)
    want = DiffPoly.generator(SYM, 3, 1).scale(Rational(4, 3)) \
        + (DiffPoly.generator(SYM, 1, 1) * DiffPoly.generator(SYM, 1, 1)).scale(Rational(-2))
    assert f_lambda(Partition((2, 2)), SYM) == want


def test_f_lambda_concrete(num_ctx, rng):
    data = random_f_data(rng, num_ctx, 4, 5)

    def concrete(lam):
        return f_lambda(lam, num_ctx).substitute(
            Jets(data.source_map(), data.f0))

    for k in range(1, 5):
        assert concrete(Partition((k,))) == data.series(k)
    assert concrete(Partition((1, 1))) == data.series(1).diff()


def test_f_series_low_weight_structure(num_ctx, rng):
    """Weight 1 contributes f_1 t_1; weight 2 contributes
    f_2 t_2 + (f_1'/2)(t_1^2 - 2 hbar t_2)."""
    data = random_f_data(rng, num_ctx, 3, 5)
    F = f_series(data).assemble()
    h = num_ctx.hbar_pow(1)
    assert F.constant_coeff() == data.f0
    assert F.coeff((1,)) == data.series(1)
    assert F.coeff((1, 1)) == data.series(1).diff().scale(Rational(1, 2))
    assert F.coeff((2,)) == data.series(2) - data.series(1).diff().scale(h)


def test_f_series_deformed_derivatives_recover_coefficients(num_ctx, rng):
    """Applying the deformed d_lam to the assembled series at t = 0
    returns exactly the diagram coefficients (dual-basis property)."""
    data = random_f_data(rng, num_ctx, 4, 6)
    fs = f_series(data)
    F = fs.assemble()
    for lam in partitions_upto(4, 1):
        v = F
        for p in lam:
            v = dh_apply(p, v)
        assert v.constant_coeff() == fs.coefficient(lam)


def test_f_series_uniqueness(num_ctx, rng):
    """Two data sets agreeing on all f_k produce identical coefficients."""
    data = random_f_data(rng, num_ctx, 4, 5)
    clone = FData(num_ctx, 4, 5,
                  XSeries(num_ctx, 5, data.f0.coeffs),
                  tuple(XSeries(num_ctx, 5, s.coeffs) for s in data.f))
    a = f_series(data)
    b = f_series(clone)
    for lam in a.table:
        assert a.table[lam] == b.table[lam]


def test_second_derivative_consistency(num_ctx, rng):
    """The deformed second derivatives of the assembled series satisfy the
    quadratic hierarchy equations: (d_i d_j)^deformed F|_0 equals the sum
    over ordered tuples (s_1..s_m), sum s = i+j-m, of
    P_ij(s) prod_k d_x (deformed d_{s_k} F)|_0."""
    W = 6
    data = random_f_data(rng, num_ctx, W, 7)
    F = f_series(data).assemble()

    ds_at_zero = {}
    for s in range(1, W):
        ds_at_zero[s] = dh_apply(s, F).constant_coeff().diff()

    def compositions(total, parts):
        if parts == 1:
            if total >= 1:
                yield (total,)
            return
        for first in range(1, total - parts + 2):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    for i in range(1, 4):
        for j in range(1, 4):
            if i + j > W:
                continue
            lhs = dh_apply(i, dh_apply(j, F)).constant_coeff()
            rhs = XSeries.zero(num_ctx, data.x_cap)
            for m in range(1, (i + j) // 2 + 1):
                for s in compositions(i + j - m, m):
                    c = p_const(i, j, s)
                    if c == 0:
                        continue
                    prod = XSeries.constant(num_ctx, data.x_cap, c)
                    for sk in s:
                        prod = prod * ds_at_zero[sk]
                    rhs = rhs + prod
            assert lhs == rhs, (i, j)


def test_cauchy_from_cauchylike_first_orders(num_ctx, rng):
    data = random_f_data(rng, num_ctx, 4, 6)
    h = num_ctx.hbar_pow(1)
    assert cauchy_from_cauchylike(data, 1) == data.series(1)
    want2 = data.series(2) - data.series(1).diff().scale(h)
    assert cauchy_from_cauchylike(data, 2) == want2


def test_cauchy_relation_symbolic():
    """d_2 F|_0 = f_2 - hbar f_1' as operators on the data."""
    expr = cauchy_from_cauchylike_symbolic(SYM, 2)
    want = DiffPoly.generator(SYM, 2, 0) \
        - DiffPoly.generator(SYM, 1, 1).scale(SYM.hbar_pow(1))
    assert expr == want


def test_conversion_round_trips(num_ctx, rng):
    """In numeric hbar and in formal hbar, on data that mix rationals with
    hbar-monomials."""
    for ctx in (num_ctx, HContext.symbolic(-14, 14)):
        for trial in range(3):
            data = mixed_f_data(rng, ctx, 5, 7)
            plain = tuple(cauchy_from_cauchylike(data, k) for k in range(1, 6))
            back = cauchylike_from_cauchy(ctx, 5, 7, data.f0, plain)
            for k in range(1, 6):
                assert back.series(k) == data.series(k)
            # and the other way around
            again = tuple(cauchy_from_cauchylike(back, k) for k in range(1, 6))
            for k in range(1, 6):
                assert again[k - 1] == plain[k - 1]


@pytest.mark.parametrize("ctx", [
    HContext.numeric(Rational(1, 2)),
    HContext.numeric(Rational(-2, 3)),
    HContext.numeric(0),
    HContext.symbolic(-14, 14),
], ids=["hbar=1/2", "hbar=-2/3", "hbar=0", "symbolic"])
def test_cauchy_from_cauchylike_is_the_one_row_plain_coefficient(ctx):
    """d_k F|_0 from the deformed data is the t_k coefficient of the
    assembled series, for every k up to the weight cap: the conversion
    weights are the t_k entries of the rows of t^hbar_lam / sigma(lam)."""
    for seed in range(2):
        data = mixed_f_data(Random(seed), ctx, 6, 6)
        plain = f_series(data).plain_taylor()
        for k in range(1, 7):
            assert cauchy_from_cauchylike(data, k) == plain[Partition((k,))], k


def test_conversions_at_hbar_zero_keep_the_valid_orders():
    """At hbar = 0 the weight hbar^(ell-1) of every multi-row diagram is
    zero, and its word is left out: d_k F|_0 is valid as far as the t_k
    coefficient of the assembled series (x^6 at W = X = 6, for every k),
    and the round trip gives back each f_k valid to x^6, the same values."""
    ctx = HContext.numeric(0)
    for seed in range(2):
        data = random_f_data(Random(seed), ctx, 6, 6)
        plain = f_series(data).plain_taylor()
        got = tuple(cauchy_from_cauchylike(data, k) for k in range(1, 7))
        for k, series in enumerate(got, 1):
            want = plain[Partition((k,))]
            assert series.valid == want.valid == 6, k
            assert series == want, k
        back = cauchylike_from_cauchy(ctx, 6, 6, data.f0, got)
        for k in range(1, 7):
            assert back.series(k).valid == data.series(k).valid == 6, k
            assert back.series(k) == data.series(k), k


def test_hbar_parity_for_plain_data(rng):
    """hbar-independent plain data make every plain-basis coefficient an
    even polynomial in hbar (through weight 5)."""
    ctx = HContext.symbolic(-7, 7)
    f0 = random_xseries(rng, ctx, 5)
    plain = tuple(random_xseries(rng, ctx, 5) for _ in range(5))
    data = cauchylike_from_cauchy(ctx, 5, 5, f0, plain)
    fs = f_series(data)
    for lam, series in fs.plain_taylor().items():
        coeffs = series.coeffs if isinstance(series, XSeries) else [series]
        for c in coeffs:
            assert scalar_even_only(c), lam


def test_bridge_trivial(num_ctx):
    zero = XSeries.zero(num_ctx, 4)
    data = FData(num_ctx, 3, 4, zero, (zero, zero, zero))
    td = bridge_to_tau(data)
    assert td.series(0) == XSeries.one(num_ctx, 4)
    for k in range(1, 4):
        assert td.series(k).is_zero()


def test_bridge_first_coefficient(num_ctx, rng):
    data = random_f_data(rng, num_ctx, 4, 5)
    td = bridge_to_tau(data)
    # c_1 / c_0 = f_1 / hbar
    lhs = td.series(1) * td.series(0).inverse()
    assert lhs == data.series(1).scale(num_ctx.hbar_pow(-1))


def test_bridge_log_consistency(rng):
    """hbar^2 log(tau built from the bridged data) equals F, exactly."""
    for hval in (Rational(1), Rational(1, 2)):
        ctx = HContext.numeric(hval)
        data = random_f_data(Random(77), ctx, 4, 4)
        F = f_series(data).assemble()
        td = bridge_to_tau(data)
        tau = tau_series(td).assemble()
        recovered = tau.log_unit().scale(ctx.hbar_pow(2))
        assert (recovered - F).is_zero()


def test_bridge_preconditions(num_ctx, rng):
    data = random_f_data(rng, num_ctx, 3, 4)
    bad = data.replace(f0=data.f0 + XSeries.one(num_ctx, 4))
    with pytest.raises(ValueError):
        bridge_to_tau(bad)
    data = random_f_data(rng, HContext.symbolic(-5, 5), 3, 4)
    with pytest.raises(HbarValueError):
        bridge_to_tau(data)
    data0 = random_f_data(rng, HContext.numeric(0), 3, 4)
    with pytest.raises(HbarValueError):
        bridge_to_tau(data0)


def test_plain_table_round_trip(num_ctx, rng):
    """Diagram coefficients -> plain Taylor table -> diagram coefficients,
    in numeric hbar and in formal hbar."""
    from hbarkp.fbuild import f_series_from_plain_table

    for ctx in (num_ctx, HContext.symbolic(-14, 14)):
        data = mixed_f_data(rng, ctx, 4, 5)
        fs = f_series(data)
        rebuilt = f_series_from_plain_table(ctx, 4, 5, fs.f0, fs.plain_taylor())
        for lam in fs.table:
            assert rebuilt.table[lam] == fs.table[lam], lam


def test_symbolic_series_rendering():
    fs = f_series_symbolic(SYM, 3)
    assert fs.symbolic
    assert fs.coefficient((1, 1)).render() == "1*d(f1)"


@pytest.mark.parametrize("ctx", [
    HContext.numeric(Rational(1, 2)),
    HContext.numeric(Rational(-2, 3)),
    HContext.numeric(0),
    HContext.symbolic(-30, 30),
    HContext.symbolic(-4, 4),
], ids=["hbar=1/2", "hbar=-2/3", "hbar=0", "symbolic", "window=4"])
def test_f_series_matches_the_xseries_words(ctx):
    """Each f_lambda on jet codes equals its operator word evaluated on
    XSeries jets: values, valid orders and coefficient types, or the same
    error.  From weight 6 on, the words hold powers of hbar above 0."""
    for seed, W in ((0, 5), (1, 5), (2, 7)):
        data = mixed_f_data(Random(seed), ctx, W, W)
        got = outcome(lambda: f_series(data).table)
        assert got == outcome(lambda: xseries_f_table(data)), seed
        assert got[0] == "ok" or not ctx.is_numeric, seed


def outcome(build):
    """The typed table a build returns, or the class and message of the
    ``HbarWindowError`` or ``OrderExhaustedError`` it raises."""
    try:
        return "ok", {lam: _typed(s) for lam, s in build().items()}
    except (HbarWindowError, OrderExhaustedError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("window", [(-3, 3), (-4, 2), (-1, 1), (0, 1), (-2, 0)])
def test_window_errors_match_the_xseries_words(window):
    """In narrow formal windows f_series raises exactly when the XSeries
    evaluation raises, with the same message."""
    ctx = HContext.symbolic(*window)
    kinds = set()
    for seed in range(12):
        data = mixed_f_data(Random(seed), ctx, 4 + seed % 3, 4)
        got = outcome(lambda: f_series(data).table)
        assert got == outcome(lambda: xseries_f_table(data)), seed
        kinds.add(got[0])
    assert kinds >= {"ok", "HbarWindowError"}
