"""Tau coefficients from initial data and back."""

from itertools import permutations
from math import comb
from random import Random

import pytest

from hbarkp.hscalar import HbarWindowError, HContext, HPoly
from hbarkp.linalg import det
from hbarkp.partitions import Partition, partitions_upto
from hbarkp.rational import Rational
from hbarkp.sampling import random_tau_data, random_xseries
from hbarkp.taubuild import (
    TauData,
    c_lambda,
    extract_cauchy_like_tau,
    implied_log_f_derivative,
    tau_series,
)
from hbarkp.verify import check_det_m
from hbarkp.xseries import OrderExhaustedError, XSeries


def oracle_c_lambda(lam, data):
    """Independent evaluation: build each matrix entry from scratch and
    expand the determinant as an explicit signed permutation sum."""
    lam = Partition(lam)
    n = lam.ell
    if n == 0:
        return data.series(0)
    ctx = data.ctx

    def entry(i, j):  # 1-based
        acc = XSeries.zero(ctx, data.x_cap)
        for k in range(j):
            m = lam[i - 1] - i + j - k
            if m < 0:
                continue
            c = data.series(m)
            for _ in range(k):
                c = c.diff()
            acc = acc + c.scale(ctx.hbar_pow(k) * Rational((-1) ** k * comb(j - 1, k)))
        return acc

    total = None
    for perm in permutations(range(1, n + 1)):
        sign = 1
        seen = [False] * n
        for idx in range(n):
            if seen[idx]:
                continue
            jdx, ln = idx, 0
            while not seen[jdx]:
                seen[jdx] = True
                jdx = perm[jdx] - 1
                ln += 1
            if ln % 2 == 0:
                sign = -sign
        prod = XSeries.constant(ctx, data.x_cap, Rational(sign))
        for i in range(1, n + 1):
            prod = prod * entry(i, perm[i - 1])
        total = prod if total is None else total + prod
    inv = data.series(0).inverse()
    for _ in range(n - 1):
        total = total * inv
    return total


@pytest.fixture
def tau_data(num_ctx, rng):
    return random_tau_data(rng, num_ctx, 4, 6)


def test_c_lambda_single_row_is_data(tau_data):
    for k in range(5):
        assert c_lambda(Partition((k,)) if k else Partition(()), tau_data) \
            == tau_data.series(k)


def test_c_lambda_two_rows_hand_expansion(tau_data):
    """(1,1): [c_1(c_1 - h c_0') - c_0(c_2 - h c_1')] / c_0."""
    ctx = tau_data.ctx
    h = ctx.hbar_pow(1)
    c0, c1, c2 = (tau_data.series(k) for k in range(3))
    want = (c1 * (c1 - c0.diff().scale(h)) - c0 * (c2 - c1.diff().scale(h))) \
        * c0.inverse()
    assert c_lambda(Partition((1, 1)), tau_data) == want


def test_c_lambda_matches_brute_force_oracle(tau_data):
    for lam in partitions_upto(4, 1):
        assert c_lambda(lam, tau_data) == oracle_c_lambda(lam, tau_data)


def test_c_lambda_symbolic_mode_windows():
    """In symbolic mode all coefficients stay inside the declared window."""
    ctx = HContext.symbolic(-6, 6)
    data = random_tau_data(Random(5), ctx, 4, 5)
    ts = tau_series(data)
    for lam, series in ts.table.items():
        for c in series.coeffs:
            if isinstance(c, HPoly):
                assert all(ctx.lo <= e <= ctx.hi for e in c.terms)


def test_trivial_data_gives_constant_tau(num_ctx):
    one = XSeries.one(num_ctx, 4)
    zero = XSeries.zero(num_ctx, 4)
    data = TauData(num_ctx, 4, 4, (one, zero, zero, zero, zero))
    ts = tau_series(data)
    tau = ts.assemble()
    assert tau == 1
    for lam in partitions_upto(4, 1):
        assert ts.coefficient(lam).is_zero()


def test_tau_at_zero_times_is_c0(tau_data):
    tau = tau_series(data=tau_data).assemble()
    assert tau.constant_coeff() == tau_data.series(0)


def test_extraction_round_trip(tau_data):
    tau = tau_series(tau_data).assemble()
    back = extract_cauchy_like_tau(tau, 4, tau_data.x_cap)
    for k in range(5):
        assert back.series(k) == tau_data.series(k)


@pytest.mark.parametrize("seed", [3, 11])
def test_extraction_round_trip_in_formal_hbar(seed):
    data = random_tau_data(Random(seed), HContext.symbolic(-30, 30), 4, 4)
    back = extract_cauchy_like_tau(tau_series(data).assemble(), 4, 4)
    for k in range(5):
        assert back.series(k) == data.series(k)


def test_extraction_of_constant_tau(num_ctx):
    from hbarkp.tpoly import TPoly

    tau = TPoly.one(num_ctx, 3)
    back = extract_cauchy_like_tau(tau, 3, 4)
    assert back.series(0) == XSeries.one(num_ctx, 4)
    for k in range(1, 4):
        assert back.series(k).is_zero()


def test_first_coefficient_is_schur_1_slot(tau_data):
    """The coefficient of s_(1)(t/hbar) in tau is c_1: read it off as the
    t_1 coefficient times hbar."""
    tau = tau_series(tau_data).assemble()
    ctx = tau_data.ctx
    got = tau.coeff((1,)) * ctx.hbar_pow(1)
    assert got == tau_data.series(1)


def test_x_translation_consistency(num_ctx, rng):
    """In the x-shift gauge c_1 = hbar c_0', x-evolution matches the
    t_1-evolution: d_x tau = d_1 tau wherever both are determined.

    (d_1 tau at t = 0 is c_1/hbar, so the gauge carries the hbar factor;
    at hbar = 1 it is the plain c_1 = c_0'.)"""
    h = num_ctx.hbar_pow(1)
    c0 = random_xseries(rng, num_ctx, 6, nonzero_const=True)
    c = [c0, c0.diff().scale(h)]
    for _ in range(2):
        c.append(random_xseries(rng, num_ctx, 6))
    data = TauData(num_ctx, 3, 6, tuple(c))
    tau = tau_series(data).assemble()
    dx = tau.map_coeffs(lambda s: s.diff())
    d1 = tau.diff_t(1)
    diff = (dx - d1).restrict_weight(tau.weight_cap - 1)
    assert diff.is_zero()


def test_x_translation_general_gauge(num_ctx, rng):
    """For arbitrary data, (d_x - d_1) log tau depends on x alone:
    (d_x - d_1) tau = phi(x) tau with phi the implied log-f derivative."""
    data = random_tau_data(rng, num_ctx, 3, 6)
    tau = tau_series(data).assemble()
    phi = implied_log_f_derivative(data)
    lhs = tau.map_coeffs(lambda s: s.diff()) - tau.diff_t(1)
    rhs = tau.map_coeffs(lambda s: (s * phi))
    assert (lhs - rhs).restrict_weight(tau.weight_cap - 1).is_zero()


def test_determinant_identity_m2_m3(tau_data):
    tau = tau_series(tau_data).assemble()
    assert check_det_m(tau, 2, z_cap=3).passed
    assert check_det_m(tau, 3, z_cap=3).passed


def test_determinant_identity_m3_at_a_z_order_that_can_fail(tau_data):
    """Below z order 4 the 3-point residual vanishes for any tau."""
    tau = tau_series(tau_data).assemble()
    assert check_det_m(tau, 3, z_cap=4).passed


def _typed(series):
    """Valid order, cap and each coefficient with its type."""
    return (series.valid, series.cap,
            [("HPoly", c.ctx, c.terms) if isinstance(c, HPoly) else ("Q", c)
             for c in series.coeffs])


@pytest.mark.parametrize("ctx, W", [
    (HContext.numeric(Rational(1, 2)), 6),
    (HContext.numeric(Rational(3, 2)), 5),
    (HContext.numeric(Rational(-2, 3)), 5),
    (HContext.symbolic(-8, 8), 5),
], ids=["hbar=1/2", "hbar=3/2", "hbar=-2/3", "symbolic"])
def test_table_wide_sharing_matches_one_diagram_at_a_time(ctx, W):
    """tau_series shares entries, minors and powers of 1/c_0 across the
    table; each c_lambda alone builds its own."""
    data = random_tau_data(Random(W), ctx, W, W)
    table = tau_series(data).table
    for lam in partitions_upto(W):
        assert _typed(table[lam]) == _typed(c_lambda(lam, data))


def mixed_tau_data(rng, ctx, W, X):
    """Random data whose coefficients, in formal mode, mix rationals with
    hbar-monomials r hbar^e, |e| <= 2, and zero HPolys; c_0 starts with a
    unit."""
    data = random_tau_data(rng, ctx, W, X)
    if ctx.is_numeric:
        return data
    series = tuple(
        XSeries(ctx, X, [c if rng.random() < 0.5
                         else c * ctx.hbar_pow(rng.randint(-2, 2))
                         for c in s.coeffs])
        for s in data.c)
    return TauData(ctx, W, X, series)


def xseries_tau_table(data):
    """``tau_series(data).table`` built as it was on XSeries values, one
    product at a time: the same entries, the same memoized ``det`` and the
    same powers of 1/c_0, in the same order."""
    ctx = data.ctx
    entries, minors, pows = {}, {}, []

    def entry(a, j):
        if (a, j) not in entries:
            acc = None
            for k in range(j):
                if a + j - k < 0:
                    continue
                d = data.series(a + j - k)
                for _ in range(k):
                    d = d.diff()
                term = d.scale(Rational(comb(j - 1, k)) * ctx.hbar_pow(k)
                               * Rational((-1) ** k))
                acc = term if acc is None else acc + term
            entries[a, j] = 0 if acc is None else acc
        return entries[a, j]

    table = {}
    for lam in partitions_upto(data.weight_cap):
        n = lam.ell
        if n == 0:
            table[lam] = data.series(0)
            continue
        labels = [lam[i] - i - 1 for i in range(n)]
        d = det([[entry(a, j) for j in range(1, n + 1)] for a in labels],
                labels, minors)
        if n > 1:
            if not pows:
                inv0 = data.series(0).inverse()
                pows.append(XSeries(ctx, data.x_cap, [Rational(1)],
                                    inv0.valid))
            while len(pows) < n:
                pows.append(pows[-1] * inv0)
            d = d * pows[n - 1]
        table[lam] = d
    return table


def _typed_through(a, b):
    """Both series' coefficients with their types, through their common
    valid order."""
    v = min(a.valid, b.valid)
    return _typed(XSeries(a.ctx, a.cap, a.coeffs, v))[2], \
        _typed(XSeries(b.ctx, b.cap, b.coeffs, v))[2]


@pytest.mark.parametrize("ctx", [
    HContext.numeric(Rational(1, 2)),
    HContext.numeric(Rational(-2, 3)),
    HContext.symbolic(-40, 40),
], ids=["hbar=1/2", "hbar=-2/3", "symbolic"])
@pytest.mark.parametrize("seed", range(3))
def test_c_lambda_matches_oracle_in_values_and_types(ctx, seed):
    """The determinant on integer codes against the signed permutation sum
    on XSeries values: the same coefficients with the same types."""
    data = mixed_tau_data(Random(seed), ctx, 4, 4)
    for lam in partitions_upto(4, 1):
        got, want = _typed_through(c_lambda(lam, data),
                                   oracle_c_lambda(lam, data))
        assert got == want, lam


@pytest.mark.parametrize("ctx", [
    HContext.numeric(Rational(1, 2)),
    HContext.numeric(Rational(-2, 3)),
    HContext.symbolic(-40, 40),
], ids=["hbar=1/2", "hbar=-2/3", "symbolic"])
def test_tau_series_matches_the_xseries_build(ctx):
    """Whole tables on codes equal the XSeries build entry by entry: values,
    valid orders and coefficient types."""
    for seed in range(4):
        data = mixed_tau_data(Random(seed), ctx, 5, 5)
        got, want = tau_series(data).table, xseries_tau_table(data)
        assert {lam: _typed(s) for lam, s in got.items()} == \
            {lam: _typed(s) for lam, s in want.items()}, seed


def outcome(build):
    """The typed table a build returns, or the class and message of the
    ``HbarWindowError`` or ``OrderExhaustedError`` it raises."""
    try:
        return "ok", {lam: _typed(s) for lam, s in build().items()}
    except (HbarWindowError, OrderExhaustedError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("window", [(-3, 3), (-4, 2)])
def test_window_errors_match_the_xseries_build(window):
    """In narrow formal windows the build on codes raises exactly when the
    XSeries build raises, with the same message."""
    ctx = HContext.symbolic(*window)
    kinds = set()
    for seed in range(12):
        data = mixed_tau_data(Random(seed), ctx, 2 + seed % 3, 3)
        got = outcome(lambda: tau_series(data).table)
        assert got == outcome(lambda: xseries_tau_table(data)), seed
        kinds.add(got[0])
    assert kinds >= {"ok", "HbarWindowError"}


def test_data_validation(num_ctx):
    zero = XSeries.zero(num_ctx, 4)
    with pytest.raises(ValueError):
        TauData(num_ctx, 4, 4, (zero,))
    one = XSeries.one(num_ctx, 4)
    data = TauData(num_ctx, 2, 4, (one, zero, zero))
    with pytest.raises(ValueError):
        c_lambda(Partition((3,)), data)
    with pytest.raises(ValueError, match="must reach the weight cap"):
        tau_series(TauData(num_ctx, 3, 4, (one, zero, zero)))


def test_implied_log_f_derivative(num_ctx, rng):
    h = num_ctx.hbar_pow(1)
    c0 = random_xseries(rng, num_ctx, 5, nonzero_const=True)
    data = TauData(num_ctx, 1, 5, (c0, c0.diff().scale(h)))
    assert implied_log_f_derivative(data).is_zero()
    shifted = TauData(num_ctx, 1, 5,
                      (c0, (c0.diff() - c0.scale(Rational(2))).scale(h)))
    # c_1/hbar = c_0' - 2 c_0 reports d/dx log f = 2
    assert implied_log_f_derivative(shifted) == XSeries.constant(
        num_ctx, 5, Rational(2))
