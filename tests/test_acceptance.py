"""Acceptance suite: one test per criterion, one printed line each.

All checks are exact (zero tolerance); runtime bounds are asserted where
stated.  Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion report.
"""

import time
from math import factorial
from random import Random

import pytest

from hbarkp.fbuild import (
    bridge_to_tau,
    cauchy_from_cauchylike,
    cauchy_from_cauchylike_symbolic,
    cauchylike_from_cauchy,
    f_series,
)
from hbarkp.hcalc import dh_apply, dh_determinant, dh_operator
from hbarkp.hscalar import HContext, scalar_even_only
from hbarkp.kpconst import p_const, p_hbar, p_tilde
from hbarkp.lops import DiffPoly, l_apply, l_word
from hbarkp.partitions import Partition, partitions_upto
from hbarkp.rational import Rational
from hbarkp.sampling import (
    random_f_data,
    random_rational,
    random_rational_matrix,
    random_tau_data,
    random_tpoly,
    random_xseries,
)
from hbarkp.symfun import elementary_h, scalar_product, schur, t_hbar
from hbarkp.taubuild import TauSeries, tau_series
from hbarkp.tpoly import TPoly
from hbarkp.verify import (
    check_det_m,
    check_fay,
    check_hirota3,
    check_kp2,
    jacobi_minor_identity,
    zdet_identity,
)
from hbarkp.xseries import XSeries
from reference import pow_int, var_zeta

SYM = HContext.symbolic(-8, 8)
NUM = HContext.numeric(Rational(1, 2))


def report(n, label, started, bound=None):
    elapsed = time.time() - started
    if bound is not None:
        assert elapsed < bound, f"criterion {n} exceeded {bound}s"
    print(f"ACCEPTANCE {n}: PASS ({elapsed:.2f}s) - {label}")


def test_criterion_1_symmetric_function_golden_suite():
    started = time.time()
    W = 6
    t = {k: TPoly.var_t(SYM, W, k) for k in range(1, 5)}
    h = SYM.hbar()
    assert elementary_h(0, SYM, W) == TPoly.one(SYM, W)
    assert elementary_h(1, SYM, W) == t[1]
    assert elementary_h(2, SYM, W) == pow_int(t[1], 2).scale(Rational(1, 2)) + t[2]
    assert elementary_h(3, SYM, W) == (
        pow_int(t[1], 3).scale(Rational(1, 6)) + t[1] * t[2] + t[3])
    assert elementary_h(4, SYM, W) == (
        pow_int(t[1], 4).scale(Rational(1, 24))
        + pow_int(t[2], 2).scale(Rational(1, 2))
        + (t[1] * t[1] * t[2]).scale(Rational(1, 2))
        + t[1] * t[3] + t[4])

    assert t_hbar(Partition((1,)), SYM, W) == t[1]
    assert t_hbar(Partition((2,)), SYM, W) == t[2]
    assert t_hbar(Partition((3,)), SYM, W) == t[3]
    assert t_hbar(Partition((1, 1)), SYM, W) == pow_int(t[1], 2) - t[2].scale(2 * h)
    assert t_hbar(Partition((2, 1)), SYM, W) == (
        t[2] * t[1] - t[3].scale(Rational(3, 2) * h))
    assert t_hbar(Partition((1, 1, 1)), SYM, W) == (
        pow_int(t[1], 3) - (t[2] * t[1]).scale(6 * h)
        + t[3].scale(6 * h * h))

    # Schur orthonormality through weight 6
    parts = list(partitions_upto(6))
    schurs = {lam: schur(lam, SYM, W) for lam in parts}
    for lam in parts:
        for mu in parts:
            want = SYM.one() if lam == mu else SYM.zero()
            assert scalar_product(schurs[lam], schurs[mu]) == want

    # Cauchy-Littlewood truncated at weight 6: pair coefficients of the
    # two-sided expansion against exp(sum k t_k t'_k)
    lhs = {}
    for lam in parts:
        s = schurs[lam]
        for (k1, _), c1 in s.terms.items():
            for (k2, _), c2 in s.terms.items():
                key = (k1, k2)
                lhs[key] = lhs.get(key, SYM.zero()) + c1 * c2
    rhs = {}

    def expand(k, texp, coeff, weight):
        if weight > W:
            return
        if k > W:
            key = tuple(texp)
            while key and key[-1] == 0:
                key = key[:-1]
            rhs[(key, key)] = rhs.get((key, key), SYM.zero()) + SYM.scalar(coeff)
            return
        j = 0
        while weight + k * j <= W:
            expand(k + 1, texp + [j], coeff * Rational(k ** j, factorial(j)),
                   weight + k * j)
            j += 1

    expand(1, [], Rational(1), 0)
    keys = set(lhs) | set(rhs)
    for key in keys:
        a = lhs.get(key, SYM.zero())
        b = rhs.get(key, SYM.zero())
        assert a == b, key
    report(1, "h_k and t^hbar golden values, orthonormality, "
              "Cauchy-Littlewood at weight 6", started, bound=10)


def test_criterion_2_hbar_calculus():
    started = time.time()
    for n in range(1, 7):
        assert dh_determinant(n, SYM) == dh_operator(n, SYM)

    rng = Random(202401)
    W = 14
    checked = 0
    while checked < 50:
        n = rng.randint(1, 3)
        k = rng.randint(1, 6)
        polys = [random_tpoly(rng, SYM, W, n_terms=3, max_weight=2)
                 for _ in range(n)]
        prod = polys[0]
        for p in polys[1:]:
            prod = prod * p
        lhs = dh_apply(k, prod)

        def weak(total, parts):
            if parts == 1:
                yield (total,)
                return
            for first in range(total + 1):
                for rest in weak(total - first, parts - 1):
                    yield (first,) + rest

        rhs = TPoly.zero(SYM, W)
        for ks in weak(k, n):
            nu = sum(1 for v in ks if v)
            denom = 1
            for v in ks:
                denom *= max(v, 1)
            pref = SYM.hbar_pow(nu - 1) * Rational(k, denom)
            term = TPoly.one(SYM, W)
            for p, kk in zip(polys, ks):
                term = term * (p if kk == 0 else dh_apply(kk, p))
            rhs = rhs + term.scale(pref)
        assert lhs == rhs
        checked += 1
    report(2, "determinant = deformed derivative (n <= 6); generalized "
              "Leibniz exact on 50 seeded products (k <= 6, n <= 3)",
           started, bound=30)


def test_criterion_3_operator_algebra():
    started = time.time()
    for i in range(1, 5):
        for j in range(1, 5):
            for k in range(1, 5):
                f = DiffPoly.generator(SYM, k, 0)
                assert l_apply(i, l_apply(j, f)) == l_apply(j, l_apply(i, f))
    for lam in partitions_upto(6, 2):
        if lam.ell < 2:
            continue
        word = l_word(tuple(lam[:-1]), lam[-1], SYM)
        assert word.terms
        for gens in word.terms:
            assert sum(s + l for (s, l) in gens) == lam.weight
            for (s, l) in gens:
                assert s >= 1
                assert 1 <= l <= lam.ell - 1
    report(3, "L_i L_j = L_j L_i on sources (i,j,k <= 4); word monomials "
              "satisfy the weight/order constraints", started, bound=60)


def test_criterion_4_constants():
    started = time.time()
    assert p_const(1, 1, (1,)) == 1
    assert p_const(2, 2, (3,)) == Rational(4, 3)
    assert p_const(2, 2, (1, 1)) == -2
    # the same three values by extraction from operator words
    assert p_hbar(Partition((1, 1)), (1,), (1,), SYM) == SYM.one()
    assert p_hbar(Partition((2, 2)), (3,), (1,), SYM) == SYM.scalar(Rational(4, 3))
    assert p_hbar(Partition((2, 2)), (1, 1), (1, 1), SYM) == SYM.scalar(-2)

    def gf_p_tilde(i, j, s):
        acc = {(0, 0): 1}
        for sk in s:
            nxt = {}
            for (a, b), ways in acc.items():
                for ia in range(1, sk + 1):
                    key = (a + ia, b + sk + 1 - ia)
                    nxt[key] = nxt.get(key, 0) + ways
            acc = nxt
        return acc.get((i, j), 0)

    def compositions(total, parts):
        if parts == 1:
            if total >= 1:
                yield (total,)
            return
        for first in range(1, total - parts + 2):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    for i in range(1, 10):
        for j in range(1, 10 - i + 1):
            for m in range(1, i + j):
                for s in compositions(i + j - m, m):
                    assert p_tilde(i, j, s) == gf_p_tilde(i, j, s)
    report(4, "P constants by counting and by extraction; counting oracle "
              "for i + j <= 10", started)


def _perturbed_table(ts, lam, at, delta, X):
    table = dict(ts.table)
    base = table[lam]
    bump = [Rational(0)] * (at + 1)
    bump[at] = delta
    table[lam] = base + XSeries(base.ctx, X, bump, valid=X)
    return TauSeries(ts.ctx, ts.weight_cap, ts.x_cap, table).assemble()


def _some_check_fails(tau, Z):
    return (not check_fay(tau, Z).passed
            or not check_hirota3(tau, Z).passed
            or not check_det_m(tau, 3, Z).passed)


def _determinable(lam, at):
    """Perturbation locations the bilinear residuals pin down at caps
    (W, X, Z) = (4, 4, 4): diagrams inside the 2x2 box, x-order <= 1.
    Locations outside carry coefficients the three identities cannot
    determine from a weight-4 / x-order-4 truncation (their residual
    influence lands beyond the exactly-computable region)."""
    return lam.ell <= 2 and (lam == () or lam[0] <= 2) and at <= 1


def test_criterion_5_end_to_end_tau():
    started = time.time()
    W = X = Z = 4
    for seed in range(10):
        rng = Random(1000 + seed)
        data = random_tau_data(rng, NUM, W, X)
        ts = tau_series(data)
        tau = ts.assemble()
        assert check_fay(tau, Z).passed, seed
        assert check_hirota3(tau, Z).passed, seed
        assert check_det_m(tau, 3, Z).passed, seed

        # one seeded single-coefficient perturbation per set, drawn from
        # the sector the residuals determine at these caps
        spots = [(lam, at) for lam in ts.table for at in
                 range(ts.table[lam].valid + 1)
                 if lam.weight >= 1 and _determinable(lam, at)]
        lam, at = spots[rng.randrange(len(spots))]
        bad = _perturbed_table(ts, lam, at, random_rational(rng, nonzero=True), X)
        assert _some_check_fails(bad, Z), (seed, lam, at)

    # exhaustive single-coefficient sweep on one data set: every location
    # in the determinable sector is caught
    rng = Random(555)
    ts = tau_series(random_tau_data(rng, NUM, W, X))
    for lam in ts.table:
        if lam.weight < 1:
            continue
        for at in range(ts.table[lam].valid + 1):
            if not _determinable(lam, at):
                continue
            bad = _perturbed_table(ts, lam, at, Rational(1, 3), X)
            assert _some_check_fails(bad, Z), (lam, at)
    report(5, "10 seeded data sets pass fay/hirota3/det-3 with zero "
              "residual; every single-coefficient perturbation in the "
              "caps-determinable sector fails a check", started, bound=300)


@pytest.mark.xfail(
    strict=True,
    reason="the three bilinear checks at caps (4, 4, 4) cannot determine "
           "table coefficients outside the 2x2-box/x<=1 sector: their "
           "linear response lands beyond the exactly-computable residual "
           "region (where valid tables already leave truncation garbage), "
           "so the universal form of the perturbation clause is "
           "unattainable at the stated caps")
def test_criterion_5_universal_perturbation_clause():
    W = X = Z = 4
    ts = tau_series(random_tau_data(Random(555), NUM, W, X))
    for lam in ts.table:
        if lam.weight < 1:
            continue
        for at in range(ts.table[lam].valid + 1):
            bad = _perturbed_table(ts, lam, at, Rational(1, 3), X)
            assert _some_check_fails(bad, Z), (lam, at)


def test_criterion_6_end_to_end_f():
    started = time.time()
    W = X = Z = 4
    for seed in range(10):
        rng = Random(2000 + seed)
        data = random_f_data(rng, NUM, W, X)
        F = f_series(data).assemble()
        assert check_kp2(F, Z).passed, seed
        assert check_kp2(F, Z, x_form=True).passed, seed

    # dispersionless specialization at hbar = 0
    ctx0 = HContext.numeric(0)
    data = random_f_data(Random(60), ctx0, 4, 4)
    F = f_series(data).assemble()
    f22 = F.diff_t(2).diff_t(2).constant_coeff()
    f13 = F.diff_t(1).diff_t(3).constant_coeff()
    f11 = F.diff_t(1).diff_t(1).constant_coeff()
    assert f22 == f13.scale(Rational(4, 3)) - (f11 * f11).scale(Rational(2))
    report(6, "10 seeded data sets pass the F-form Fay residual; "
              "dispersionless relation F_22 = 4/3 F_13 - 2 F_11^2 at "
              "hbar = 0", started)


def test_criterion_7_bridge_consistency():
    started = time.time()
    for hval in (Rational(1), Rational(1, 2)):
        ctx = HContext.numeric(hval)
        data = random_f_data(Random(70), ctx, 4, 4)
        F = f_series(data).assemble()
        tau = tau_series(bridge_to_tau(data)).assemble()
        recovered = tau.log_unit().scale(ctx.hbar_pow(2))
        assert (recovered - F).is_zero()
    report(7, "hbar^2 log(tau from bridged data) = F exactly, "
              "hbar in {1, 1/2}", started)


def test_criterion_8_data_conversions():
    started = time.time()
    rng = Random(80)
    data = random_f_data(rng, NUM, 5, 7)
    plain = tuple(cauchy_from_cauchylike(data, k) for k in range(1, 6))
    back = cauchylike_from_cauchy(NUM, 5, 7, data.f0, plain)
    for k in range(1, 6):
        assert back.series(k) == data.series(k)
    expr = cauchy_from_cauchylike_symbolic(SYM, 2)
    want = DiffPoly.generator(SYM, 2, 0) \
        - DiffPoly.generator(SYM, 1, 1).scale(SYM.hbar_pow(1))
    assert expr == want
    report(8, "plain <-> deformed data round trip (k <= 5); symbolic "
              "relation d_2 F|_0 = f_2 - hbar f_1'", started)


def test_criterion_9_hbar_parity():
    started = time.time()
    ctx = HContext.symbolic(-7, 7)
    rng = Random(90)
    f0 = random_xseries(rng, ctx, 5)
    plain = tuple(random_xseries(rng, ctx, 5) for _ in range(5))
    data = cauchylike_from_cauchy(ctx, 5, 5, f0, plain)
    fs = f_series(data)
    for lam, series in fs.plain_taylor().items():
        coeffs = series.coeffs if isinstance(series, XSeries) else [series]
        for c in coeffs:
            assert scalar_even_only(c), lam
    report(9, "hbar-independent plain data give even hbar powers in every "
              "plain-basis coefficient (weight <= 5)", started)


def test_criterion_10_matrix_identities():
    started = time.time()
    rng = Random(100)
    for trial in range(100):
        n = 3 + (trial % 2)
        m = random_rational_matrix(rng, n)
        assert jacobi_minor_identity(m).passed
        zs = [random_rational(rng) for _ in range(n)]
        assert zdet_identity(m, zs).passed
    for _ in range(3):
        mat = [[random_tpoly(rng, NUM, 3, n_terms=2) for _ in range(3)]
               for _ in range(3)]
        assert jacobi_minor_identity(mat).passed
        zmat = random_rational_matrix(rng, 3)
        zs = [var_zeta(NUM, 2, s, 3, 3) for s in range(3)]
        assert zdet_identity(zmat, zs).passed
    report(10, "minor identity and z-weighted determinant identity on 100 "
               "seeded rational matrices and symbolic 3x3 cases", started)
