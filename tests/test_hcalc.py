"""Deformed derivatives, their determinant representation, Miwa shifts."""

from itertools import product
from random import Random

import pytest

from hbarkp.hcalc import (
    DiffOperator,
    _miwa_rows,
    delta_apply,
    dh_apply,
    dh_determinant,
    dh_operator,
    miwa_shift,
)
from hbarkp.hscalar import HContext
from hbarkp.partitions import Partition
from hbarkp.rational import Rational
from hbarkp.sampling import random_tau_data, random_tpoly
from hbarkp.taubuild import TauSeries, tau_series
from hbarkp.tpoly import TPoly, _packing, resident
from hbarkp.verify import _swap
from hbarkp.xseries import XSeries
from reference import pow_int, ref_miwa_shift, ref_schur_over_hbar, var_zeta

CTX = HContext.symbolic(-10, 10)
H = CTX.hbar()


def test_dh_operator_golden():
    d1 = DiffOperator.single(CTX, 1)
    d2 = DiffOperator.single(CTX, 2)
    d3 = DiffOperator.single(CTX, 3)
    assert dh_operator(0, CTX) == DiffOperator.identity(CTX)
    assert dh_operator(1, CTX) == d1
    assert dh_operator(2, CTX) == d2 + (d1 * d1).scale(H)
    assert dh_operator(3, CTX) == (
        d3 + (d1 * d2).scale(Rational(3, 2) * H)
        + (d1 * d1 * d1).scale(Rational(1, 2) * H * H))


def test_dh_operator_is_scaled_h_of_derivatives():
    """(hbar/k) * deformed d_k equals h_k evaluated on hbar*dtilde, checked
    through the action on polynomials."""
    from hbarkp.symfun import elementary_h

    W = 5
    for k in range(1, 6):
        hk = elementary_h(k, CTX, W)
        # interpret each monomial t_1^{a_1} t_2^{a_2}... as the operator
        # prod (hbar d_j / j)^{a_j}
        op = DiffOperator(CTX, {(): CTX.zero()})
        for (texp, _), c in hk.terms.items():
            term = DiffOperator.identity(CTX)
            for j1, a in enumerate(texp):
                j = j1 + 1
                for _ in range(a):
                    term = term * DiffOperator.single(CTX, j).scale(
                        H * Rational(1, j))
            op = op + term.scale(c)
        want = op.scale(CTX.hbar_pow(-1) * Rational(k))
        assert dh_operator(k, CTX) == want


def test_dh_determinant_matches_operator():
    for n in range(1, 7):
        assert dh_determinant(n, CTX) == dh_operator(n, CTX)


def test_apply_examples():
    W = 4
    t1 = TPoly.var_t(CTX, W, 1)
    t2 = TPoly.var_t(CTX, W, 2)
    one = TPoly.one(CTX, W)
    assert dh_apply(2, t2) == one
    assert dh_apply(2, t1 * t1) == one.scale(2 * H)
    assert dh_apply(1, one).is_zero()


def test_generalized_leibniz_rule(rng):
    """Deformed d_k of a product expands over weak compositions with the
    hbar^{nu-1} k / prod(max(k_a,1)) weights; exact equality on honest
    polynomials (caps big enough that nothing truncates)."""
    W = 14
    for trial in range(12):
        n = rng.randint(1, 3)
        k = rng.randint(1, 6)
        polys = [random_tpoly(rng, CTX, W, n_terms=3, max_weight=2)
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

        rhs = TPoly.zero(CTX, W)
        for ks in weak(k, n):
            nu = sum(1 for v in ks if v)
            denom = 1
            for v in ks:
                denom *= max(v, 1)
            pref = CTX.hbar_pow(nu - 1) * Rational(k, denom)
            term = TPoly.one(CTX, W)
            for p, kk in zip(polys, ks):
                term = term * (p if kk == 0 else dh_apply(kk, p))
            rhs = rhs + term.scale(pref)
        assert lhs == rhs


def test_miwa_shift_examples():
    W, Z, m = 4, 4, 1
    t1 = TPoly.var_t(CTX, W, 1, Z, m)
    t2 = TPoly.var_t(CTX, W, 2, Z, m)
    z = var_zeta(CTX, W, 0, Z, m)
    one = TPoly.one(CTX, W, Z, m)
    assert miwa_shift(t1, 0) == t1 + z.scale(H)
    assert miwa_shift(one, 0) == one
    assert miwa_shift(t2, 0) == t2 + pow_int(z, 2).scale(Rational(1, 2) * H)
    assert ref_miwa_shift(t1, 0, -1) == t1 - z.scale(H)
    # the shift is inverted by the opposite shift
    p = t1 * t2 + t2
    assert ref_miwa_shift(miwa_shift(p, 0), 0, -1) == p


def test_miwa_shifts_commute(rng):
    W, Z, m = 4, 3, 2
    for _ in range(6):
        p = random_tpoly(rng, CTX, W, n_terms=4).with_slots(m, Z)
        a = miwa_shift(miwa_shift(p, 0), 1)
        b = miwa_shift(miwa_shift(p, 1), 0)
        assert a == b


def test_miwa_zeta_coefficients_are_deformed_derivatives(rng):
    """The zeta^k coefficient of the shifted polynomial is
    (hbar/k) * (deformed d_k), i.e. h_k(hbar dtilde)."""
    W, Z, m = 6, 6, 1
    for _ in range(6):
        p = random_tpoly(rng, CTX, W, n_terms=4, max_weight=3).with_slots(m, Z)
        sh = miwa_shift(p, 0)
        for k in range(1, Z + 1):
            got = sh.zeta_coefficient(0, k)
            want = dh_apply(k, p).scale(CTX.hbar_pow(1) * Rational(1, k))
            assert got == want


def test_delta_is_deformed_derivative_series(rng):
    """(shift - 1)/hbar agrees with sum_k zeta^k (deformed d_k)/k."""
    W, Z, m = 5, 5, 1
    for _ in range(5):
        p = random_tpoly(rng, CTX, W, n_terms=4, max_weight=3).with_slots(m, Z)
        got = delta_apply(p, 0)
        want = TPoly.zero(CTX, W, Z, m)
        zeta = var_zeta(CTX, W, 0, Z, m)
        for k in range(1, Z + 1):
            want = want + pow_int(zeta, k) * dh_apply(k, p).scale(Rational(1, k))
        assert got == want


def test_numeric_agreement(rng):
    r = Rational(1, 3)
    num = HContext.numeric(r)
    for k in range(1, 6):
        sym_op = dh_operator(k, CTX)
        num_op = dh_operator(k, num)
        assert set(sym_op.terms) == set(num_op.terms)
        for key, c in sym_op.terms.items():
            assert c.eval_at(r) == num_op.terms[key]


def test_dispersionless_limit_is_plain_derivative():
    ctx0 = HContext.numeric(0)
    for k in range(1, 7):
        assert dh_operator(k, ctx0) == DiffOperator.single(ctx0, k)


def test_dh_apply_keeps_the_total_degree_cap(rng):
    """A capped operand gives the uncapped result restricted to the cap, and
    keeps its cap; the first case used to raise on mixed shapes."""
    num = HContext.numeric(Rational(1, 2))
    t1_squared = {((2,), ()): 1}
    capped = dh_apply(2, TPoly(num, 3, terms=t1_squared, degree_cap=3))
    plain = dh_apply(2, TPoly(num, 3, terms=t1_squared)).restrict_weight(3)
    assert capped.degree_cap == 3
    assert capped.terms == plain.terms == {((), ()): 1}
    W = 5
    for ctx in (CTX, num):
        for cap in range(W + 1):
            for k in range(1, W + 1):
                p = random_tpoly(rng, ctx, W, n_terms=4, max_weight=cap)
                got = dh_apply(k, p.with_slots(0, 0, degree_cap=cap))
                assert got.degree_cap == cap
                assert got.terms == dh_apply(k, p).restrict_weight(cap).terms


def test_diff_operator_sums_colliding_monomials():
    """Keys that sort to one monomial are summed, as in ``DiffPoly``."""
    op = DiffOperator(CTX, {(1, 2): 1, (2, 1): 1})
    assert op.terms == {(1, 2): 2}
    assert DiffOperator(CTX, {(1, 2): 1, (2, 1): -1}).is_zero()


def _strips(lam):
    """The mu with lam/mu a horizontal strip: lam_{i+1} <= mu_i <= lam_i."""
    below = list(lam[1:]) + [0]
    for mu in product(*(range(b, a + 1) for a, b in zip(lam, below))):
        yield Partition(m for m in mu if m)


def _branching_shift(table, ctx, W, Z, nslots):
    """tau^{[z_1, ..., z_n]} by the branching rule, slot after slot:
    s_lam(t/hbar + [zeta]) = sum_{lam/mu a horizontal strip}
    s_mu(t/hbar) zeta^{|lam/mu|}, each slot truncated at the z cap."""
    # (mu, zeta exponents) -> the sum of the c_lam that reach it
    sums = {(lam, ()): c for lam, c in table.items()}
    for _ in range(nslots):
        nxt = {}
        for (lam, zexp), c in sums.items():
            for mu in _strips(lam):
                j = lam.weight - mu.weight
                if j <= Z:
                    key = (mu, zexp + (j,))
                    nxt[key] = nxt[key] + c if key in nxt else c
        sums = nxt
    out = TPoly.zero(ctx, W, Z, nslots)
    for (mu, zexp), c in sums.items():
        term = ref_schur_over_hbar(mu, ctx, W).with_slots(nslots, Z)
        for slot, j in enumerate(zexp):
            if j:
                term = term * var_zeta(ctx, W, slot, Z, nslots, power=j)
        out = out + term.scale(c)
    return out


@pytest.mark.parametrize("ctx", [HContext.numeric("2/3"),
                                 HContext.symbolic(-30, 30)],
                         ids=["numeric", "formal"])
@pytest.mark.parametrize("nslots", [1, 2])
def test_miwa_shift_of_tau_is_the_branching_rule(ctx, nslots):
    """hcalc.miwa_shift of an assembled tau, slot after slot, against the
    Schur branching rule on its c_lam table: the same monomials, values
    and valid orders.  The table is cut to one valid order v < X, which
    every coefficient must keep; with mixed orders each side reports the
    least order of the c_lam it sums, and the two sides sum different
    sets of them."""
    rng = Random(11 + nslots)
    for W in (3, 5):
        v = rng.randint(1, W - 1)
        table = {lam: XSeries(ctx, W, c.coeffs, valid=v) for lam, c in
                 tau_series(random_tau_data(rng, ctx, W, W)).table.items()}
        got = TauSeries(ctx, W, W, table).assemble().with_slots(nslots, W)
        for slot in range(nslots):
            got = miwa_shift(got, slot)
        want = _branching_shift(table, ctx, W, W, nslots)
        assert got.terms.keys() == want.terms.keys()
        for key, c in want.terms.items():
            assert got.terms[key] == c, key
            assert got.terms[key].valid == c.valid == v, key


def _typed(c):
    """Valid order and each coefficient with its type."""
    return (c.valid, [(type(x).__name__, getattr(x, "terms", x)) for x in c.coeffs])


@pytest.mark.parametrize("ctx", [HContext.numeric("2/3"),
                                 HContext.symbolic(-30, 30)],
                         ids=["numeric", "formal"])
def test_a_shift_in_slot_s_is_the_relabelled_shift_in_slot_0(ctx):
    """The checks shift a zeta-free tau in slot 0 only and rename the slots
    (``_Resident.relabelled``) for every other slot.  Against the shift in
    slot s itself, in 2 and 3 slots, with and without the total-degree cap
    the checks use: the same monomials, values, valid orders and types."""
    W = Z = 4
    tau = tau_series(random_tau_data(Random(5), ctx, W, W)).assemble()
    for nslots in (2, 3):
        for cap in (None, W):
            T = resident(tau.with_slots(nslots, Z, cap))
            first = miwa_shift(T, 0)
            for s in range(1, nslots):
                got = miwa_shift(T, s).decode()
                want = first.relabelled(_swap(nslots, s)).decode()
                assert got.terms.keys() == want.terms.keys()
                for key, c in want.terms.items():
                    assert _typed(got.terms[key]) == _typed(c), key


def test_miwa_rows_do_not_depend_on_the_number_of_slots():
    """One monomial shifted in a polynomial of slot + 1, slot + 2 and 3
    slots gives the rows of ``_miwa_rows`` on the ints of that packing, in
    their order, key for key and value for value, and those rows decode
    to the same keys and factors in every number of slots."""
    ctx = HContext.numeric("2/3")
    W, Z = 5, 3
    keys = [((), ()), ((2,), ()), ((1, 1), (2,)), ((0, 0, 1), (0, 1)),
            ((1, 2), (1, 0, 2))]
    for key in keys:
        for slot in range(3):
            decoded = set()
            for nslots in range(max(slot + 1, len(key[1])), 4):
                pack = _packing(W, Z, nslots)
                rows, _ = _miwa_rows(pack, pack.pack(key), slot)
                rows = tuple((pack.key(p), n, d, j) for p, n, d, j in rows)
                decoded.add(rows)
                want = {k: Rational(n, d) * ctx.hbar_pow(j or 0)
                        for k, n, d, j in rows}
                got = miwa_shift(TPoly(ctx, W, Z, nslots, {key: Rational(1)}),
                                 slot)
                assert list(got.terms) == list(want), (key, slot, nslots)
                assert got.terms == want
            assert len(decoded) == 1, (key, slot)