"""Residual checks: positives, perturbation negatives, matrix identities."""

from random import Random

import pytest

from hbarkp.fbuild import bridge_to_tau, f_series
from hbarkp.partitions import Partition
from hbarkp.rational import Rational
from hbarkp.sampling import (
    random_f_data,
    random_rational,
    random_rational_matrix,
    random_tau_data,
    random_tpoly,
)
from hbarkp.taubuild import TauSeries, tau_series
from hbarkp.tpoly import CapError, TPoly, degree_of
from hbarkp.verify import (
    _det_m_residual,
    _fay_residual,
    _hirota3_residual,
    _kp2_residual,
    check_det_m,
    check_fay,
    check_hirota3,
    check_kp2,
    jacobi_minor_identity,
    zdet_identity,
)
from hbarkp.xseries import XSeries
from reference import var_zeta


def exp_linear_tau(ctx, W, coeffs):
    """tau = exp(sum b_k t_k): a solution for any rational b_k."""
    arg = TPoly.zero(ctx, W)
    for k, b in enumerate(coeffs, start=1):
        arg = arg + TPoly.var_t(ctx, W, k).scale(b)
    return arg.exp()


def perturbed(ts: TauSeries, lam, delta, at=0):
    table = dict(ts.table)
    lam = Partition(lam)
    base = table[lam]
    bump = [Rational(0)] * (at + 1)
    bump[at] = delta
    table[lam] = base + XSeries(base.ctx, base.cap, bump, valid=base.cap)
    return TauSeries(ts.ctx, ts.weight_cap, ts.x_cap, table)


def test_constant_tau_passes_everything(num_ctx):
    tau = TPoly.one(num_ctx, 4)
    assert check_fay(tau, 4).passed
    assert check_hirota3(tau, 4).passed
    assert check_det_m(tau, 2, 4).passed
    assert check_det_m(tau, 3, 4).passed
    assert check_det_m(tau, 4, 3).passed


def test_exponential_of_linear_times_passes(num_ctx, rng):
    for _ in range(3):
        tau = exp_linear_tau(num_ctx, 4, [random_rational(rng) for _ in range(4)])
        assert check_fay(tau, 4).passed
        assert check_hirota3(tau, 4).passed
        assert check_det_m(tau, 3, 4).passed


def test_built_tau_passes_and_perturbation_fails(num_ctx, rng):
    data = random_tau_data(rng, num_ctx, 4, 4)
    ts = tau_series(data)
    tau = ts.assemble()
    assert check_fay(tau, 4).passed
    assert check_hirota3(tau, 4).passed
    assert check_det_m(tau, 3, 4).passed

    bad = perturbed(ts, (1, 1), Rational(1)).assemble()
    r = check_fay(bad, 4)
    assert not r.passed
    assert r.worst is not None
    assert not check_hirota3(bad, 4).passed
    assert not check_det_m(bad, 3, 4).passed


def test_fay_hirota_equivalence_on_corpus(num_ctx):
    """The two residuals pass or fail together over valid and perturbed
    series."""
    rng = Random(4242)
    corpus = []
    for seed in range(4):
        ts = tau_series(random_tau_data(Random(seed), num_ctx, 4, 4))
        corpus.append(ts.assemble())
        lam = [(1,), (1, 1), (2,), (2, 1)][seed % 4]
        corpus.append(perturbed(ts, lam, random_rational(rng, nonzero=True),
                                at=rng.randint(0, 2)).assemble())
    for tau in corpus:
        a = check_fay(tau, 4).passed
        b = check_hirota3(tau, 4).passed
        c = check_det_m(tau, 2, 4).passed  # the 2-point form is the same identity
        assert a == b == c


def test_symbolic_hbar_end_to_end():
    """The whole pipeline also verifies with formal hbar, provided the
    caller grants a window wide enough for the shifted products (the
    default window is sized for construction, not for multi-slot
    verification)."""
    from hbarkp.hscalar import HContext
    from hbarkp.taubuild import TauSeries

    ctx = HContext.symbolic(-30, 30)
    ts = tau_series(random_tau_data(Random(3), ctx, 4, 4))
    tau = ts.assemble()
    assert check_fay(tau, 4).passed
    assert check_hirota3(tau, 4).passed
    bad = perturbed(ts, (1, 1), Rational(1)).assemble()
    assert not check_fay(bad, 4).passed


def test_fay_requires_invertible_tau(num_ctx):
    t1 = TPoly.var_t(num_ctx, 3, 1)
    with pytest.raises(ValueError):
        check_fay(t1, 3)


def test_kp2_on_built_f_and_perturbation(num_ctx, rng):
    data = random_f_data(rng, num_ctx, 4, 4)
    fs = f_series(data)
    F = fs.assemble()
    assert check_kp2(F, 4).passed
    assert check_kp2(F, 4, x_form=True).passed
    from hbarkp.fbuild import FSeries

    def bump(lam, delta):
        table = dict(fs.table)
        lam = Partition(lam)
        table[lam] = table[lam] + XSeries.constant(num_ctx, 4, delta)
        return FSeries(num_ctx, 4, 4, fs.f0, table, symbolic=False).assemble()

    # a weight-2 corruption is visible to both forms at these caps
    bad = bump((1, 1), Rational(1, 3))
    assert not check_kp2(bad, 4).passed
    assert not check_kp2(bad, 4, x_form=True).passed
    # a weight-3 corruption surfaces at order weight+3 in the t_1-form,
    # beyond these caps; the x-form sees it immediately
    bad = bump((2, 1), Rational(1, 3))
    assert not check_kp2(bad, 4, x_form=True).passed


def test_kp2_and_bridged_hirota_covanish(num_ctx):
    """F-form and tau-form residuals agree through the exp/log bridge."""
    for seed in (11, 12):
        data = random_f_data(Random(seed), num_ctx, 4, 4)
        F = f_series(data).assemble()
        tau = tau_series(bridge_to_tau(data)).assemble()
        assert check_kp2(F, 4).passed
        assert check_hirota3(tau, 4).passed
    # breaking the series breaks both
    data = random_f_data(Random(13), num_ctx, 4, 4)
    fs = f_series(data)
    from hbarkp.fbuild import FSeries

    table = dict(fs.table)
    lam = Partition((1, 1))
    table[lam] = table[lam] + XSeries.constant(num_ctx, 4, Rational(1))
    badF = FSeries(num_ctx, 4, 4, fs.f0, table, symbolic=False)
    assert not check_kp2(badF.assemble(), 4).passed
    td = bridge_to_tau(data)
    ts = tau_series(td)
    bad_tau = perturbed(ts, (1, 1), Rational(1)).assemble()
    assert not check_hirota3(bad_tau, 4).passed


def test_detectability_boundary(num_ctx):
    """At caps (4, 4, 4) the three residuals pin exactly the rows inside
    the 2x2 box at x-orders <= 1; coefficients outside that sector only
    influence the residual beyond its exactly-computable region, where even
    valid tables leave truncation leftovers.  Pin both sides of the line."""
    ts = tau_series(random_tau_data(Random(99), num_ctx, 4, 4))

    def caught(lam, at):
        bad = perturbed(ts, lam, Rational(1), at=at).assemble()
        return (not check_fay(bad, 4).passed
                or not check_hirota3(bad, 4).passed
                or not check_det_m(bad, 3, 4).passed)

    for lam in ((1,), (2,), (1, 1), (2, 1), (2, 2)):
        assert caught(lam, 0), lam
        assert caught(lam, 1), lam
    for lam in ((3,), (4,), (3, 1), (1, 1, 1)):
        assert not caught(lam, 0), lam
    assert not caught((1, 1), 2)


def test_residual_counts_the_scanned_monomials(num_ctx):
    """``checked`` is every monomial of the trusted region the residual
    holds, ``nonzero`` those that do not vanish."""
    ts = tau_series(random_tau_data(Random(5), num_ctx, 4, 4))
    good = check_fay(ts.assemble(), 4)
    assert good.checked == len(good.poly.terms) > 0
    assert good.nonzero == 0
    bad = check_fay(perturbed(ts, (1, 1), Rational(1)).assemble(), 4)
    assert bad.checked == len(bad.poly.terms)
    assert bad.nonzero == sum(not c.is_zero() for c in bad.poly.terms.values())
    assert 0 < bad.nonzero <= bad.checked
    assert jacobi_minor_identity(random_rational_matrix(Random(1), 3)).nonzero == 0


def test_residual_lists_the_failing_monomials(num_ctx):
    """``failing`` holds every nonzero monomial of the residual in sorted
    order, read from the codes with the verdict, and ``worst`` names the
    first; ``poly`` decodes the residual that gave them."""
    ts = tau_series(random_tau_data(Random(5), num_ctx, 4, 4))
    good, bad = ts.assemble(), perturbed(ts, (1, 1), Rational(1)).assemble()
    for check in (lambda t: check_fay(t, 4), lambda t: check_hirota3(t, 4),
                  lambda t: check_det_m(t, 3, 4)):
        assert check(good).failing == ()
        res = check(bad)
        assert res.failing == tuple(sorted(
            k for k, c in res.poly.terms.items() if not c.is_zero()))
        assert res.nonzero == len(res.failing) > 0
        texp, zexp = res.failing[0]
        assert res.worst.startswith(f"t-exps {texp}, zeta-exps {zexp}: ")


def test_residual_reports_caps(num_ctx):
    tau = TPoly.one(num_ctx, 4)
    r = check_fay(tau, 3)
    assert r.caps["weight"] == 4
    assert r.caps["z"] == 3
    assert r.caps["slots"] == 2
    assert r.identity == "differential-fay"


# -- the trusted region: sound and tight ---------------------------------------

def _residual_fns(tau, F, Z):
    """(name, residual as a function of the total-degree cap, trust) per check."""
    W = tau.weight_cap
    return [
        ("fay", lambda cap: _fay_residual(tau, Z, cap), W + 1),
        ("hirota3", lambda cap: _hirota3_residual(tau, Z, cap), W + 2),
        ("det-2", lambda cap: _det_m_residual(tau, 2, Z, cap), W + 1),
        ("det-3", lambda cap: _det_m_residual(tau, 3, Z, cap), W + 3),
        ("kp2", lambda cap: _kp2_residual(F, Z, False, cap), W + 1),
        ("kp2-x", lambda cap: _kp2_residual(F, Z, True, cap), W + 1),
    ]


@pytest.mark.parametrize("seed", [1, 2])
def test_trusted_region_is_sound_and_tight(num_ctx, seed):
    """On valid tables each check's residual built under the cap ``trust``
    is the uncapped residual restricted to ``trust`` (the cap loses
    nothing), it is zero there (sound), and the uncapped residual has a
    nonzero monomial at ``trust + 1`` (so ``trust`` is the largest correct
    choice)."""
    W, Z = 3, 4
    tau = tau_series(random_tau_data(Random(seed), num_ctx, W, W)).assemble()
    F = f_series(random_f_data(Random(seed), num_ctx, W, W)).assemble()
    for name, build, trust in _residual_fns(tau, F, Z):
        full = build(None).decode()
        capped = build(trust).decode()
        want = full.restrict_weight(trust)
        assert set(capped.terms) == set(want.terms), name
        for key, c in want.terms.items():
            got = capped.terms[key]
            assert (got.valid, got.coeffs) == (c.valid, c.coeffs), (name, key)
        assert capped.is_zero(), name
        assert any(degree_of(key) == trust + 1 and not c.is_zero()
                   for key, c in full.terms.items()), name


def test_capped_residual_keeps_the_corruption(num_ctx):
    """On a corrupted tau table the capped residuals of the tau-side checks
    still equal the uncapped ones on the trusted region, nonzero
    coefficients and valid orders alike."""
    ts = tau_series(random_tau_data(Random(5), num_ctx, 4, 4))
    tau = perturbed(ts, (1, 1), Rational(1)).assemble()
    for name, build, trust in _residual_fns(tau, None, 4)[:4]:
        capped = build(trust).decode()
        want = build(None).decode().restrict_weight(trust)
        assert not capped.is_zero(), name
        assert set(capped.terms) == set(want.terms), name
        for key, c in want.terms.items():
            got = capped.terms[key]
            assert (got.valid, got.coeffs) == (c.valid, c.coeffs), (name, key)


@pytest.mark.parametrize("swap", [(0, 1), (1, 2), (0, 2)])
def test_swapping_two_slots_negates_the_det3_residual(num_ctx, sym_ctx, swap):
    """The m-point residual is antisymmetric in the slots: on a corrupted
    tau, where it is nonzero, renaming two slots negates every coefficient,
    valid orders kept."""
    for ctx in (num_ctx, sym_ctx):
        ts = tau_series(random_tau_data(Random(5), ctx, 4, 4))
        tau = perturbed(ts, (1, 1), Rational(1)).assemble()
        res = _det_m_residual(tau, 3, 4, 4 + 3).decode()
        assert not res.is_zero()
        a, b = swap
        swapped = {}
        for (texp, zexp), c in res.terms.items():
            slots = list(zexp) + [0] * (3 - len(zexp))
            slots[a], slots[b] = slots[b], slots[a]
            swapped[(texp, tuple(slots))] = c
        swapped = TPoly(ctx, res.weight_cap, res.z_cap, 3, swapped,
                        degree_cap=res.degree_cap)
        assert set(swapped.terms) == set(res.terms)
        for key, c in res.terms.items():
            got = swapped.terms[key]
            assert (got.valid, got.coeffs) == (c.valid, (-c).coeffs), key


def test_checks_refuse_inputs_with_zeta_monomials(num_ctx):
    """The cap is exact only when d_1 meets complete Miwa shifts, which
    needs an input without zeta-monomials."""
    tau = TPoly.one(num_ctx, 3, 2, 1) + var_zeta(num_ctx, 3, 0, 2, 1)
    for check in (lambda: check_fay(tau, 2), lambda: check_hirota3(tau, 2),
                  lambda: check_det_m(tau, 3, 2), lambda: check_kp2(tau, 2)):
        with pytest.raises(ValueError, match="zeta"):
            check()
    # an input that declares slots but carries no zeta-monomial is accepted
    assert check_fay(TPoly.one(num_ctx, 3, 2, 1), 2).passed


def test_checks_refuse_a_z_cap_that_holds_no_zeta(num_ctx):
    """Every residual carries a zeta prefactor, and zeta^1 exceeds a z cap
    of 0."""
    tau = exp_linear_tau(num_ctx, 3, [Rational(1, 2), Rational(-1, 3)])
    for check in (lambda: check_fay(tau, 0), lambda: check_hirota3(tau, 0),
                  lambda: check_det_m(tau, 3, 0), lambda: check_kp2(tau, 0)):
        with pytest.raises(CapError, match="zeta power exceeds z cap"):
            check()


# -- matrix identities --------------------------------------------------------

def test_jacobi_identity_on_identity_matrix():
    for n in range(3, 6):
        eye = [[Rational(1) if i == j else Rational(0) for j in range(n)]
               for i in range(n)]
        assert jacobi_minor_identity(eye).passed


def test_jacobi_identity_random_rational(rng):
    for n in (3, 4):
        for _ in range(25):
            assert jacobi_minor_identity(random_rational_matrix(rng, n)).passed


def test_jacobi_identity_symbolic(num_ctx, rng):
    for _ in range(3):
        mat = [[random_tpoly(rng, num_ctx, 3, n_terms=2) for _ in range(3)]
               for _ in range(3)]
        assert jacobi_minor_identity(mat).passed


def test_zdet_identity_scalar_and_symbolic(num_ctx, rng):
    # m = 1: z a = z a
    assert zdet_identity([[Rational(5)]], [Rational(7)]).passed
    for n in (2, 3):
        for _ in range(10):
            mat = random_rational_matrix(rng, n)
            zs = [random_rational(rng) for _ in range(n)]
            assert zdet_identity(mat, zs).passed
    # symbolic weights: one slot variable per z
    n = 3
    mat = random_rational_matrix(rng, n)
    zs = [var_zeta(num_ctx, 2, s, 3, n) for s in range(n)]
    assert zdet_identity(mat, zs).passed
    # singular matrix: both sides vanish
    singular = [[Rational(1), Rational(2)], [Rational(2), Rational(4)]]
    assert zdet_identity(singular, [Rational(1), Rational(9)]).passed
