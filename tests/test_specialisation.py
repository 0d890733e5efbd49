"""Formal hbar evaluated at a number equals numeric hbar at that number.

Evaluating a Laurent polynomial in hbar at hbar = r != 0 is a ring map, so
each stage of the pipeline run in formal hbar and then evaluated at r gives
what the same stage gives when run with hbar = r: the tau and F tables,
their assemblies, the logarithm of the log bridge (hbar^2 log tau = F) and
the residual of every check, in values and in valid orders.  Evaluation
can hit a root, so a numeric residual may vanish where the formal one does
not: numeric ``failing`` need only lie inside formal ``failing``.

Below the scalars the two runs share no arithmetic: formal hbar runs on
the integer kernel ``xseries._SymbolicInts`` and numeric hbar on
``xseries._NumericInts``.  The formal data mix rationals with hbar
monomials and binomials, so that the formal products, scalings and sums
meet HPoly coefficients on both sides.
"""

from random import Random

import pytest

from hbarkp.fbuild import FData, FSeries, bridge_to_tau, f_series
from hbarkp.hscalar import HContext, HPoly
from hbarkp.partitions import Partition
from hbarkp.rational import Rational
from hbarkp.sampling import random_f_data, random_rational, random_tau_data
from hbarkp.taubuild import TauData, TauSeries, tau_series
from hbarkp.verify import check_det_m, check_fay, check_hirota3, check_kp2
from hbarkp.xseries import XSeries

FORMAL = HContext.symbolic(-30, 30)
VALUES = (Rational(1, 2), Rational(-2, 3), Rational(3))
BUILD_W = 5   # both builds, both assemblies and the logarithm
CHECK_W = 5   # the four checks, at W = X = Z
SEEDS = (3, 8)
BUMPED = Partition((1, 1))


# -- formal data -----------------------------------------------------------------

def _with_hbar(rng, c):
    """c, c hbar^e or c hbar^e + c' hbar^e' (e, e' in [-1, 1])."""
    roll = rng.random()
    if roll < 0.4 or c == 0:
        return c
    terms = {rng.randint(-1, 1): c}
    if roll > 0.8:
        e = rng.randint(-1, 1)
        terms[e] = terms.get(e, 0) + random_rational(rng, nonzero=True)
    return HPoly(FORMAL, terms)


def _mixed(rng, s: XSeries, keep_constant: bool) -> XSeries:
    coeffs = [c if j == 0 and keep_constant else _with_hbar(rng, c)
              for j, c in enumerate(s.coeffs)]
    return XSeries(FORMAL, s.cap, coeffs, valid=s.valid)


def formal_tau_data(seed: int, W: int) -> TauData:
    """``random_tau_data`` with hbar in the coefficients, and with c_0 = 1
    at x = 0, so that tau has a logarithm."""
    data = random_tau_data(Random(seed), FORMAL, W, W)
    rng = Random(seed + 500)
    c0 = data.c[0]
    c0 = XSeries(FORMAL, W, (Rational(1),) + c0.coeffs[1:], valid=c0.valid)
    return TauData(FORMAL, W, W, tuple(_mixed(rng, s, k == 0)
                                       for k, s in enumerate((c0,) + data.c[1:])))


def formal_f_data(seed: int, W: int) -> FData:
    """``random_f_data`` with hbar in the coefficients; f_0 still vanishes
    at x = 0, as the bridge needs."""
    data = random_f_data(Random(seed + 1000), FORMAL, W, W)
    rng = Random(seed + 1500)
    return FData(FORMAL, W, W, _mixed(rng, data.f0, True),
                 tuple(_mixed(rng, s, False) for s in data.f))


# -- evaluation at hbar = r ------------------------------------------------------

def at(value, r: Rational):
    """A formal scalar or x-series evaluated at hbar = r, in the numeric
    context of r; valid orders are kept."""
    if isinstance(value, XSeries):
        return XSeries(HContext.numeric(r), value.cap,
                       [at(c, r) for c in value.coeffs], valid=value.valid)
    if isinstance(value, HPoly):
        return value.eval_at(r)
    return Rational(value)


def at_data(data, r):
    num = HContext.numeric(r)
    if isinstance(data, TauData):
        return TauData(num, data.weight_cap, data.x_cap,
                       tuple(at(s, r) for s in data.c))
    return FData(num, data.weight_cap, data.x_cap, at(data.f0, r),
                 tuple(at(s, r) for s in data.f))


def _is_zero(c) -> bool:
    return c.is_zero() if isinstance(c, XSeries) else c == 0


def assert_same(got, want, where):
    """Equal values, and for x-series equal valid orders."""
    assert isinstance(got, XSeries) == isinstance(want, XSeries), where
    if isinstance(want, XSeries):
        assert (got.cap, got.valid) == (want.cap, want.valid), where
        assert list(got.coeffs) == list(want.coeffs), where
    else:
        assert got == want, where


def assert_specialises(formal: dict, numeric: dict, r, what):
    """``numeric`` is ``formal`` evaluated at r, key by key.  A key that
    only one side holds carries a zero at r on the other: a sum that
    cancels only at r, or a zero that the other side dropped."""
    for key in formal.keys() | numeric.keys():
        where = (what, r, key)
        if key not in numeric:
            assert _is_zero(at(formal[key], r)), where
        elif key not in formal:
            assert _is_zero(numeric[key]), where
        else:
            assert_same(at(formal[key], r), numeric[key], where)


def _checks(tdata: TauData, fdata: FData, bumps) -> dict:
    """The four residuals at W = X = Z of the data's caps, on the tau and F
    tables built from the data; with ``bumps`` (b, c), c_(1,1) and f_(1,1)
    carry b and c more in their constant terms."""
    ts, fs = tau_series(tdata), f_series(fdata)
    if bumps:
        tau_bump, f_bump = bumps
        ts = TauSeries(ts.ctx, ts.weight_cap, ts.x_cap,
                       {**ts.table, BUMPED: ts.table[BUMPED] + tau_bump})
        fs = FSeries(fs.ctx, fs.weight_cap, fs.x_cap, fs.f0,
                     {**fs.table, BUMPED: fs.table[BUMPED] + f_bump},
                     symbolic=False)
    tau, F, Z = ts.assemble(), fs.assemble(), tdata.weight_cap
    return {"fay": check_fay(tau, Z), "hirota3": check_hirota3(tau, Z),
            "det-3": check_det_m(tau, 3, Z), "kp2": check_kp2(F, Z)}


# -- properties ------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_builds_assemblies_and_the_log_bridge_specialise(seed):
    """The tau and F tables, both assemblies and hbar^2 log tau, formal
    then evaluated, against the numeric runs; the numeric bridge of the
    evaluated F data gives back the evaluated formal F."""
    tdata, fdata = formal_tau_data(seed, BUILD_W), formal_f_data(seed, BUILD_W)
    ts, fs = tau_series(tdata), f_series(fdata)
    tau, F = ts.assemble(), fs.assemble()
    log = tau.log_unit().scale(FORMAL.hbar_pow(2))
    for r in VALUES:
        num = HContext.numeric(r)
        ts_r, fs_r = tau_series(at_data(tdata, r)), f_series(at_data(fdata, r))
        assert_specialises(ts.table, ts_r.table, r, "tau table")
        assert_specialises(fs.table, fs_r.table, r, "F table")
        tau_r, F_r = ts_r.assemble(), fs_r.assemble()
        assert_specialises(tau.terms, tau_r.terms, r, "tau")
        assert_specialises(F.terms, F_r.terms, r, "F")
        assert_specialises(log.terms, tau_r.log_unit().scale(num.hbar_pow(2)).terms,
                           r, "hbar^2 log tau")
        bridged = tau_series(bridge_to_tau(at_data(fdata, r))).assemble()
        assert bridged.log_unit().scale(num.hbar_pow(2)) == F_r


@pytest.mark.parametrize("bad", [False, True], ids=["valid", "perturbed"])
@pytest.mark.parametrize("seed", SEEDS)
def test_residuals_specialise(seed, bad):
    """Each numeric residual is the formal one evaluated, and numeric
    ``failing`` lies inside formal ``failing``.  The perturbed tables carry
    1 + hbar/3 more in the constant term of c_(1,1) and 1/3 + hbar more in
    that of f_(1,1), inside the region the checks determine, so that every
    check fails on them."""
    tdata, fdata = formal_tau_data(seed, CHECK_W), formal_f_data(seed, CHECK_W)
    bumps = (HPoly(FORMAL, {0: Rational(1), 1: Rational(1, 3)}),
             HPoly(FORMAL, {0: Rational(1, 3), 1: Rational(1)})) if bad else ()
    formal = _checks(tdata, fdata, bumps)
    assert all(res.passed != bad for res in formal.values())
    for r in VALUES:
        numeric = _checks(at_data(tdata, r), at_data(fdata, r),
                          tuple(at(b, r) for b in bumps))
        for name, res in formal.items():
            res_r = numeric[name]
            assert_specialises(res.poly.terms, res_r.poly.terms, r, name)
            assert set(res_r.failing) <= set(res.failing), (name, r)
            assert res_r.passed != bad, (name, r)
