"""The shift ladder: each Miwa shift of a polynomial is formed once for all
the checks on it.

``verify`` keeps the encoded input and its shifts tau^{[z1]},
tau^{[z1,z2]}, ... on the checked polynomial, one ladder per z cap.  A
check run on a polynomial whose ladder earlier checks have filled must
return what it returns on a fresh copy of that polynomial: the same
verdict, the same residual monomials in the same order, with the same
values, valid orders and coefficient types, and the same error.
"""

import gc
import weakref
from random import Random

import pytest

from hbarkp import tpoly, verify
from hbarkp.fbuild import f_series
from hbarkp.hscalar import HContext, HbarWindowError, HPoly
from hbarkp.partitions import Partition
from hbarkp.rational import Rational
from hbarkp.sampling import random_f_data, random_tau_data
from hbarkp.taubuild import TauSeries, tau_series
from hbarkp.tpoly import TPoly
from hbarkp.verify import check_det_m, check_fay, check_hirota3, check_kp2
from hbarkp.xseries import XSeries

NUMERIC = HContext.numeric(Rational(1, 2))
GRANTED = HContext.symbolic(-30, 30)
WIDE = HContext.symbolic(-8, 8)
NARROW = HContext.symbolic(-2, 2)

CHECKS = (
    ("fay", lambda tau, z: check_fay(tau, z)),
    ("hirota3", lambda tau, z: check_hirota3(tau, z)),
    ("det-2", lambda tau, z: check_det_m(tau, 2, z)),
    ("det-3", lambda tau, z: check_det_m(tau, 3, z)),
    ("det-4", lambda tau, z: check_det_m(tau, 4, z)),
)
# the same residuals under no total-degree cap, where the narrow-window
# inputs below leave the window
UNCAPPED = (
    ("fay", lambda tau, z: verify._poly_residual(
        "differential-fay", verify._fay_residual(tau, z, None))),
    ("hirota3", lambda tau, z: verify._poly_residual(
        "hirota-3-term", verify._hirota3_residual(tau, z, None))),
) + tuple(
    (f"det-{m}", lambda tau, z, m=m: verify._poly_residual(
        f"determinant-{m}-point", verify._det_m_residual(tau, m, z, None)))
    for m in (2, 3, 4))


def corrupted(ts: TauSeries) -> TauSeries:
    table = dict(ts.table)
    lam = Partition((1, 1))
    base = table[lam]
    table[lam] = base + XSeries(base.ctx, base.cap, [Rational(1)],
                                valid=base.cap)
    return TauSeries(ts.ctx, ts.weight_cap, ts.x_cap, table)


def table_taus():
    """(name, a function that assembles a fresh tau, z cap, checks)."""
    out = []
    for ctx, name, W in ((NUMERIC, "1/2", 4), (GRANTED, "[-30,30]", 3)):
        ts = tau_series(random_tau_data(Random(7), ctx, W, W))
        for state, table in (("valid", ts), ("corrupted", corrupted(ts))):
            out.append((f"{name}-{state}", table.assemble, W, CHECKS))
    return out


def narrow_taus():
    """Two narrow-window inputs, uncapped, on which a check raises
    ``HbarWindowError``: in [-8, 8] the 3-point residual leaves the
    window, and in [-30, 30] every residual does.  A shared tau must
    raise the errors that fresh copies raise."""
    def laplace():
        return TPoly(WIDE, 3, terms={
            ((), ()): XSeries.one(WIDE, 1),
            ((2,), ()): XSeries(WIDE, 1, [Rational(3)], valid=0),
            ((3,), ()): XSeries(WIDE, 1, [WIDE.hbar_pow(1), Rational(1)])})

    def written():
        return TPoly(GRANTED, 3, terms={((), ()): Rational(1),
                                        ((0, 1), ()): HPoly(GRANTED, {-29: 1})})
    return [("laplace-[-8,8]", laplace, 3, UNCAPPED),
            ("fay-as-written-[-30,30]", written, 3, UNCAPPED)]


def outcome(fn):
    """What a check gives: every field of its ``Residual`` and the terms
    of its residual polynomial in order, each with its value, valid order
    and coefficient types; or the class and message of its error."""
    try:
        res = fn()
    except Exception as exc:  # noqa: BLE001 -- every error is compared
        return ("raise", type(exc), str(exc))
    terms = []
    for key, c in res.poly.terms.items():
        if isinstance(c, XSeries):
            c = (c.valid, [(type(v), v) for v in c.coeffs])
        else:
            c = (type(c), c)
        terms.append((key, c))
    return ("ok", res.identity, res.caps, res.passed, res.worst, res.checked,
            res.nonzero, res.failing, terms)


@pytest.mark.parametrize("order", ["forward", "backward"])
@pytest.mark.parametrize("name, make, Z, checks", table_taus() + narrow_taus(),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_checks_on_one_tau_give_what_fresh_copies_give(name, make, Z, checks,
                                                       order):
    checks = checks if order == "forward" else checks[::-1]
    tau = make()
    shared = [outcome(lambda: check(tau, Z)) for _, check in checks]
    fresh = [outcome(lambda: check(make(), Z)) for _, check in checks]
    assert shared == fresh
    assert len(tau._ladders[Z]) == 5


@pytest.fixture
def counts(monkeypatch):
    """Miwa shifts (``_Resident.substitute`` calls) and encoded inputs
    (``resident`` calls from ``verify``), counted."""
    seen = {"shifts": 0, "embeddings": 0}
    substitute, resident = tpoly._Resident.substitute, verify.resident

    def counted_substitute(self, expand):
        seen["shifts"] += 1
        return substitute(self, expand)

    def counted_resident(poly):
        seen["embeddings"] += 1
        return resident(poly)
    monkeypatch.setattr(tpoly._Resident, "substitute", counted_substitute)
    monkeypatch.setattr(verify, "resident", counted_resident)
    return seen


@pytest.mark.parametrize("ctx", [NUMERIC, GRANTED], ids=["1/2", "formal"])
def test_the_tau_checks_form_each_shift_once(ctx, counts):
    """fay, hirota3 and det-3 on one tau shift three times and encode tau
    once; each check on its own formed its own shifts and its own
    encoding, seven shifts and three encodings in all."""
    tau = tau_series(random_tau_data(Random(7), ctx, 3, 3)).assemble()
    assert check_fay(tau, 3) and check_hirota3(tau, 3)
    assert check_det_m(tau, 3, 3)
    assert counts == {"shifts": 3, "embeddings": 1}


@pytest.mark.parametrize("x_form, shifts", [(False, 2), (True, 3)])
def test_kp2_differentiates_the_shift_in_t_form(x_form, shifts, counts):
    """The t-form takes (d_1 F)^{[z1]} as d_1 (F^{[z1]}); the x-form
    shifts d_x F."""
    F = f_series(random_f_data(Random(7), NUMERIC, 3, 3)).assemble()
    assert check_kp2(F, 3, x_form=x_form)
    assert counts == {"shifts": shifts, "embeddings": 1}


def test_a_shift_out_of_the_window_raises_in_every_later_check(counts):
    """In [-2, 2] the shift of t_1^3 forms hbar^3: the first check that
    needs it raises, and so does every later one, without shifting
    again."""
    def make():
        return TPoly(NARROW, 3, terms={((), ()): Rational(1),
                                       ((3,), ()): Rational(1)})
    tau = make()
    message = "hbar^3 outside window [-2, 2]"
    for _, check in CHECKS:
        assert outcome(lambda: check(tau, 3)) == (
            "raise", HbarWindowError, message)
    assert counts["shifts"] == 1
    for _, check in CHECKS:
        assert outcome(lambda: check(make(), 3)) == (
            "raise", HbarWindowError, message)


def test_an_equal_tau_starts_its_own_ladder(counts):
    ts = tau_series(random_tau_data(Random(7), NUMERIC, 3, 3))
    first, second = ts.assemble(), ts.assemble()
    assert first == second and first is not second
    assert check_fay(first, 3) and check_fay(second, 3)
    assert counts == {"shifts": 4, "embeddings": 2}


def test_a_ladder_lives_as_long_as_its_tau():
    tau = tau_series(random_tau_data(Random(7), NUMERIC, 3, 3)).assemble()
    res = check_det_m(tau, 3, 3)
    rungs = [weakref.ref(rung) for rung in tau._ladders[3]]
    assert len(rungs) == 4
    del tau
    gc.collect()
    assert res.passed and all(rung() is None for rung in rungs)
