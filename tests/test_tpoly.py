"""The total-degree cap of TPoly: a capped operation equals the uncapped
one restricted to the cap, key for key and value for value."""

from random import Random

import pytest

from hbarkp.hcalc import miwa_shift
from hbarkp.rational import Rational
from hbarkp.sampling import random_rational, random_xseries
from hbarkp.tpoly import CapError, TPoly, degree_of, weight_of
from hbarkp.xseries import XSeries
from reference import pow_int, var_zeta

X_CAP = 3


def _random_coeff(rng, ctx, kind):
    if kind == "scalar":
        return random_rational(rng, nonzero=True)
    roll = rng.random()
    if roll < 0.2:
        # "zero so far" at a low valid order: kept, and it must keep
        # bounding the valid order of what it meets
        return XSeries(ctx, X_CAP, [], valid=rng.randint(0, X_CAP - 1))
    s = random_xseries(rng, ctx, X_CAP)
    valid = rng.randint(1, X_CAP) if roll < 0.6 else X_CAP
    return XSeries(ctx, X_CAP, s.coeffs, valid=valid)


def _random_terms(rng, ctx, W, Z, nslots, kind, n_terms):
    terms = {}
    for _ in range(n_terms):
        texp = tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 3)))
        if weight_of(texp) > W:
            continue
        zexp = tuple(rng.randint(0, Z) for _ in range(rng.randint(0, nslots)))
        terms[(texp, zexp)] = _random_coeff(rng, ctx, kind)
    return terms


def _assert_same_terms(got: TPoly, want: TPoly):
    assert set(got.terms) == set(want.terms)
    for key, c in want.terms.items():
        g = got.terms[key]
        if isinstance(c, XSeries):
            assert (g.valid, g.coeffs) == (c.valid, c.coeffs), key
        else:
            assert g == c, key


def _cases(num_ctx):
    rng = Random(31337)
    for kind in ("scalar", "xseries"):
        for _ in range(12):
            W = rng.randint(2, 5)
            Z = rng.randint(1, 3)
            nslots = rng.randint(0, 3)
            a = _random_terms(rng, num_ctx, W, Z, nslots, kind, 8)
            b = _random_terms(rng, num_ctx, W, Z, nslots, kind, 8)
            yield W, Z, nslots, a, b


def test_capped_product_is_the_uncapped_product_restricted(num_ctx):
    for W, Z, nslots, a, b in _cases(num_ctx):
        full = TPoly(num_ctx, W, Z, nslots, a) * TPoly(num_ctx, W, Z, nslots, b)
        for cap in range(0, W + nslots * Z + 2):
            pa = TPoly(num_ctx, W, Z, nslots, a, degree_cap=cap)
            pb = TPoly(num_ctx, W, Z, nslots, b, degree_cap=cap)
            prod = pa * pb
            assert prod.degree_cap == cap
            assert all(degree_of(k) <= cap for k in prod.terms)
            _assert_same_terms(prod, full.restrict_weight(cap))


def test_constructor_and_sums_respect_the_cap(num_ctx):
    for W, Z, nslots, a, b in _cases(num_ctx):
        cap = W // 2 + nslots
        pa = TPoly(num_ctx, W, Z, nslots, a, degree_cap=cap)
        pb = TPoly(num_ctx, W, Z, nslots, b, degree_cap=cap)
        _assert_same_terms(pa, TPoly(num_ctx, W, Z, nslots, a).restrict_weight(cap))
        total = TPoly(num_ctx, W, Z, nslots, a) + TPoly(num_ctx, W, Z, nslots, b)
        _assert_same_terms(pa + pb, total.restrict_weight(cap))
        # constants made internally carry the cap too
        assert (pa + 1).degree_cap == cap
        assert pow_int(pa, 2).degree_cap == cap


def test_miwa_shift_respects_the_cap(num_ctx):
    for W, Z, nslots, a, _ in _cases(num_ctx):
        if nslots == 0:
            continue
        for cap in (1, W, W + 1):
            capped = TPoly(num_ctx, W, Z, nslots, a, degree_cap=cap)
            for slot in range(nslots):
                got = miwa_shift(capped, slot)
                assert got.degree_cap == cap
                want = miwa_shift(TPoly(num_ctx, W, Z, nslots, a), slot)
                _assert_same_terms(got, want.restrict_weight(cap))


def test_with_slots_sets_and_respects_the_cap(num_ctx):
    rng = Random(7)
    a = _random_terms(rng, num_ctx, 4, 0, 0, "xseries", 10)
    poly = TPoly(num_ctx, 4, 0, 0, a)
    for cap in (0, 2, 4, None):
        emb = poly.with_slots(3, 2, cap)
        assert (emb.nslots, emb.z_cap, emb.degree_cap) == (3, 2, cap)
        want = poly.terms if cap is None else poly.restrict_weight(cap).terms
        assert set(emb.terms) == set(want)
    zeta = var_zeta(num_ctx, 4, 0, 3, 1, power=3)
    with pytest.raises(CapError):
        zeta.with_slots(1, 2, 5)


def test_mixing_caps_raises(num_ctx):
    unit = {((), ()): Rational(1)}
    one = TPoly(num_ctx, 4, 2, 2, unit)
    capped = TPoly(num_ctx, 4, 2, 2, unit, degree_cap=3)
    other = TPoly(num_ctx, 4, 2, 2, unit, degree_cap=4)
    for x, y in ((one, capped), (capped, other)):
        with pytest.raises(ValueError):
            x + y
        with pytest.raises(ValueError):
            x * y
    assert (capped * capped).degree_cap == 3
    t = TPoly.var_t(num_ctx, 4, 1)
    assert (t * Rational(2)).degree_cap is None


def test_exp_and_log_stop_at_a_zero_constant_kept_for_its_valid_order(num_ctx):
    """A zero x-series constant below the x cap is kept, so the powers of
    the argument never empty; the series still stop, with the right
    values and the constant's valid order."""
    t1 = TPoly.var_t(num_ctx, 3, 1)
    zero = XSeries(num_ctx, X_CAP, [], valid=1)
    e = (TPoly(num_ctx, 3, 0, 0, {((), ()): zero}) + t1).exp()
    want = t1.exp()
    assert set(e.terms) == set(want.terms)
    for key, c in e.terms.items():
        assert c.valid == 1 and c == want.terms[key], key
    unit = XSeries(num_ctx, X_CAP, [Rational(1)], valid=1)
    q = TPoly(num_ctx, 3, 0, 0, {((), ()): unit}) + t1
    back = q.log_unit().exp()
    assert set(q.terms) <= set(back.terms)
    for key, c in back.terms.items():
        assert c == q.terms.get(key, 0), key
