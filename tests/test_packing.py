"""Packed monomial keys (``tpoly._Packing``): resident polynomials are keyed
by ints from ``tpoly.resident`` to the verdict.

Every monomial within a packing's caps maps to an int and back, the ints
carry the weight and the total degree, and a sum of two ints is the
product monomial exactly when it stays within the caps.  The operations
that rewrite the ints (``relabelled``, ``diff_t``, ``times_zeta`` and the
Miwa rows) agree with the same operations on (texp, zexp) tuples.  The
checks decode no key on the way to a passing verdict, and on a failing one
only the keys of ``Residual.failing``.
"""

from itertools import product, zip_longest
from math import comb, gcd
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbarkp.fbuild import f_series
from hbarkp.hcalc import _miwa_rows
from hbarkp.hscalar import HContext
from hbarkp.partitions import Partition, partitions_upto
from hbarkp.rational import Rational
from hbarkp.sampling import random_f_data, random_tau_data
from hbarkp.taubuild import tau_series
from hbarkp.tpoly import (
    TPoly, _Packing, _packing, _trim, resident, texp_of, weight_of,
)
from hbarkp.verify import check_det_m, check_fay, check_hirota3, check_kp2
from hbarkp.xseries import XSeries
from reference import polys, ref_tpoly_mul, shapes

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)
# numeric and formal hbar, 1 to 3 slots, with and without a degree cap
slot_shapes = shapes(slots=(1, 3), contexts=st.sampled_from(
    [HContext.numeric(Rational(2, 3)), HContext.numeric(0),
     HContext.symbolic(-8, 8), HContext.symbolic(-2, 2)]))


def keys_within(W, Z, nslots, D):
    """Every monomial key within the caps, trimmed as TPoly stores it."""
    for lam in partitions_upto(W):
        for zexp in product(range(Z + 1), repeat=nslots):
            if D is None or lam.weight + sum(zexp) <= D:
                yield texp_of(lam), _trim(zexp)


def _add(key1, key2) -> tuple:
    """The key of the product of two monomials."""
    return tuple(_trim(map(sum, zip_longest(x, y, fillvalue=0)))
                 for x, y in zip(key1, key2))


@SETTINGS
@given(st.integers(0, 6), st.integers(1, 4), st.integers(1, 3), st.data())
def test_every_monomial_within_the_caps_packs_and_reads_back(W, Z, nslots, data):
    D = data.draw(st.one_of(st.none(), st.integers(W, W + nslots * Z)))
    pack = _Packing(W, Z, nslots)
    keys = list(keys_within(W, Z, nslots, D))
    ints = [pack.pack(key) for key in keys]
    assert len(set(ints)) == len(keys)
    for key, p in zip(keys, ints):
        texp, zexp = key
        assert pack.key(p) == key
        assert (p >> pack.wshift) & pack.mask == weight_of(texp)
        assert p >> pack.dshift == weight_of(texp) + sum(zexp)
    # a sum of two ints is the product monomial, and sets a guard bit
    # exactly when that monomial leaves the weight or the z cap
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(range(len(keys))),
                                         st.sampled_from(range(len(keys)))),
                               min_size=1, max_size=40))
    for i, j in pairs:
        p, key = ints[i] + ints[j], _add(keys[i], keys[j])
        over = weight_of(key[0]) > W or any(d > Z for d in key[1])
        assert bool((p + pack.offset) & pack.guard) == over, (keys[i], keys[j])
        if not over:
            assert pack.key(p) == key
            assert p == pack.pack(key)


def ref_miwa_rows(key, slot, Z):
    """The Miwa rows of one tuple key: (key, num, den, j) in the order of
    the expansion, as ``hcalc._miwa_rows`` gives them on ints."""
    texp, zexp = key
    base_z = zexp[slot] if slot < len(zexp) else 0
    states = [(texp, 0, 1, 1, 0)]
    for pos, a in enumerate(texp):
        if a == 0:
            continue
        k = pos + 1
        new_states = []
        for exps, zd, num, den, j0 in states:
            for j in range(0, a + 1):
                if base_z + zd + k * j > Z:
                    break
                if j == 0:
                    new_states.append((exps, zd, num, den, j0))
                    continue
                e2 = list(exps)
                e2[pos] = a - j
                new_states.append((tuple(e2), zd + k * j,
                                   num * comb(a, j),
                                   den * k ** j, j0 + j))
        states = new_states
    rows = []
    for exps, zd, num, den, j in states:
        nz = list(zexp) + [0] * (slot + 1 - len(zexp))
        nz[slot] += zd
        g = gcd(num, den)
        rows.append(((_trim(exps), _trim(nz)), num // g, den // g,
                     j or None))
    return rows


@SETTINGS
@given(st.data())
def test_int_operations_match_the_tuple_operations(data):
    ctx, cap, W, Z, nslots, D = shape = data.draw(slot_shapes)
    p = data.draw(polys(shape))
    r = resident(p)
    pack = r.pack
    assert pack is _packing(W, Z, nslots)
    assert list(r.terms) == [pack.pack(key) for key in p.terms]

    def same(got, want: TPoly):
        """``got`` on ints, each the packed key it decodes to (its weight
        and degree fields included), is ``want`` on tuples."""
        assert all(pack.pack(pack.key(q)) == q for q in got.terms)
        got = got.decode()
        assert list(got.terms) == list(want.terms)
        assert got.terms == want.terms

    perm = tuple(data.draw(st.permutations(range(nslots))))
    renamed = {}
    for (texp, zexp), c in p.terms.items():
        slots = [0] * nslots
        for s, d in enumerate(zexp):
            slots[perm[s]] = d
        renamed[(texp, _trim(slots))] = c
    same(r.relabelled(perm),
         TPoly(ctx, W, Z, nslots, renamed, degree_cap=D))

    k = data.draw(st.integers(1, W + 1))
    same(r.diff_t(k), p.diff_t(k))

    prefactor = data.draw(st.dictionaries(
        st.lists(st.integers(0, Z + 1), max_size=nslots).map(_trim),
        st.integers(-3, 3).filter(bool), min_size=1, max_size=3))
    zeta = TPoly(ctx, W, Z, nslots,
                 {((), e): Rational(c) for e, c in prefactor.items()},
                 degree_cap=D)
    same(r.times_zeta(prefactor), ref_tpoly_mul(zeta, p))

    slot = data.draw(st.integers(0, nslots - 1))
    for key in p.terms:
        rows, top = _miwa_rows(pack, pack.pack(key), slot)
        want = ref_miwa_rows(key, slot, Z)
        assert [(pack.key(q), *rest) for q, *rest in rows] == want
        assert all(pack.pack(pack.key(q)) == q for q, *_ in rows)
        assert top == max(j or 0 for *_, j in want)


# -- the checks decode only what the verdict names ----------------------------

W = 4
CHECKS = {
    "fay": lambda tau, F: check_fay(tau, W),
    "hirota3": lambda tau, F: check_hirota3(tau, W),
    "det-3": lambda tau, F: check_det_m(tau, 3, W),
    "kp2": lambda tau, F: check_kp2(F, W),
}


def _tables(ctx, bad: bool):
    ts = tau_series(random_tau_data(Random(5), ctx, W, W))
    fs = f_series(random_f_data(Random(5), ctx, W, W))
    if bad:
        lam = Partition((1, 1))
        ts = ts.replace(table={**ts.table, lam: ts.table[lam]
                               + XSeries.one(ctx, ts.x_cap)})
        fs = fs.replace(table={**fs.table, lam: fs.table[lam]
                               + XSeries.constant(ctx, fs.x_cap,
                                                  Rational(1, 3))})
    return ts.assemble(), fs.assemble()


@pytest.mark.parametrize("ctx", [HContext.numeric(Rational(1, 2)),
                                 HContext.symbolic(-30, 30)],
                         ids=["numeric", "formal"])
def test_a_passing_check_decodes_no_key(ctx, monkeypatch):
    tau, F = _tables(ctx, bad=False)

    def refuse(self, p):
        raise AssertionError("a key was decoded")
    monkeypatch.setattr(_Packing, "key", refuse)
    for name, check in CHECKS.items():
        res = check(tau, F)
        assert res.passed and res.failing == (), name


@pytest.mark.parametrize("ctx", [HContext.numeric(Rational(1, 2)),
                                 HContext.symbolic(-30, 30)],
                         ids=["numeric", "formal"])
def test_a_failing_check_decodes_only_its_failing_keys(ctx, monkeypatch):
    tau, F = _tables(ctx, bad=True)
    decode = _Packing.key
    decoded = []

    def record(self, p):
        decoded.append(p)
        return decode(self, p)
    monkeypatch.setattr(_Packing, "key", record)
    for name, check in CHECKS.items():
        decoded.clear()
        res = check(tau, F)
        assert not res.passed, name
        pack = res.source.pack
        assert sorted(decode(pack, p) for p in decoded) == list(res.failing)
        assert len(decoded) == res.nonzero == len(res.failing), name
