"""The immutable records (``record.Record``): construction as the callers
write it, value equality, immutability, the constructor checks, and an
import of the command line that loads no ``dataclasses``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hbarkp
from hbarkp.fbuild import FData, FSeries
from hbarkp.hscalar import HContext
from hbarkp.partitions import Partition
from hbarkp.rational import Rational
from hbarkp.symfun import schur
from hbarkp.taubuild import TauData, TauSeries
from hbarkp.verify import Residual
from hbarkp.xseries import XSeries

CTX = HContext.numeric("1/2")


def _series(*coeffs, ctx=CTX):
    return XSeries(ctx, 2, [Rational(c) for c in coeffs])


def _records():
    """Each of the six records built positionally and by keyword."""
    c0, c1 = _series(1, 2, 3), _series(0, 1)
    table = {Partition((1,)): c1}
    return [
        (HContext("numeric", None, None, Rational(1, 2)),
         HContext("numeric", value=Rational(1, 2))),
        (TauData(CTX, 1, 2, (c0, c1)),
         TauData(ctx=CTX, weight_cap=1, x_cap=2, c=(c0, c1))),
        (TauSeries(CTX, 1, 2, table),
         TauSeries(ctx=CTX, weight_cap=1, x_cap=2, table=table)),
        (FData(CTX, 1, 2, c1, (c0,)),
         FData(ctx=CTX, weight_cap=1, x_cap=2, f0=c1, f=(c0,))),
        (FSeries(CTX, 1, 2, c1, table, symbolic=False),
         FSeries(CTX, 1, 2, f0=c1, table=table, symbolic=False)),
        (Residual("stub", {}, True, None),
         Residual(identity="stub", caps={}, passed=True, worst=None,
                  source=None, checked=0, nonzero=0, failing=())),
    ]


def test_positional_and_keyword_construction_agree():
    for positional, keyword in _records():
        assert positional == keyword
        assert not positional != keyword
        assert type(positional) is type(keyword)
    ctx, data, ts, fdata, fs, res = (p for p, _ in _records())
    assert ctx.mode == "numeric" and ctx.lo is None and ctx.hi is None
    assert ctx == CTX and ctx.is_numeric
    assert data.K == 1 and data.series(1) == _series(0, 1)
    assert ts.coefficient((1,)) == _series(0, 1)
    assert fdata.K == 1 and fdata.f0 == _series(0, 1)
    assert fs.symbolic is False and fs.x_cap == 2
    assert (res.source, res.checked, res.nonzero, res.failing) == (
        None, 0, 0, ())
    assert bool(res) and not Residual("stub", {}, False, "w")


def test_equality_is_by_class_and_fields():
    records = [p for p, _ in _records()]
    for i, a in enumerate(records):
        for j, b in enumerate(records):
            assert (a == b) is (i == j)
    # same fields, different class
    c0 = _series(1, 2, 3)
    assert TauData(CTX, 0, 2, (c0,)) != FData(CTX, 0, 2, c0, ())
    assert HContext("numeric", value=Rational(1, 2)) != HContext(
        "numeric", value=Rational(1, 3))
    assert HContext.symbolic(-3, 3) == HContext("symbolic", lo=-3, hi=3)
    assert HContext.symbolic(-3, 3) != HContext.symbolic(-3, 4)
    assert HContext.symbolic(-3, 3) != "symbolic"


def test_residual_equality_ignores_the_source():
    a = Residual("fay", {"trust": 4}, True, None, object(), 10, 0, ())
    b = Residual("fay", {"trust": 4}, True, None, None, 10, 0, ())
    assert a == b
    assert a != Residual("fay", {"trust": 4}, True, None, None, 11, 0, ())
    assert "source" not in repr(a)
    assert repr(a) == ("Residual(identity='fay', caps={'trust': 4}, "
                       "passed=True, worst=None, checked=10, nonzero=0, "
                       "failing=())")


def test_poly_is_read_once_from_the_source():
    source = Rational(3)
    res = Residual("scalar", {}, False, "3", source)
    assert res.poly is source
    assert vars(res)["poly"] is source


def test_equal_contexts_hash_equal_and_share_cache_entries():
    a = HContext.symbolic(-13, 17)
    b = HContext("symbolic", lo=-13, hi=17)
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b, HContext.numeric(Rational(1, 2)), CTX}) == 2
    assert repr(CTX) == (f"HContext(mode='numeric', lo=None, hi=None, "
                         f"value={Rational(1, 2)!r})")
    lam = Partition((2, 1))
    first = schur(lam, a, 3)
    before = schur.cache_info()
    assert schur(lam, b, 3) is first
    after = schur.cache_info()
    assert after.hits == before.hits + 1
    assert after.currsize == before.currsize


def test_records_with_a_table_are_unhashable():
    _, _, (ts, _), _, (fs, _), (res, _) = _records()
    for record in (ts, fs, res):
        with pytest.raises(TypeError):
            hash(record)


def test_fields_cannot_be_assigned_or_deleted():
    for record, _ in _records():
        name = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1


def test_constructor_checks_keep_their_messages():
    c0, c1 = _series(1, 2, 3), _series(0, 1)
    cases = [
        (lambda: TauData(CTX, 0, 2, ()), ValueError, "need at least c_0"),
        (lambda: TauData(CTX, 0, 2, (Rational(1),)), TypeError,
         "data entries must be XSeries"),
        (lambda: TauData(CTX, 0, 3, (c0,)), ValueError,
         "data series disagree with declared ctx/caps"),
        (lambda: TauData(HContext.numeric(2), 0, 2, (c0,)), ValueError,
         "data series disagree with declared ctx/caps"),
        (lambda: TauData(CTX, 1, 2, (c1, c0)), ValueError,
         "c_0 must have an invertible constant term"),
        (lambda: FData(CTX, 1, 2, c1, (Rational(1),)), TypeError,
         "data entries must be XSeries"),
        (lambda: FData(CTX, 1, 3, c1, (c0,)), ValueError,
         "data series disagree with declared ctx/caps"),
        (lambda: HContext.symbolic(1, 3), ValueError,
         "window must contain exponent 0"),
    ]
    for build, error, message in cases:
        with pytest.raises(error) as info:
            build()
        assert str(info.value) == message


def test_replace_builds_through_the_constructor():
    _, (data, _), (ts, _), _, (fs, _), _ = _records()
    table = {Partition(()): _series(1)}
    assert ts.replace(weight_cap=0, table=table) == TauSeries(CTX, 0, 2, table)
    assert fs.replace(table=table) == FSeries(CTX, 1, 2, fs.f0, table, False)
    assert fs.table is not table and ts.weight_cap == 1
    with pytest.raises(ValueError, match="need at least c_0"):
        data.replace(c=())
    with pytest.raises(TypeError):
        data.replace(colour="red")


def test_the_command_line_loads_no_dataclasses():
    """The records are plain classes, so starting the command line pulls in
    neither ``dataclasses`` nor what it imports (``inspect``, ``ast``,
    ``dis``)."""
    src = str(Path(hbarkp.__file__).resolve().parent.parent)
    code = ("import hbarkp.cli, sys; print(' '.join(sorted(m for m in "
            "('dataclasses', 'inspect', 'ast', 'dis') if m in sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
