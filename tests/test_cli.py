"""Command line behavior: outputs, exit codes, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from random import Random
from types import SimpleNamespace

import pytest

import hbarkp
from hbarkp import dataio, fbuild, kpconst, symfun, verify
from hbarkp.cli import (
    APPENDIX_MAX_MATRICES, DETM_MAX_POINTS, FSERIES_MAX_WEIGHT,
    PCONST_MAX_BOUND, _least_z_order, build_parser, main,
)
from hbarkp.fbuild import FSeries
from hbarkp.hscalar import HContext
from hbarkp.partitions import Partition, partitions_upto
from hbarkp.rational import Rational
from hbarkp.sampling import random_f_data, random_tau_data, random_xseries
from hbarkp.taubuild import TauSeries
from hbarkp.tpoly import TPoly
from hbarkp.verify import check_det_m, check_fay, check_hirota3, check_kp2
from hbarkp.xseries import XSeries


@pytest.fixture
def tau_file(tmp_path, num_ctx):
    data = random_tau_data(Random(2), num_ctx, 4, 4)
    path = tmp_path / "tau_data.json"
    dataio.dump(dataio.tau_data_to_document(data, 4), path)
    return str(path)


@pytest.fixture
def f_file(tmp_path, num_ctx):
    data = random_f_data(Random(3), num_ctx, 4, 4)
    path = tmp_path / "f_data.json"
    dataio.dump(dataio.f_data_to_document(data, 4), path)
    return str(path)


def read(path):
    with open(path) as fh:
        return json.load(fh)


def test_schur_table_contains_golden_value(tmp_path, capsys):
    out = tmp_path / "schur.json"
    assert main(["schur", "--weight", "3", "--output", str(out)]) == 0
    doc = read(out)
    entry = doc["table"]["2,1"]
    assert entry == {"0,0,1": "-1", "3": "1/3"}
    assert doc["pretty"]["2,1"] == "-1*t3 + 1/3*t1^3"


def test_transition_output(tmp_path):
    out = tmp_path / "trans.json"
    assert main(["transition", "--weight", "2", "--output", str(out)]) == 0
    doc = read(out)
    assert doc["L"]["1,1"] == {"2": "1", "1,1": "2"}
    assert doc["L_inverse"]["1,1"] == {"2": "-1/2", "1,1": "1/2"}


def test_transition_refuses_weights_above_its_limit(tmp_path, monkeypatch,
                                                    capsys):
    """Weight 14 reaches the matrices (a stub here: the real ones take
    about 0.4 s) and weight 15 exits 2 before building anything."""
    real = symfun.transition_L
    built = []

    def stub(n):
        built.append(n)
        return real(1)

    monkeypatch.setattr(symfun, "transition_L", stub)
    out = tmp_path / "trans.json"
    assert main(["transition", "--weight", "14", "--output", str(out)]) == 0
    assert built == [14]
    assert read(out)["weight"] == 14
    capsys.readouterr()
    assert main(["transition", "--weight", "15"]) == 2
    assert built == [14]
    err = capsys.readouterr().err
    assert "--weight <= 14" in err
    assert err.count("\n") == 1


def test_verify_detm_refuses_points_above_its_limit(tmp_path, tau_file,
                                                    monkeypatch, capsys):
    """--points 6 reaches the check (a stub here: the real one takes
    seconds) and --points 7 exits 2 before loading the table."""
    table = tmp_path / "tau_table.json"
    assert main(["tau", "--input", tau_file, "--output", str(table),
                 "--z-order", "7"]) == 0
    called = []

    def stub(poly, m, z_cap):
        called.append(m)
        return check_det_m(poly, 2, 4)

    monkeypatch.setattr(verify, "check_det_m", stub)
    argv = ["verify", "detm", "--input", str(table), "--z-order", "7",
            "--output", str(tmp_path / "detm.json")]
    assert main(argv + ["--points", str(DETM_MAX_POINTS)]) == 0
    assert called == [6]
    capsys.readouterr()
    assert main(argv + ["--points", "7"]) == 2
    assert called == [6]
    err = capsys.readouterr().err
    assert "--points <= 6" in err
    assert err.count("\n") == 1


def test_schur_refuses_weights_above_its_limit(tmp_path, monkeypatch, capsys):
    """Weight 16 reaches the basis (a stub here: the real one takes
    seconds); weight 17, and a negative weight, exit 2 before building
    anything."""
    built = []

    def stub(lam, ctx, weight_cap):
        built.append(weight_cap)
        return TPoly.one(ctx, weight_cap)

    monkeypatch.setattr(symfun, "schur", stub)
    out = tmp_path / "schur.json"
    assert main(["schur", "--weight", "16", "--output", str(out)]) == 0
    assert built == [16] * len(list(partitions_upto(16)))
    capsys.readouterr()
    for weight in ("17", str(10 ** 6), "-1"):
        assert main(["schur", "--weight", weight]) == 2
        err = capsys.readouterr().err
        assert "0 <= --weight <= 16" in err
        assert err.count("\n") == 1
    assert len(built) == len(list(partitions_upto(16)))


def test_symbolic_fseries_weight_limit(monkeypatch, capsys):
    """Symbolic fseries accepts 0..14 and exits 2 outside that, before it
    builds anything."""
    built = []

    def stub(ctx, weight_cap):
        built.append(weight_cap)
        return FSeries(ctx, weight_cap, 0, None, {}, symbolic=True)

    monkeypatch.setattr(fbuild, "f_series_symbolic", stub)
    assert FSERIES_MAX_WEIGHT == 14
    assert main(["fseries", "--mode", "symbolic", "--weight", "14"]) == 0
    capsys.readouterr()
    for weight in ("15", str(10 ** 6), "-1"):
        assert main(["fseries", "--mode", "symbolic", "--weight", weight]) == 2
        err = capsys.readouterr().err
        assert "0 <= --weight <= 14" in err
        assert err.count("\n") == 1
    assert built == [14]


@pytest.mark.parametrize("weight, lo, hi, message", [
    ("8", "0", "1", "hbar^2 outside window [0, 1]"),
    ("10", "-2", "2", "hbar^3 outside window [-2, 2]"),
    ("14", "0", "2", "hbar^3 outside window [0, 2]"),
], ids=["weight-8", "weight-10", "weight-14"])
def test_symbolic_fseries_past_its_window(capsys, weight, lo, hi, message):
    """A word that reaches past the window exits 2, naming the power of
    hbar that building it one operator at a time first forms outside it,
    hbar^(hi + 1)."""
    assert main(["fseries", "--mode", "symbolic", "--weight", weight,
                 "--window", lo, hi]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_x_order_limit(tmp_path, capsys):
    """A document's caps.x_order is at most dataio.X_ORDER_MAX = 128; above
    that every command that reads it exits 2 before building a series."""
    assert dataio.X_ORDER_MAX == 128
    path, out = tmp_path / "in.json", tmp_path / "out.json"
    tables = [
        (["tau"], {"c": {str(k): ["1", "1/2"] for k in range(3)}}),
        (["fseries"], {"f": {str(k): ["0", "1/2"] for k in range(3)}}),
        (["bridge"], {"f": {str(k): ["0", "1/2"] for k in range(3)}}),
        (["verify", "fay"], {"c_lambda": {lam.serialize(): ["1"]
                                          for lam in partitions_upto(2)}}),
    ]
    for x_order in (128, 129, 10 ** 9):
        for argv, table in tables:
            dataio.dump({"hbar": {"mode": "rational", "value": "1/2"},
                         "caps": {"weight": 2, "x_order": x_order},
                         **table}, path)
            got = main(argv + ["--input", str(path), "--output", str(out)])
            err = capsys.readouterr().err
            if x_order > 128:
                assert got == 2, argv
                assert err == f"error: caps.x_order {x_order} is above 128\n"
            else:
                assert got in (0, 1), (argv, err)


def test_pconst_output(tmp_path):
    out = tmp_path / "p.json"
    assert main(["pconst", "--bound", "2", "--output", str(out)]) == 0
    doc = read(out)
    assert doc["P"]["2,2"]["3"] == "4/3"
    assert doc["P"]["2,2"]["1,1"] == "-2"


def test_pconst_refuses_bounds_outside_its_limits(monkeypatch, capsys):
    """Bounds 0 and 12 reach the table (a stub here: the real one takes
    seconds at 12); 13, 10^6 and a negative bound, which used to write an
    empty table, exit 2 before building anything."""
    real = kpconst.p_table
    built = []

    def stub(bound):
        built.append(bound)
        return real(min(bound, 2))

    monkeypatch.setattr(kpconst, "p_table", stub)
    assert PCONST_MAX_BOUND == 12
    for bound in ("0", "12"):
        assert main(["pconst", "--bound", bound]) == 0
    capsys.readouterr()
    for bound in ("13", str(10 ** 6), "-1"):
        assert main(["pconst", "--bound", bound]) == 2
        err = capsys.readouterr().err
        assert "0 <= --bound <= 12" in err
        assert err.count("\n") == 1
    assert built == [0, 12]


def test_verify_appendix_refuses_matrices_above_its_limit(monkeypatch,
                                                          capsys):
    """--matrices 5000 reaches the identities (stubs here: the real ones
    take about 5 s) and 5001 exits 2 before drawing a matrix."""
    calls = []

    def stub(*args):
        calls.append(1)
        return verify.Residual("stub", {}, True, None)

    monkeypatch.setattr(verify, "jacobi_minor_identity", stub)
    monkeypatch.setattr(verify, "zdet_identity", stub)
    assert APPENDIX_MAX_MATRICES == 5000
    assert main(["verify", "appendix", "--matrices", "5000"]) == 0
    assert len(calls) == 2 * 5000
    capsys.readouterr()
    for matrices in ("5001", str(10 ** 6)):
        assert main(["verify", "appendix", "--matrices", matrices]) == 2
        err = capsys.readouterr().err
        assert "--matrices <= 5000" in err
        assert err.count("\n") == 1
    assert len(calls) == 2 * 5000


def test_tau_then_verify_chain(tmp_path, tau_file):
    table = tmp_path / "tau_table.json"
    assert main(["tau", "--input", tau_file, "--output", str(table),
                 "--z-order", "4"]) == 0
    for check in ("fay", "hirota3"):
        assert main(["verify", check, "--input", str(table),
                     "--output", str(tmp_path / f"{check}.json")]) == 0
    assert main(["verify", "detm", "--points", "3", "--input", str(table),
                 "--output", str(tmp_path / "detm.json")]) == 0
    assert read(tmp_path / "fay.json")["pass"] is True


def test_verify_fails_on_corrupted_table(tmp_path, tau_file):
    table = tmp_path / "tau_table.json"
    main(["tau", "--input", tau_file, "--output", str(table)])
    doc = read(table)
    doc["c_lambda"]["1,1"][0] = "99"
    dataio.dump(doc, table)
    assert main(["verify", "fay", "--input", str(table),
                 "--output", str(tmp_path / "r.json")]) == 1
    assert read(tmp_path / "r.json")["pass"] is False
    assert read(tmp_path / "r.json")["worst_monomial"]


def test_fseries_and_kp2(tmp_path, f_file):
    table = tmp_path / "f_table.json"
    assert main(["fseries", "--input", f_file, "--output", str(table)]) == 0
    assert main(["verify", "kp2", "--input", str(table),
                 "--output", str(tmp_path / "r.json")]) == 0


def test_kp2_at_a_smaller_x_order_terminates(tmp_path, f_file):
    """Clamping the x order leaves a zero constant in Delta Delta F that is
    kept for its valid order; exp must still stop."""
    table = tmp_path / "f_table.json"
    assert main(["fseries", "--input", f_file, "--output", str(table)]) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "hbarkp.cli", "verify", "kp2", "--input",
         str(table), "--x-order", "2", "--z-order", "3"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(
            Path(hbarkp.__file__).resolve().parent.parent)))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["pass"] is True


def test_fseries_symbolic(tmp_path):
    out = tmp_path / "sym.json"
    assert main(["fseries", "--mode", "symbolic", "--weight", "3",
                 "--output", str(out)]) == 0
    doc = read(out)
    assert doc["mode"] == "symbolic"
    assert doc["f_lambda"]["1,1"] == "1*d(f1)"


def test_fseries_plain_basis_reverifies(tmp_path, f_file):
    out = tmp_path / "plain.json"
    assert main(["fseries", "--input", f_file, "--basis", "t_plain",
                 "--output", str(out)]) == 0
    assert read(out)["basis"] == "t_plain"
    # the plain-basis table still carries the full solution: verify reads
    # it alone (inverting the triangular basis change internally)
    assert main(["verify", "kp2", "--input", str(out),
                 "--output", str(tmp_path / "r.json")]) == 0
    assert read(tmp_path / "r.json")["pass"] is True


def test_convert_round_trip(tmp_path, f_file):
    cauchy = tmp_path / "cauchy.json"
    back = tmp_path / "back.json"
    assert main(["convert", "to-cauchy", "--input", f_file,
                 "--output", str(cauchy)]) == 0
    assert main(["convert", "to-cauchy-like", "--input", str(cauchy),
                 "--output", str(back)]) == 0
    orig = read(f_file)
    reread = read(back)
    # derivatives consume trailing x-orders, so the round trip returns
    # (possibly shorter) prefixes of the original coefficient lists
    assert set(reread["f"]) == set(orig["f"])
    for k, coeffs in reread["f"].items():
        assert coeffs, k
        assert coeffs == orig["f"][k][: len(coeffs)]


def test_bridge_then_tau_verifies(tmp_path, f_file):
    bridged = tmp_path / "bridged.json"
    table = tmp_path / "table.json"
    assert main(["bridge", "--input", f_file, "--output", str(bridged)]) == 0
    assert main(["tau", "--input", str(bridged), "--output", str(table)]) == 0
    assert main(["verify", "hirota3", "--input", str(table),
                 "--output", str(tmp_path / "r.json")]) == 0


def test_exit_2_on_bad_data(tmp_path, num_ctx):
    # c_0 with zero constant term: precondition violation
    bad = {
        "hbar": {"mode": "rational", "value": "1/2"},
        "caps": {"weight": 2, "x_order": 2, "z_order": 0},
        "c": {"0": ["0", "1", "1"], "1": ["1", "0", "0"], "2": ["0", "0", "0"]},
    }
    path = tmp_path / "bad.json"
    dataio.dump(bad, path)
    assert main(["tau", "--input", str(path)]) == 2
    # malformed JSON
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["tau", "--input", str(garbled)]) == 2
    # missing table
    empty = tmp_path / "empty.json"
    dataio.dump({"hbar": {"mode": "rational", "value": "1"},
                 "caps": {"weight": 2, "x_order": 2}}, empty)
    assert main(["tau", "--input", str(empty)]) == 2
    # bad caps
    badcaps = dict(bad)
    badcaps["caps"] = {"weight": 0, "x_order": 2}
    path2 = tmp_path / "badcaps.json"
    dataio.dump(badcaps, path2)
    assert main(["tau", "--input", str(path2)]) == 2


def test_verify_cap_overrides(tmp_path, tau_file):
    table = tmp_path / "tau_table.json"
    main(["tau", "--input", tau_file, "--output", str(table)])
    assert main(["verify", "fay", "--input", str(table), "--weight", "3",
                 "--x-order", "2", "--z-order", "3",
                 "--output", str(tmp_path / "r.json")]) == 0
    doc = read(tmp_path / "r.json")
    assert doc["caps"]["weight"] == 3
    # asking for more than the table holds is a usage error
    assert main(["verify", "fay", "--input", str(table), "--weight", "9"]) == 2


def test_verify_appendix(tmp_path):
    out = tmp_path / "appendix.json"
    assert main(["verify", "appendix", "--seed", "9", "--matrices", "5",
                 "--output", str(out)]) == 0
    assert read(out)["pass"] is True


def test_deterministic_output(tmp_path, tau_file):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["tau", "--input", tau_file, "--output", str(a)])
    main(["tau", "--input", tau_file, "--output", str(b)])
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.json"
    d = tmp_path / "d.json"
    main(["verify", "appendix", "--seed", "4", "--matrices", "3",
          "--output", str(c)])
    main(["verify", "appendix", "--seed", "4", "--matrices", "3",
          "--output", str(d)])
    assert c.read_bytes() == d.read_bytes()


def test_symbolic_hbar_flag(tmp_path):
    out = tmp_path / "s.json"
    assert main(["schur", "--weight", "2", "--basis", "t_hbar",
                 "--window", "-4", "4", "--output", str(out)]) == 0
    doc = read(out)
    # t^h_(1,1) = t_1^2 - 2 hbar t_2: symbolic coefficient map
    assert doc["table"]["1,1"] == {"0,1": {"1": "-2"}, "2": {"0": "1"}}


def run_cli(*argv):
    """Run the command line in a fresh interpreter, as a user would."""
    src = str(Path(hbarkp.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "hbarkp.cli", *argv],
                          capture_output=True, text=True, env=env)


def _tau_doc(hbar, weight):
    return {
        "hbar": hbar,
        "caps": {"weight": weight, "x_order": 2, "z_order": 0},
        "c": {str(k): ["1", "1", "1/2"] for k in range(weight + 1)},
    }


def test_exit_2_on_zero_denominator_hbar(tmp_path):
    path = tmp_path / "hbar_1_0.json"
    dataio.dump(_tau_doc({"mode": "rational", "value": "1/0"}, 2), path)
    for argv in (["tau", "--input", str(path)],
                 ["schur", "--weight", "2", "--hbar", "1/0"]):
        proc = run_cli(*argv)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("bad, message", [
    ("1/0", "zero denominator"),
    ({"0": "1/0"}, "zero denominator"),
    ({"0": 1}, "must be text"),
], ids=["string", "hbar-dict", "number-in-hbar-dict"])
def test_exit_2_on_bad_coefficient(tmp_path, bad, message):
    doc = _tau_doc({"mode": "rational", "value": "1/2"}, 2)
    doc["c"]["1"] = ["1", bad, "1"]
    path = tmp_path / "bad_coeff.json"
    dataio.dump(doc, path)
    proc = run_cli("tau", "--input", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr


@pytest.mark.parametrize("exponent, code", [
    ("4", 0), ("-4", 0), ("5", 2), ("-5", 2), (str(10 ** 6), 2)])
def test_numeric_documents_bound_their_hbar_exponents(tmp_path, capsys,
                                                      exponent, code):
    """A numeric-hbar coefficient written by hbar exponent may use the
    exponents of the default window of the document's weight, [-4, 4] at
    weight 2.  Others are refused before any arithmetic: hbar^(10**6) made
    ``tau`` compute for seconds and then fail on writing the table."""
    doc = _tau_doc({"mode": "rational", "value": "1/2"}, 2)
    doc["c"]["1"] = ["1", {exponent: "1"}, "1"]
    path = tmp_path / "exponent.json"
    dataio.dump(doc, path)
    out = tmp_path / "table.json"
    assert main(["tau", "--input", str(path), "--output", str(out)]) == code
    err = capsys.readouterr().err
    if code:
        assert err == f"error: hbar^{exponent} outside window [-4, 4]\n"
        assert not out.exists()


@pytest.mark.parametrize("hbar", [
    {"mode": "rational", "value": "1/2"},
    {"mode": "symbolic", "window": [-30, 30]},
], ids=["numeric", "formal"])
@pytest.mark.parametrize("scalar, key", [
    ({"0": "1", "1": "1/2", "01": "1/3"}, "01"),
    ({"1_0": "1"}, "1_0"),
    ({"+1": "1"}, "+1"),
    ({" 1": "1"}, " 1"),
    ({"-0": "1"}, "-0"),
], ids=["leading-zero", "underscore", "plus", "space", "minus-zero"])
def test_exit_2_on_an_hbar_exponent_not_written_as_an_int(tmp_path, capsys,
                                                        hbar, scalar, key):
    """An hbar exponent is read only as ``scalar_to_json`` writes it.  Read
    with ``int`` alone, each of these documents builds a table: "01" and
    "1" both name hbar^1, summed at a numeric hbar and the last one kept in
    formal hbar, "1_0" names hbar^10 (inside the default window [-10, 10]
    of weight 8) and "+1", " 1" and "-0" the powers they look like."""
    W = 8
    doc = {"hbar": hbar, "caps": {"weight": W, "x_order": W, "z_order": 0},
           "c": {str(k): ["1"] * (W + 1) for k in range(W + 1)}}
    doc["c"]["1"][W] = scalar
    path = tmp_path / "exponent.json"
    dataio.dump(doc, path)
    out = tmp_path / "table.json"
    assert main(["tau", "--input", str(path), "--output", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: hbar exponent {key!r} is not a decimal integer\n")
    assert not out.exists()


def test_exit_2_on_too_narrow_hbar_window(tmp_path):
    path = tmp_path / "narrow.json"
    dataio.dump(_tau_doc({"mode": "symbolic", "window": [-1, 1]}, 3), path)
    proc = run_cli("tau", "--input", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "window" in proc.stderr


def test_verify_refuses_a_table_of_the_wrong_kind(tmp_path, tau_file, f_file,
                                                  capsys):
    """kp2 checks F and the bilinear identities check tau; a table of the
    other kind is bad input, not a failed verification."""
    tau_table = tmp_path / "tau_table.json"
    f_table = tmp_path / "f_table.json"
    assert main(["tau", "--input", tau_file, "--output", str(tau_table)]) == 0
    assert main(["fseries", "--input", f_file, "--output", str(f_table)]) == 0
    capsys.readouterr()
    assert main(["verify", "kp2", "--input", str(tau_table)]) == 2
    assert "f_lambda (F) table" in capsys.readouterr().err
    for check in ("fay", "hirota3", "detm"):
        assert main(["verify", check, "--input", str(f_table)]) == 2
        assert "c_lambda (tau) table" in capsys.readouterr().err


@pytest.mark.parametrize("matrices", ["0", "-1"])
def test_verify_appendix_refuses_no_matrices(matrices, capsys):
    assert main(["verify", "appendix", "--matrices", matrices]) == 2
    assert "--matrices" in capsys.readouterr().err


def test_verify_refuses_a_negative_weight(tmp_path, tau_file, capsys):
    table = tmp_path / "tau_table.json"
    assert main(["tau", "--input", tau_file, "--output", str(table)]) == 0
    capsys.readouterr()
    assert main(["verify", "fay", "--input", str(table), "--weight", "-1"]) == 2
    assert "--weight must be nonnegative" in capsys.readouterr().err


def test_domain_errors_share_one_base():
    from hbarkp.dataio import DataFormatError
    from hbarkp.errors import HbarkpError
    from hbarkp.hscalar import HbarValueError, HbarWindowError
    from hbarkp.rational import ZeroDenominatorError
    from hbarkp.tpoly import CapError
    from hbarkp.xseries import OrderExhaustedError

    for error, base in ((HbarWindowError, ArithmeticError),
                        (HbarValueError, ArithmeticError),
                        (OrderExhaustedError, ArithmeticError),
                        (DataFormatError, ValueError),
                        (CapError, ValueError),
                        (ZeroDenominatorError, ValueError)):
        assert issubclass(error, HbarkpError) and issubclass(error, base)


# -- z orders at which a check cannot fail ----------------------------------------

def non_kp_table(kind, hbar, W=4, X=2):
    """A tau (or F) table with random coefficients: no KP solution."""
    ctx = HContext.numeric(hbar)
    rng = Random(11)
    if kind == "tau":
        table = {lam: random_xseries(rng, ctx, X, nonzero_const=not lam)
                 for lam in partitions_upto(W)}
        return TauSeries(ctx, W, X, table)
    table = {lam: random_xseries(rng, ctx, X) for lam in partitions_upto(W, 1)}
    return FSeries(ctx, W, X, random_xseries(rng, ctx, X), table, symbolic=False)


# The number of points matters to detm alone.
CHECKS = {
    ("fay", 3): ("tau", check_fay),
    ("hirota3", 3): ("tau", check_hirota3),
    ("kp2", 3): ("F", check_kp2),
    ("detm", 2): ("tau", lambda tau, z: check_det_m(tau, 2, z)),
    ("detm", 3): ("tau", lambda tau, z: check_det_m(tau, 3, z)),
    ("detm", 4): ("tau", lambda tau, z: check_det_m(tau, 4, z)),
}


@pytest.mark.parametrize("check, points", sorted(CHECKS))
@pytest.mark.parametrize("hbar", ["1/2", "3/2"])
def test_least_z_order_is_where_a_non_kp_table_first_fails(check, points, hbar):
    kind, run = CHECKS[check, points]
    poly = non_kp_table(kind, hbar).assemble()
    least = _least_z_order(check, points)
    assert run(poly, least - 1).passed
    assert not run(poly, least).passed


@pytest.mark.parametrize("check, points", sorted(CHECKS))
def test_verify_refuses_a_z_order_where_the_check_cannot_fail(tmp_path, check,
                                                                points, capsys):
    kind = CHECKS[check, points][0]
    table = non_kp_table(kind, "1/2")
    path = tmp_path / "table.json"
    if kind == "tau":
        dataio.dump(dataio.tau_series_to_document(table), path)
    else:
        dataio.dump(dataio.f_series_to_document(table), path)
    least = _least_z_order(check, points)
    argv = ["verify", check, "--input", str(path), "--points", str(points)]
    assert main(argv + ["--z-order", str(least - 1)]) == 2
    err = capsys.readouterr().err
    assert f"cannot fail below --z-order {least}" in err
    assert err.count("\n") == 1
    assert main(argv + ["--z-order", str(least)]) == 1


# -- documents the engine refuses ---------------------------------------------

def test_a_tau_table_with_a_zero_constant_series_is_refused(tmp_path, capsys):
    """c_() with constant term 0 makes tau's constant coefficient an
    x-series that is not invertible: ``check_fay`` raises, and ``verify
    fay`` exits 2 with one error line."""
    ts = non_kp_table("tau", "1/2")
    table = dict(ts.table)
    table[Partition(())] = XSeries(ts.ctx, ts.x_cap,
                                   [Rational(0), Rational(1)])
    ts = TauSeries(ts.ctx, ts.weight_cap, ts.x_cap, table)
    with pytest.raises(ValueError, match="tau is not invertible"):
        check_fay(ts.assemble(), 4)
    path = tmp_path / "table.json"
    dataio.dump(dataio.tau_series_to_document(ts), path)
    assert main(["verify", "fay", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: tau is not invertible")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, top", [
    (["tau"], [1, 2]),
    (["fseries"], [1, 2]),
    (["bridge"], [1, 2]),
    (["convert", "to-cauchy"], [1, 2]),
    (["convert", "to-cauchy-like"], [1, 2]),
    (["verify", "fay"], "c_lambda"),
], ids=["tau", "fseries", "bridge", "to-cauchy", "to-cauchy-like", "fay"])
def test_exit_2_on_a_top_level_that_is_not_an_object(tmp_path, capsys, argv,
                                                      top):
    path = tmp_path / "top.json"
    path.write_text(json.dumps(top))
    assert main(argv + ["--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert "must hold a JSON object" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, name, table", [
    (["tau"], "c", ["0"]),
    (["verify", "fay"], "c_lambda", []),
    (["verify", "kp2"], "f_lambda", "x"),
], ids=["c", "c_lambda", "f_lambda"])
def test_exit_2_on_a_table_that_is_not_an_object(tmp_path, capsys, argv,
                                                 name, table):
    doc = _tau_doc({"mode": "rational", "value": "1/2"}, 2)
    doc[name] = table
    if name == "f_lambda":
        doc["mode"] = "concrete"
    path = tmp_path / "table.json"
    dataio.dump(doc, path)
    assert main(argv + ["--input", str(path)]) == 2
    assert f'"{name}" must be an object' in capsys.readouterr().err


@pytest.mark.parametrize("caps", [
    {"weight": 2.5, "x_order": 2},
    {"weight": True, "x_order": 2},
    {"weight": "2", "x_order": 2},
    {"weight": 2, "x_order": 2.0},
    {"weight": 2, "x_order": 2, "z_order": False},
], ids=["float-weight", "bool-weight", "text-weight", "float-x-order",
        "bool-z-order"])
def test_exit_2_on_caps_that_are_not_integers(tmp_path, capsys, caps):
    doc = _tau_doc({"mode": "rational", "value": "1/2"}, 2)
    doc["caps"] = caps
    path = tmp_path / "caps.json"
    dataio.dump(doc, path)
    assert main(["tau", "--input", str(path)]) == 2
    assert "bad caps" in capsys.readouterr().err


@pytest.mark.parametrize("hbar", [
    {"mode": "rational", "value": 0.1},
    {"mode": "rational", "value": 1},
    {"mode": "rational", "value": True},
    {"mode": "symbolic", "window": [-6.5, 6]},
    {"mode": "symbolic", "window": [-6, True]},
], ids=["float", "int", "bool", "float-window", "bool-window"])
def test_exit_2_on_an_hbar_that_is_not_exact_text(tmp_path, capsys, hbar):
    """A float never reaches the exact engine; an integer window bound is
    an integer, not a float or a boolean."""
    path = tmp_path / "hbar.json"
    dataio.dump(_tau_doc(hbar, 2), path)
    assert main(["tau", "--input", str(path)]) == 2
    assert "bad hbar entry" in capsys.readouterr().err


def test_library_callers_still_give_hbar_as_a_number():
    assert HContext.numeric(0).value == 0
    assert HContext.numeric(3).value == 3


@pytest.mark.parametrize("argv", [
    ["tau"],
    ["fseries"],
    ["fseries", "--mode", "symbolic", "--weight", "2"],
], ids=["tau", "fseries", "fseries-symbolic"])
def test_exit_2_on_a_negative_z_order(tmp_path, capsys, tau_file, f_file,
                                      argv):
    """A table records its z order as a cap, which ``verify`` would refuse
    below 0; the builders refuse it up front and write nothing."""
    out = tmp_path / "out.json"
    if argv == ["tau"]:
        argv = argv + ["--input", tau_file]
    elif "--mode" not in argv:
        argv = argv + ["--input", f_file]
    assert main(argv + ["--z-order", "-1", "--output", str(out)]) == 2
    assert "--z-order must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["tau", "F"])
def test_exit_2_on_a_table_below_its_weight_cap(tmp_path, capsys, kind):
    """A weight cap above the table's diagrams is refused before the
    assembly: at a cap of 10**6 the checks would never end."""
    table = non_kp_table(kind, "1/2", W=2)
    if kind == "tau":
        doc = dataio.tau_series_to_document(table)
        check, name = "fay", "c_lambda"
    else:
        doc = dataio.f_series_to_document(table)
        check, name = "kp2", "f_lambda"
    doc["caps"]["weight"] = 10 ** 6
    path = tmp_path / "table.json"
    dataio.dump(doc, path)
    assert main(["verify", check, "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert f'"{name}" stops at weight 2, below its weight cap 1000000' in err


# -- documents that claim less than they are read as ------------------------------

@pytest.mark.parametrize("argv, name", [(["tau"], "c"), (["fseries"], "f")],
                         ids=["tau", "fseries"])
def test_exit_2_on_an_empty_series(tmp_path, capsys, argv, name):
    """An empty coefficient list claims no coefficient: it is not a zero
    series known through the x order (here x^3)."""
    doc = {"hbar": {"mode": "rational", "value": "1/2"},
           "caps": {"weight": 1, "x_order": 3, "z_order": 0},
           name: {"0": ["1", "1"], "1": []}}
    path = tmp_path / "data.json"
    dataio.dump(doc, path)
    out = tmp_path / "out.json"
    assert main(argv + ["--input", str(path), "--output", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: series must hold at least one coefficient\n")
    assert not out.exists()


@pytest.mark.parametrize("edit", ["omitted", "empty"])
@pytest.mark.parametrize("build, check, name", [
    ("tau", "fay", "c_lambda"), ("fseries", "kp2", "f_lambda")],
    ids=["fay", "kp2"])
def test_exit_2_on_a_table_without_a_diagram(tmp_path, capsys, tau_file,
                                             f_file, edit, build, check, name):
    """A table that leaves out a diagram below its weight cap, or gives it
    no coefficient, does not say that the coefficient is zero; judging it
    as zero would fail a KP table."""
    table = tmp_path / "table.json"
    data = tau_file if build == "tau" else f_file
    assert main([build, "--input", data, "--output", str(table)]) == 0
    doc = read(table)
    if edit == "omitted":
        del doc[name]["1,1"]
        message = f"\"{name}\" misses diagram '1,1'"
    else:
        doc[name]["1,1"] = []
        message = "series must hold at least one coefficient"
    dataio.dump(doc, table)
    out = tmp_path / "verdict.json"
    assert main(["verify", check, "--input", str(table),
                 "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("build, check, name, key, message", [
    ("fseries", "kp2", "f_lambda", "",
     "holds diagram '' of weight 0, below its least weight 1"),
    ("fseries", "kp2", "f_lambda", "5",
     "holds diagram '5' of weight 5, above its weight cap 4"),
    ("tau", "fay", "c_lambda", "2,2,1",
     "holds diagram '2,2,1' of weight 5, above its weight cap 4"),
], ids=["f-empty", "f-above", "c-above"])
def test_exit_2_on_a_diagram_outside_the_table(tmp_path, capsys, tau_file,
                                               f_file, build, check, name,
                                               key, message):
    """A diagram outside the weights of the table's series is refused, not
    summed: the empty diagram of an F table would be added to f_0, and a
    diagram above the cap has no basis element."""
    table = tmp_path / "table.json"
    data = tau_file if build == "tau" else f_file
    assert main([build, "--input", data, "--output", str(table)]) == 0
    doc = read(table)
    doc[name][key] = ["5", "0", "0", "0", "0"]
    dataio.dump(doc, table)
    out = tmp_path / "verdict.json"
    assert main(["verify", check, "--input", str(table),
                 "--output", str(out)]) == 2
    assert capsys.readouterr().err == f'error: "{name}" {message}\n'
    assert not out.exists()


# -- malformed documents ----------------------------------------------------------

@pytest.mark.parametrize("argv, key, value, message", [
    (["tau"], "hbar", {"mode": "complex"}, "unknown hbar mode: 'complex'"),
    (["tau"], "c", {"0": ["1"], "a": ["1"]},
     '"c" key \'a\' is not an index written as "0", "1", ...'),
    (["tau"], "c", {"0": "1"}, "series must be a list: '1'"),
    (["verify", "kp2"], "basis", "t_other", "unknown basis tag 't_other'"),
], ids=["hbar-mode", "c-index", "c-series", "basis"])
def test_exit_2_on_a_malformed_document(tmp_path, capsys, tau_file, f_file,
                                        argv, key, value, message):
    if argv == ["tau"]:
        doc = read(tau_file)
    else:
        table = tmp_path / "f_table.json"
        assert main(["fseries", "--input", f_file, "--output",
                     str(table)]) == 0
        doc = read(table)
    doc[key] = value
    path = tmp_path / "doc.json"
    dataio.dump(doc, path)
    out = tmp_path / "out.json"
    assert main(argv + ["--input", str(path), "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# table -> (the command that reads it, a key as dataio writes it, another
# spelling of that key)
_KEY_SPELLINGS = {
    "c": (["tau"], "1", "01"),
    "f": (["fseries"], "1", "+1"),
    "cauchy": (["convert", "to-cauchy-like"], "2", " 2"),
    "c_lambda": (["verify", "fay"], "1,1", "1, 1"),
    "f_lambda": (["verify", "kp2"], "2,1", "2,01"),
}


def _document_with(name, tmp_path, tau_file, f_file):
    """A document that holds the table ``name``, from the data files."""
    if name in ("c", "f"):
        return read(tau_file if name == "c" else f_file)
    made = tmp_path / "made.json"
    argv = {"cauchy": ["convert", "to-cauchy", "--input", f_file],
            "c_lambda": ["tau", "--input", tau_file],
            "f_lambda": ["fseries", "--input", f_file]}[name]
    assert main(argv + ["--output", str(made)]) == 0
    return read(made)


@pytest.mark.parametrize("edit", ["beside", "alone"])
@pytest.mark.parametrize("name", sorted(_KEY_SPELLINGS))
def test_exit_2_on_another_spelling_of_a_key(tmp_path, capsys, tau_file,
                                             f_file, name, edit):
    """A key is read only as dataio writes it.  Beside the written key,
    another spelling would name the same entry and replace it; alone, an
    index such as "+1" would pass the gap check and then be looked up as
    "1"."""
    argv, key, spelling = _KEY_SPELLINGS[name]
    doc = _document_with(name, tmp_path, tau_file, f_file)
    table = doc[name]
    table[spelling] = ["5"] if edit == "beside" else table.pop(key)
    path = tmp_path / "doc.json"
    dataio.dump(doc, path)
    out = tmp_path / "out.json"
    assert main(argv + ["--input", str(path), "--output", str(out)]) == 2
    form = ('a diagram written as "p1,p2,..."' if name.endswith("lambda")
            else 'an index written as "0", "1", ...')
    assert capsys.readouterr().err == (
        f'error: "{name}" key {spelling!r} is not {form}\n')
    assert not out.exists()


def test_exit_2_on_verifying_a_symbolic_f_table(tmp_path, capsys):
    table = tmp_path / "sym.json"
    assert main(["fseries", "--mode", "symbolic", "--weight", "2",
                 "--output", str(table)]) == 0
    assert main(["verify", "kp2", "--input", str(table)]) == 2
    assert capsys.readouterr().err == (
        "error: only concrete F tables can be reloaded\n")


# per command: --help, an unknown option, a missing required option or
# argument, and a bad choice (a bad type where the command has no choice)
_PARSER_CASES = {
    "schur": [["--help"], ["--weight", "2", "--nope"], [],
              ["--weight", "2", "--basis", "q"]],
    "transition": [["--help"], ["--weight", "2", "--nope"], [],
                   ["--weight", "two"]],
    "pconst": [["--help"], ["--nope"], ["--bound", "x"]],
    "tau": [["--help"], ["--input", "a", "--nope"], [], ["--z-order", "x"]],
    "fseries": [["--help"], ["--nope"], ["--mode", "other"],
                ["--basis", "t_x"], ["--window", "1"]],
    "convert": [["--help"], ["to-cauchy", "--input", "a", "--nope"],
                ["to-cauchy"], ["--input", "a"], ["sideways", "--input", "a"]],
    "bridge": [["--help"], ["--input", "a", "--nope"], []],
    "verify": [["--help"], ["fay", "--nope"], [], ["tri"],
               ["fay", "--points", "x"], ["fay", "extra"]],
}


def _parsed(parser, argv):
    """stdout, stderr and exit code of parsing ``argv`` (None: parsed)."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parser.parse_args(argv)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code


@pytest.mark.parametrize("command", sorted(_PARSER_CASES))
def test_a_one_command_parser_prints_what_the_full_parser_prints(command):
    """``main`` builds only the parser of the command it is given; its help
    and its usage errors are the full parser's, byte for byte."""
    full, one = build_parser(), build_parser(command)
    subparsers = [a for a in one._actions if a.dest == "command"]
    assert list(subparsers[0].choices) == [command]
    for argv in _PARSER_CASES[command]:
        argv = [command] + argv
        want = _parsed(full, argv)
        assert want[2] in (0, 2)
        assert _parsed(one, argv) == want, argv
        assert _parsed(SimpleNamespace(parse_args=main), argv) == want, argv


@pytest.mark.parametrize("argv", [["--help"], [], ["nope"], ["-x"]])
def test_without_a_command_the_full_parser_parses(argv):
    want = _parsed(build_parser(), argv)
    assert want[2] in (0, 2)
    assert _parsed(SimpleNamespace(parse_args=main), argv) == want
