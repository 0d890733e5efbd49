"""The exit-code contract of the command line under malformed input.

Documents start from valid ones of every kind the commands read (tau and
F data, plain derivatives, c_lambda and f_lambda tables; numeric and
formal hbar) and take a few mutations: wrong types and missing keys, huge
or negative caps, empty series, symbolic windows, hbar exponents not
written as ints, tables of the wrong kind, top levels that are not
objects.  Each is run through ``cli.main``
in process.  Whatever the input, the run must return 0, 1 or 2, no
exception may escape ``cli.main``, and 1 must come only from ``verify``
whose residual failed.

``schur``, symbolic ``fseries``, ``pconst`` and ``verify appendix`` run
with small sizes and with sizes outside their limits, and the x orders
drawn for the caps include those above ``dataio.X_ORDER_MAX``.  Left out:
``transition``, the other command that reads no document.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbarkp import cli, dataio
from hbarkp.fbuild import f_series
from hbarkp.hscalar import HContext
from hbarkp.sampling import random_f_data, random_tau_data
from hbarkp.taubuild import tau_series

SETTINGS = settings(max_examples=400, deadline=None, derandomize=True,
                    database=None)
W = X = 4


def _documents(ctx):
    tau_data = random_tau_data(Random(5), ctx, W, X)
    f_data = random_f_data(Random(6), ctx, W, X)
    cauchy = dataio.f_data_to_document(f_data)
    cauchy["cauchy"] = cauchy.pop("f")
    return {
        "tau-data": dataio.tau_data_to_document(tau_data),
        "f-data": dataio.f_data_to_document(f_data),
        "cauchy": cauchy,
        "c_lambda": dataio.tau_series_to_document(tau_series(tau_data), 4),
        "f_lambda": dataio.f_series_to_document(f_series(f_data), 4),
    }


BASES = {mode: _documents(ctx) for mode, ctx in
         (("numeric", HContext.numeric("1/2")),
          ("formal", HContext.symbolic(-6, 6)))}

# The commands each kind of document feeds, before the flags drawn below.
COMMANDS = {
    "tau-data": (["tau"],),
    "f-data": (["fseries"], ["fseries", "--basis", "t_plain"], ["bridge"],
               ["convert", "to-cauchy"]),
    "cauchy": (["convert", "to-cauchy-like"],),
    "c_lambda": (["verify", "fay"], ["verify", "hirota3"], ["verify", "detm"],
                 ["verify", "detm"], ["verify", "kp2"]),
    "f_lambda": (["verify", "kp2"], ["verify", "kp2"], ["verify", "fay"]),
}

junk = st.sampled_from([None, True, 0, -1, 2.5, 10 ** 6, "", "x", "1/0",
                        [], [1, 2], {}, {"0": 1}])
hbars = st.sampled_from([
    {"mode": "rational", "value": "3/2"},
    {"mode": "rational", "value": "0"},
    {"mode": "rational", "value": 0.1},
    {"mode": "rational", "value": 1},
    {"mode": "rational", "value": True},
    {"mode": "rational"},
    {"mode": "symbolic", "window": [-6, 6]},
    {"mode": "symbolic", "window": [-1, 1]},
    {"mode": "symbolic", "window": [0, 0]},
    {"mode": "symbolic", "window": [1, 2]},
    {"mode": "symbolic", "window": [-2.5, 3]},
    {"mode": "symbolic", "window": [-2]},
    {"mode": "other"},
]) | junk
caps_values = st.integers(-2, 4) | st.sampled_from([10 ** 6, 2.5, True, "2"])
scalars = st.sampled_from(["0", "1", "-3/4", "1/0", "x", {"0": "1"},
                           {"1": "-2"}, {"x": "1"}, {"1000000": "1"}, 1, 0.5,
                           None])
series = st.lists(scalars, max_size=4) | junk
keys = st.sampled_from(["", "0", "1", "2", "3", "1,1", "2,1", "1,2", "-1",
                        "a", "0,0"])


@st.composite
def mutated(draw, doc):
    """``doc`` with one to three mutations."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        if not isinstance(doc, dict):
            break
        op = draw(st.sampled_from(["hbar", "cap", "x_order", "drop", "table",
                                   "entry", "series", "empty", "kind", "top",
                                   "bump", "bump", "exponent"]))
        tables = [k for k in ("c", "f", "cauchy", "c_lambda", "f_lambda")
                  if isinstance(doc.get(k), dict)]
        if op == "hbar":
            doc["hbar"] = draw(hbars)
        elif op == "cap":
            caps = doc.get("caps")
            if isinstance(caps, dict):
                name = draw(st.sampled_from(["weight", "x_order", "z_order"]))
                if draw(st.booleans()):
                    caps.pop(name, None)
                else:
                    caps[name] = draw(caps_values)
            else:
                doc["caps"] = draw(junk)
        elif op == "x_order" and isinstance(doc.get("caps"), dict):
            # around dataio.X_ORDER_MAX
            doc["caps"]["x_order"] = draw(st.sampled_from(
                [128, 129, 10 ** 6, 10 ** 9]))
        elif op == "drop" and doc:
            doc.pop(draw(st.sampled_from(sorted(doc))))
        elif op == "table" and tables:
            doc[draw(st.sampled_from(tables))] = draw(junk)
        elif op == "bump" and tables:
            # a valid table whose identities fail
            table = doc[draw(st.sampled_from(tables))]
            key = draw(st.sampled_from(sorted(table) or [""]))
            if isinstance(table.get(key), list) and table[key]:
                table[key][0] = "7/3"
        elif op == "exponent" and tables:
            # an hbar exponent not written as an int writes it
            table = doc[draw(st.sampled_from(tables))]
            key = draw(st.sampled_from(sorted(table) or [""]))
            if isinstance(table.get(key), list) and table[key]:
                table[key][-1] = {draw(st.sampled_from(
                    ["01", "+1", "1_0", " 1", "-0", "1.0"])): "1"}
        elif op in ("entry", "series", "empty") and tables:
            table = doc[draw(st.sampled_from(tables))]
            key = draw(keys | st.sampled_from(sorted(table) or [""]))
            if op == "entry":
                table[key] = draw(series)
            elif op == "empty":
                table[key] = []
            elif isinstance(table.get(key), list) and table[key]:
                lst = table[key]
                lst[draw(st.integers(0, len(lst) - 1))] = draw(scalars)
        elif op == "kind":
            mode = draw(st.sampled_from(sorted(BASES)))
            doc = copy.deepcopy(BASES[mode][draw(st.sampled_from(
                sorted(BASES[mode])))])
        elif op == "top":
            doc = draw(st.sampled_from([[1, 2], "c_lambda", 3, None, True, []]))
    return doc


@st.composite
def runs(draw):
    """(argv without --input, document); ``schur``, symbolic ``fseries``,
    ``pconst`` and ``verify appendix`` read no document."""
    if draw(st.integers(0, 9)) == 0:
        weight = draw(st.sampled_from([-1, 0, 2, 17, 10 ** 6]))
        basis = draw(st.sampled_from(["schur", "h", "m", "p", "t_hbar"]))
        return ["schur", "--weight", str(weight), "--basis", basis], None
    if draw(st.integers(0, 19)) == 0:
        weight = draw(st.sampled_from([-1, 0, 3, 15, 10 ** 6]))
        return ["fseries", "--mode", "symbolic", "--weight", str(weight)], None
    if draw(st.integers(0, 19)) == 0:
        bound = draw(st.sampled_from([-1, 0, 2, 13, 10 ** 6]))
        return ["pconst", "--bound", str(bound)], None
    if draw(st.integers(0, 19)) == 0:
        matrices = draw(st.sampled_from([-1, 0, 3, 5001, 10 ** 6]))
        return ["verify", "appendix", "--matrices", str(matrices)], None
    mode = draw(st.sampled_from(sorted(BASES)))
    kind = draw(st.sampled_from(sorted(COMMANDS)))
    argv = list(draw(st.sampled_from(COMMANDS[kind])))
    if argv[0] in ("tau", "fseries"):
        argv += ["--z-order", str(draw(st.sampled_from([-1, 0, 4, 10 ** 6])))]
    if argv[0] == "verify":
        argv += ["--z-order", str(draw(st.sampled_from([-1, 3, 4, 4, 4, 5])))]
        if argv[1] == "detm":
            argv += ["--points", str(draw(st.sampled_from(
                [-1, 1, 2, 3, 3, 3, 7, 10 ** 6])))]
        if draw(st.integers(0, 3)) == 0:
            argv += ["--weight", str(draw(st.sampled_from([-1, 0, 3, 10 ** 6])))]
        if draw(st.integers(0, 3)) == 0:
            argv += ["--x-order", str(draw(st.sampled_from([-1, 0, 1, 10 ** 6])))]
    doc = BASES[mode][kind]
    return argv, draw(mutated(doc)) if draw(st.integers(0, 3)) else doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@SETTINGS
@given(runs())
def test_every_document_ends_with_a_documented_exit_code(workdir, run):
    argv, doc = run
    if not {"schur", "symbolic", "pconst", "appendix"} & set(argv):
        path = workdir / "input.json"
        path.write_text(json.dumps(doc))
        argv = argv + ["--input", str(path)]
    verdicts = []
    real = cli._residual_doc

    def recording(res):
        verdicts.append(res.passed)
        return real(res)

    err = io.StringIO()
    cli._residual_doc = recording
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        cli._residual_doc = real
    assert code in (0, 1, 2)
    if code == 1:
        assert argv[0] == "verify" and False in verdicts
    if code == 2:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
