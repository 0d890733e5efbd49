"""A fixed command line corpus, pinned by digest.

Every command below runs through ``cli.main`` in process.  The sha256 of
its exit code, stdout, stderr and output file (with the temporary
directory masked) must match ``cli_corpus.txt``, so a refactor that
changes any byte of the JSON, any message or any verdict fails here.

Re-record the manifest, after a change that is meant to alter output,
with

    python tests/test_cli_corpus.py --record

The corpus covers: every basis of ``schur`` at weight 6 with hbar 1/2,
3/2 and formal; ``transition``; ``pconst``; ``verify appendix``; symbolic
``fseries``; and, per data seed and hbar, ``tau``, ``fseries`` in both
bases, ``convert`` both ways, ``bridge``, the four checks at z orders 3
and 4, ``detm --points 2``, the cap clamps, the exit-2 refusals and the
three tau checks on a corrupted table; then ``convert`` both ways on an
hbar = 0 table; last, the checks on formal tables near the edge of their
window, which pin the residuals' window errors and the F-form verdicts
there.  Argparse usage errors are left out: their text depends on the
Python version.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path
from random import Random

# hbarkp is imported inside the functions below, so that ``--record`` can
# put src/ on the path first.
MANIFEST = Path(__file__).with_name("cli_corpus.txt")
MASK = "<tmp>"

# (flags of the commands that take an hbar, hbar of the data files (None:
# formal, window [-8, 8]), file name tag)
NUMERIC = [(["--hbar", "1/2"], "1/2", "h1-2"), (["--hbar", "3/2"], "3/2", "h3-2")]
FORMAL = (["--window", "-8", "8"], None, "formal")


def _context(value):
    from hbarkp.hscalar import HContext

    return HContext.symbolic(-8, 8) if value is None else HContext.numeric(value)


def _write_data(tmp: Path, seed: int, value, weight: int, tag: str):
    from hbarkp import dataio
    from hbarkp.sampling import random_f_data, random_tau_data

    ctx = _context(value)
    tau = tmp / f"{tag}.tau-data.json"
    f = tmp / f"{tag}.f-data.json"
    dataio.dump(dataio.tau_data_to_document(
        random_tau_data(Random(seed), ctx, weight, weight)), tau)
    dataio.dump(dataio.f_data_to_document(
        random_f_data(Random(seed), ctx, weight, weight)), f)
    return str(tau), str(f)


def _corrupt(table: str, out: Path) -> str:
    """The tau table with 1 added to the constant term of c_(1,1)."""
    from fractions import Fraction

    with open(table) as fh:
        doc = json.load(fh)
    c = doc["c_lambda"]["1,1"]
    c0 = c[0]
    if isinstance(c0, dict):
        c0 = dict(c0)
        c0["0"] = str(Fraction(c0.get("0", "0")) + 1)
    else:
        c0 = str(Fraction(c0) + 1)
    c[0] = c0
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    return str(out)


def _data_commands(tmp: Path, seed: int, value, weight: int, tag: str):
    """The per-table part of the corpus, in run order."""
    tag = f"s{seed}-{tag}-w{weight}"
    tau_data, f_data = _write_data(tmp, seed, value, weight, tag)
    tau = str(tmp / f"{tag}.tau.json")
    fhb = str(tmp / f"{tag}.f.json")
    fpl = str(tmp / f"{tag}.fplain.json")
    cauchy = str(tmp / f"{tag}.cauchy.json")
    lower = str(weight - 1)
    yield ["tau", "--input", tau_data, "--output", tau]
    yield ["tau", "--input", tau_data, "--z-order", "4"]
    yield ["fseries", "--input", f_data, "--output", fhb]
    yield ["fseries", "--input", f_data, "--basis", "t_plain", "--output", fpl]
    yield ["convert", "to-cauchy", "--input", f_data, "--output", cauchy]
    yield ["convert", "to-cauchy-like", "--input", cauchy]
    yield ["bridge", "--input", f_data]
    for z in ("3", "4"):
        for check in ("fay", "hirota3", "detm"):
            yield ["verify", check, "--input", tau, "--z-order", z]
        yield ["verify", "kp2", "--input", fhb, "--z-order", z]
    yield ["verify", "kp2", "--input", fpl, "--z-order", "3"]
    yield ["verify", "detm", "--points", "2", "--input", tau]
    yield ["verify", "fay", "--input", tau, "--weight", lower]
    yield ["verify", "hirota3", "--input", tau, "--x-order", str(weight - 2)]
    yield ["verify", "kp2", "--input", fhb, "--weight", lower, "--x-order", lower]
    # refusals: exit 2
    yield ["verify", "fay", "--input", tau, "--z-order", "2"]
    yield ["verify", "kp2", "--input", tau]
    yield ["verify", "detm", "--input", fhb]
    yield ["verify", "fay", "--input", tau, "--weight", str(weight + 1)]
    yield ["verify", "hirota3", "--input", tau, "--weight", "-1"]
    yield ["verify", "fay", "--input", tau, "--x-order", "-1"]
    bad = _corrupt(tau, tmp / f"{tag}.tau-bad.json")
    for check in ("fay", "hirota3", "detm"):
        yield ["verify", check, "--input", bad]


def _global_commands(tmp: Path):
    from hbarkp import dataio

    for flags in [f for f, _, _ in NUMERIC] + [FORMAL[0]]:
        for basis in ("schur", "h", "m", "p", "t_hbar"):
            yield ["schur", "--weight", "6", "--basis", basis, *flags]
    for n in list(range(10)) + [15]:
        yield ["transition", "--weight", str(n)]
    yield ["pconst"]
    yield ["verify", "appendix"]
    yield ["verify", "appendix", "--seed", "3", "--matrices", "4"]
    yield ["verify", "appendix", "--matrices", "0"]
    for w in range(2, 6):
        yield ["fseries", "--mode", "symbolic", "--weight", str(w)]
    yield ["fseries", "--mode", "symbolic", "--weight", "3", "--basis", "t_plain",
           "--window", "-6", "6"]
    # refusals: exit 2
    yield ["fseries"]
    yield ["verify", "fay"]
    yield ["tau", "--input", str(tmp / "missing.json")]
    garbled = tmp / "garbled.json"
    garbled.write_text("{not json")
    yield ["tau", "--input", str(garbled)]
    docs = {
        "zero-den": {"hbar": {"mode": "rational", "value": "1/2"},
                     "caps": {"weight": 2, "x_order": 2},
                     "c": {"0": ["1", "1", "1"], "1": ["1", "1/0", "1"],
                           "2": ["0", "0", "0"]}},
        "zero-c0": {"hbar": {"mode": "rational", "value": "1/2"},
                    "caps": {"weight": 2, "x_order": 2},
                    "c": {"0": ["0", "1", "1"], "1": ["1", "0", "0"],
                          "2": ["0", "0", "0"]}},
        "narrow": {"hbar": {"mode": "symbolic", "window": [-1, 1]},
                   "caps": {"weight": 3, "x_order": 2},
                   "c": {str(k): ["1", "1", "1/2"] for k in range(4)}},
        "f-table": {"hbar": {"mode": "rational", "value": "1/2"},
                    "caps": {"weight": 2, "x_order": 2},
                    "f": {"0": ["0", "1", "1"], "1": ["1", "0", "0"]}},
    }
    for name, doc in docs.items():
        path = tmp / f"{name}.json"
        dataio.dump(doc, path)
        yield ["tau", "--input", str(path)]
    formal_f = tmp / "formal-f.json"
    dataio.dump({"hbar": {"mode": "symbolic", "window": [-8, 8]},
                 "caps": {"weight": 2, "x_order": 2},
                 "f": {"0": ["0", "1", "1"], "1": ["1", "0", "0"],
                       "2": ["0", "1", "0"]}}, formal_f)
    yield ["bridge", "--input", str(formal_f)]


def corpus(tmp: Path):
    """Every command of the corpus, in run order; files made on the way."""
    yield from _global_commands(tmp)
    for seed in (0, 1):
        for _, value, tag in NUMERIC:
            for weight in (4, 5):
                yield from _data_commands(tmp, seed, value, weight, tag)
        _, value, tag = FORMAL
        yield from _data_commands(tmp, seed, value, 4, tag)
    # the conversions at hbar = 0, where every multi-row weight vanishes
    _, f_data = _write_data(tmp, 0, "0", 6, "s0-h0-w6")
    cauchy = str(tmp / "s0-h0-w6.cauchy.json")
    yield ["convert", "to-cauchy", "--input", f_data, "--output", cauchy]
    yield ["convert", "to-cauchy-like", "--input", cauchy]
    yield from _fallback_commands(tmp)


def _formal_table(window, weight, key, table, **extra):
    """A formal table of x order 0 in ``window``: ``table`` holds the
    nonzero entries, every other diagram up to ``weight`` is zero."""
    from hbarkp import dataio
    from hbarkp.partitions import partitions_upto

    least = 1 if key == "f_lambda" else 0
    entries = {lam.serialize(): ["0"] for lam in partitions_upto(weight, least)}
    entries.update(table)
    return {"hbar": {"mode": "symbolic", "window": list(window)},
            "caps": {"weight": weight, "x_order": 0}, key: entries, **extra}


def _fallback_commands(tmp: Path):
    """Formal tables on which a check's residual leaves the window, so the
    check exits 2 naming the first power of hbar outside it: for
    tau = 1 + c t_1, fay in [-3, 3] (c = hbar^-1), the 3-point determinant
    in [-3, 3] (c = hbar^2), and the 3- and 4-point determinants in
    [-2, 2] (c = hbar^-1).  The file names are kept from when these
    residuals fell back to the identities as written, so the lines and
    their digests keep their names.  Also the F-form check on
    F = 1 + hbar^-8 t_1^2 (W = 2, passing) and
    F = 1 + hbar^-8 t_1 t_3 + t_2^2 / 2 (W = 4, failing), which computes
    the identity as written: a symmetrised half of it would leave [-8, 8]
    in (d_1 F)^{[z1]} / hbar before the two slots' terms cancel."""
    from hbarkp import dataio

    docs = {
        "fay-fallback": (_formal_table((-3, 3), 2, "c_lambda", {
            "": ["1"], "1": [{"-1": "1"}]}), [["fay", "--z-order", "3"]]),
        "detm-laplace": (_formal_table((-3, 3), 2, "c_lambda", {
            "": ["1"], "1": [{"2": "1"}]}), [["detm", "--z-order", "4"]]),
        "detm-chain": (_formal_table((-2, 2), 2, "c_lambda", {
            "": ["1"], "1": [{"-1": "1"}]}),
            [["detm", "--z-order", "4"], ["detm", "--points", "4", "--z-order", "5"]]),
        "kp2-pass": (_formal_table((-8, 8), 2, "f_lambda", {
            "1,1": [{"-8": "2"}]}, basis="t_plain", mode="concrete", f0=["1"]),
            [["kp2", "--z-order", "3"]]),
        "kp2-fail": (_formal_table((-8, 8), 4, "f_lambda", {
            "3,1": [{"-8": "1"}], "2,2": ["1"]}, basis="t_plain",
            mode="concrete", f0=["1"]), [["kp2", "--z-order", "3"]]),
    }
    for name, (doc, checks) in docs.items():
        path = tmp / f"{name}.json"
        dataio.dump(doc, path)
        for check in checks:
            yield ["verify", *check, "--input", str(path)]


def _run(argv, tmp: Path):
    from hbarkp.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    produced = ""
    if "--output" in argv:
        path = Path(argv[argv.index("--output") + 1])
        if path.exists():
            produced = path.read_text()
    mask = str(tmp)
    record = "\0".join([str(code), out.getvalue(), err.getvalue(), produced])
    digest = hashlib.sha256(record.replace(mask, MASK).encode()).hexdigest()
    return " ".join(argv).replace(mask, MASK), digest


def run_corpus(tmp: Path) -> list[tuple[str, str]]:
    return [_run(argv, tmp) for argv in corpus(tmp)]


def read_manifest() -> list[tuple[str, str]]:
    rows = []
    for line in MANIFEST.read_text().splitlines():
        digest, name = line.split("  ", 1)
        rows.append((name, digest))
    return rows


def test_cli_corpus_matches_the_manifest(tmp_path):
    got = run_corpus(tmp_path)
    want = read_manifest()
    assert [name for name, _ in got] == [name for name, _ in want]
    changed = [name for (name, a), (_, b) in zip(got, want) if a != b]
    assert changed == []


def record(tmp: Path) -> int:
    rows = run_corpus(tmp)
    MANIFEST.write_text("".join(f"{d}  {name}\n" for name, d in rows))
    return len(rows)


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_cli_corpus.py --record")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        print(f"recorded {record(Path(tmp))} commands in {MANIFEST}")
