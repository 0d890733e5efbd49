"""Tests of the benchmark itself: python3 -m pytest perfbench

Not part of the tier-1 suite (pyproject's testpaths is tests/); the
tracing test runs two real verify cases and takes several seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import cases
import compare
import run
import tracer

BENCH = Path(__file__).resolve().parent


def test_case_list_is_seeded_alternating_and_stratified():
    for workload in cases.WORKLOADS:
        keys = cases.case_list(workload, 5)
        assert keys == cases.case_list(workload, 5)
        assert keys != cases.case_list(workload, 6)
        parsed = [cases.parse_key(k) for k in keys]
        assert [p["corrupt"] for p in parsed] == [i % 2 == 1 for i in range(len(keys))]
        assert set(keys) <= set(cases.all_keys(workload))
        if workload != "symbolic":
            for b in range(0, 36, 6):
                block = parsed[b:b + 6]
                for corrupt in (False, True):
                    hbars = sorted(p["hbar"] for p in block if p["corrupt"] == corrupt)
                    assert hbars == sorted(cases.HBARS)


def test_golden_digests_cover_every_case():
    for workload in cases.WORKLOADS:
        assert set(run.load_golden(workload)) == set(cases.all_keys(workload))


def test_benchmark_json_lists_every_metric():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in doc["end_to_end"]] == list(run.END_TO_END.values())
    assert [m["name"] for m in doc["per_layer"]] == tracer.metric_names()
    assert [w["name"] for w in doc["workloads"]] == list(cases.WORKLOADS)
    layers = run.per_layer([])
    assert [m["unit"] for m in doc["per_layer"]] == [v["unit"] for v in layers.values()]


def test_install_rebinds_copies_and_aliases():
    code = (
        "import tracer\n"
        "t = tracer.Tracer(); assert tracer.install(t) > len(tracer.SPAN_NAMES)\n"
        "from hbarkp import linalg, verify, taubuild, symfun, hcalc, tpoly, hscalar, xseries\n"
        "assert linalg.det.__wrapped__ is not None\n"
        "assert verify.det is linalg.det and taubuild.det is linalg.det\n"
        "assert symfun.det is linalg.det and hcalc.det is linalg.det\n"
        "assert taubuild.schur is symfun.schur\n"
        "assert tpoly.TPoly.__rmul__ is tpoly.TPoly.__mul__\n"
        "assert tpoly.TPoly.__radd__ is tpoly.TPoly.__add__\n"
        "assert hscalar.HPoly.__rmul__ is hscalar.HPoly.__mul__\n"
        "assert xseries.XSeries.__rmul__ is xseries.XSeries.__mul__\n"
        "assert verify.miwa_shift is hcalc.miwa_shift\n"
    )
    env = {"PYTHONPATH": f"{BENCH.parent / 'src'}:{BENCH}", "PATH": "/usr/bin:/bin"}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_tracing_leaves_verdicts_and_digests_unchanged(tmp_path):
    key = cases.case_list("verify", 0)[1]
    golden = run.load_golden("verify")
    deadline = time.monotonic() + 120
    plain = run.run_worker("verify", key, False, deadline, tmp_path / "plain")
    spans = tmp_path / "spans.tsv.gz"
    traced = run.run_worker("verify", key, True, deadline, tmp_path / "traced", spans)
    assert run.judge("verify", plain, golden) == []
    assert run.judge("verify", traced, golden) == []
    assert traced["verdicts"] == plain["verdicts"]
    assert traced["digests"] == plain["digests"]
    layers = traced["layers"]
    assert layers["cli.main.calls"] == 6
    assert layers["verify.check_det_m.calls"] == 1
    assert layers.get("hscalar.HPoly.mul.calls", 0) == 0
    assert 0 < layers["verify.check_fay.self_ns"] <= layers["verify.check_fay.ns"]
    assert spans.stat().st_size > 0


def test_traced_build_case_records_the_library_entry_points(tmp_path):
    key = cases.case_list("build", 0)[0]
    traced = run.run_worker("build", key, True, time.monotonic() + 120,
                            tmp_path / "traced")
    assert run.judge("build", traced, run.load_golden("build")) == []
    layers = traced["layers"]
    assert layers["taubuild.tau_series.calls"] == 2
    assert layers["taubuild.extract_cauchy_like_tau.calls"] == 1
    assert layers["fbuild.f_series.calls"] == 1
    assert layers["fbuild.bridge_to_tau.calls"] == 1
    assert layers["linalg.det.size_max"] == cases.WORKLOADS["build"]["weight"]
    assert 0 <layers["cover.build.ns"] <= traced["case_s"] * 1e9
    assert layers["cover.build.ns"] <= layers["cover.taubuild.ns"] + layers["cover.fbuild.ns"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_compare_refuses_mixed_backends(tmp_path):
    def record(backend):
        return {"workload": "build", "trace": 0, "env": {"backend": backend},
                "summary": {"metrics": {"case_s": {"value": 1.0, "unit": "s"}}}}
    paths = []
    for backend in ("fractions.Fraction", "gmpy2.mpq"):
        path = tmp_path / f"{backend}.json"
        path.write_text(json.dumps(record(backend)))
        paths.append(str(path))
    assert compare.main(["--base", paths[0], "--new", paths[1]]) == 2
    assert compare.main(["--base", paths[0], "--new", paths[0]]) == 0


def test_clock_excludes_paused_work_and_samples_the_reference():
    code = (
        "import time, worker\n"
        "clock = worker.Clock(None, 'case')\n"
        "with clock:\n"
        "    time.sleep(0.02)\n"
        "    with clock.paused():\n"
        "        time.sleep(0.2)\n"
        "    time.sleep(0.02)\n"
        "assert 0.04 <= clock.seconds < 0.2, clock.seconds\n"
        "refs = iter([1.0, 2.0, 3.0])\n"
        "clock = worker.Clock(None, 'case', reference=lambda: next(refs))\n"
        "with clock:\n"
        "    with clock.paused():\n"
        "        pass\n"
        "assert [s[1:] for s in clock.segments] == [(1.0, 2.0), (2.0, 3.0)]\n"
        "clock = worker.Clock(None, 'case', reference=lambda: 1.0)\n"
        "with clock:\n"
        "    time.sleep(3.5 * worker.TICK_S)\n"
        "assert len(clock.segments) >= 3, clock.segments\n"
        "assert 3.5 * worker.TICK_S <= clock.seconds < 5 * worker.TICK_S, clock.seconds\n"
    )
    env = {"PYTHONPATH": f"{BENCH.parent / 'src'}:{BENCH}", "PATH": "/usr/bin:/bin"}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_normalised_time_rescales_by_the_reference():
    nominal = calibrate.NOMINAL_S
    assert calibrate.normalised([(1.0, nominal, nominal)]) == 1.0
    # A host at half speed: the reference and the wall time both double.
    assert calibrate.normalised([(2.0, 2 * nominal, 2 * nominal)]) == 1.0
    assert calibrate.normalised([(1.0, nominal, 3 * nominal), (0.5, nominal, nominal)]) == 1.0
