"""hbarkp benchmark: time from written inputs to the last verdict.

    python3 perfbench/run.py --workload build|verify|symbolic \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Closed loop with one client: one case
at a time, each in a fresh worker process, at most one worker alive.  So
every case pays interpreter start-up, ``import hbarkp`` and the lazy
``functools.cache`` fills, as a user who runs ``hbarkp tau`` and then
``hbarkp verify`` does.  Cases start until ``--seconds`` have passed.

Every case is checked against a known answer (cases.expected_verdicts)
and against golden digests of its canonical outputs in
``golden/<workload>.json``.  A case fails on a wrong verdict, a digest
mismatch, an exception, a CLI exit code other than 0/1, a traceback on
stderr or a worker that does not answer in time.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
case twice, untraced and traced, requires identical verdicts and digests,
and reports the per-layer metrics of tracer.py plus the tracing overhead.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A record with the environment and every
case goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import cases
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench"
HARD_LIMIT_S = 170.0  # the whole run, whatever --seconds says

END_TO_END = {
    "case_s": "s",
    "cases_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class CaseTimeout(Exception):
    pass


def environment() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "loadavg": os.getloadavg(),
    }


def _read_line(proc, deadline: float) -> str:
    remaining = deadline - time.monotonic()
    if remaining <= 0 or not select.select([proc.stdout], [], [], remaining)[0]:
        raise CaseTimeout("worker did not answer in time")
    return proc.stdout.readline()


def run_worker(workload: str, key: str, trace: bool, deadline: float,
               work: Path, spans: Path | None = None) -> dict:
    """Run one case in a fresh worker; return its result plus the exit
    code, the stderr text and the case's times in normalised seconds
    (calibrate.py): case_s and setup_s.  The wall times are kept as
    wall_s and setup_wall_s."""
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    errpath = work / "stderr.txt"
    with open(errpath, "w") as err:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), "--trace", str(int(trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
            cwd=ROOT, env=env, text=True)
        try:
            ready = json.loads(_read_line(proc, deadline) or "{}")
            setup_s = time.perf_counter() - t_spawn
            spec = {"workload": workload, "key": key, "work": str(work),
                    "spans": str(spans) if spans else None}
            proc.stdin.write(json.dumps(spec) + "\n")
            proc.stdin.flush()
            line = _read_line(proc, deadline)
            result = json.loads(line) if line else {"error": "worker died"}
            proc.wait(timeout=max(deadline - time.monotonic(), 0.1))
        except (CaseTimeout, subprocess.TimeoutExpired) as exc:
            result, ready, setup_s = {"error": f"timeout: {exc}"}, {}, None
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdin.close()
            proc.stdout.close()
    result.update(setup_wall_s=setup_s, backend=ready.get("backend"),
                  exit_code=proc.returncode, stderr=errpath.read_text())
    segments = result.get("segments")
    if segments and setup_s is not None:
        # Set-up has no samples of its own; it is rescaled by the case's
        # median sample.
        refs = [segments[0][1]] + [after for _, _, after in segments]
        result["speed"] = calibrate.NOMINAL_S / statistics.median(refs)
        result["case_s"] = calibrate.normalised(segments)
        result["setup_s"] = setup_s * result["speed"]
    shutil.rmtree(work, ignore_errors=True)
    return result


def judge(workload: str, result: dict, golden: dict) -> list[str]:
    """Reasons this case failed; empty when it is correct."""
    errors = []
    if "error" in result:
        errors.append(result["error"])
    if result["exit_code"] != 0:
        errors.append(f"worker exit code {result['exit_code']}")
    if "Traceback" in result["stderr"]:
        errors.append("traceback on stderr")
    if "verdicts" in result:
        expected = cases.expected_verdicts(workload, cases.parse_key(result["key"])["corrupt"])
        if result["verdicts"] != expected:
            errors.append(f"verdicts {result['verdicts']} != {expected}")
        want = golden.get(result["key"])
        if want is None:
            errors.append("no golden digests for this case")
        elif result["digests"] != want:
            bad = sorted(k for k in set(want) | set(result["digests"])
                         if want.get(k) != result["digests"].get(k))
            errors.append(f"digest mismatch: {bad}")
    return errors


def load_golden(workload: str) -> dict:
    return json.loads((BENCH / "golden" / f"{workload}.json").read_text())


def end_to_end(records: list[dict]) -> dict:
    """The gated metrics, in normalised seconds: median case and set-up
    times, and completed cases per second of set-up plus case time, which
    leaves out the benchmark's own work (inputs, digests, samples)."""
    done = [r for r in records if r.get("case_s") is not None]
    times = [r["case_s"] for r in done]
    setups = [r["setup_s"] for r in records if r.get("setup_s") is not None]
    busy = sum(r["setup_s"] + r["case_s"] for r in done)
    values = {
        "case_s": statistics.median(times) if times else 0.0,
        "cases_per_s": len(done) / busy if busy else 0.0,
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": max((r["maxrss_kb"] or 0 for r in records), default=0) / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def wall_figures(records: list[dict], wall_s: float) -> dict:
    """The end-to-end figures in wall seconds, and the median host speed
    (NOMINAL_S / reference seconds; above 1 is faster than nominal).
    Reported, never gated."""
    def median(field):
        values = [r[field] for r in records if r.get(field) is not None]
        return statistics.median(values) if values else 0.0
    return {"case_s": median("wall_s"), "setup_s": median("setup_wall_s"),
            "cases_per_s": len([r for r in records if r.get("case_s")]) / wall_s,
            "host_speed": median("speed")}


def per_layer(pairs: list[tuple[dict, dict]]) -> dict:
    """Per-case means of the traced counters, ratios of their sums, and
    the share of traced case time each module covers.  Span times are
    rescaled to normalised seconds with each case's own factor."""
    layers = []
    for _, t in pairs:
        if "layers" in t and t.get("wall_s"):
            factor = t["case_s"] / t["wall_s"]
            layers.append({k: v * factor if k.endswith((".ns", "_ns")) else v
                           for k, v in t["layers"].items()})
    n = max(len(layers), 1)
    total = {}
    for layer in layers:
        for k, v in layer.items():
            total[k] = total.get(k, 0) + v
    traced_s = [t["case_s"] for _, t in pairs if t.get("case_s") is not None]
    plain_s = [p["case_s"] for p, _ in pairs if p.get("case_s") is not None]
    out = {}
    for name in tracer.SPAN_NAMES:
        out[f"{name}.calls"] = total.get(f"{name}.calls", 0) / n
        out[f"{name}.s"] = total.get(f"{name}.ns", 0) / n / 1e9
        out[f"{name}.self_s"] = total.get(f"{name}.self_ns", 0) / n / 1e9
    out["linalg.det.size_max"] = max((l.get("linalg.det.size_max", 0) for l in layers),
                                     default=0)
    for name in ("linalg.det.ring_muls", "symfun.schur.misses",
                 "tpoly.TPoly.mul.pairs", "tpoly.TPoly.mul.terms_out",
                 "hcalc.miwa_shift.terms_in", "hcalc.miwa_shift.terms_out"):
        out[name] = total.get(name, 0) / n
    pairs_seen = total.get("tpoly.TPoly.mul.pairs", 0)
    out["tpoly.TPoly.mul.kept_ratio"] = (
        total.get("tpoly.TPoly.mul.terms_out", 0) / pairs_seen if pairs_seen else 0.0)
    for check in tracer.CHECKS:
        name = f"verify.{check}"
        resid = total.get(f"{name}.residual_terms", 0)
        out[f"{name}.residual_terms"] = resid / n
        out[f"{name}.trusted_share"] = (
            total.get(f"{name}.trusted_terms", 0) / resid if resid else 0.0)
    traced_ns = sum(traced_s) * 1e9
    for group in tracer.MODULES + tuple(tracer.GROUPS):
        out[f"cover.{group}"] = total.get(f"cover.{group}.ns", 0) / traced_ns if traced_ns else 0.0
    out["trace.case_s"] = statistics.median(traced_s) if traced_s else 0.0
    out["trace.plain_case_s"] = statistics.median(plain_s) if plain_s else 0.0
    ratios = [t["case_s"] / p["case_s"] for p, t in pairs
              if p.get("case_s") and t.get("case_s")]
    out["trace.overhead"] = statistics.median(ratios) - 1 if ratios else 0.0
    units = {"calls": "count", "s": "s", "self_s": "s", "kept_ratio": "ratio",
             "trusted_share": "ratio", "overhead": "ratio", "case_s": "s",
             "plain_case_s": "s"}
    return {k: {"value": out[k],
                "unit": "ratio" if k.startswith("cover.") else units.get(k.rsplit(".", 1)[1], "count")}
            for k in tracer.metric_names()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(cases.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hbarkp" / "__init__.py").is_file():
        print(f"error: no hbarkp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        golden = load_golden(args.workload)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read golden digests: {exc}", file=sys.stderr)
        return 2

    env = environment()
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_root = OUT / "work" / tag
    spans_dir = OUT / "spans" / tag
    if args.trace:
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir(parents=True)
    records, pairs, failed = [], [], 0
    t_first = time.perf_counter()
    for i, key in enumerate(cases.case_list(args.workload, args.seed)):
        if time.monotonic() - start >= args.seconds or time.monotonic() >= deadline:
            break
        plain = run_worker(args.workload, key, False, deadline, work_root / f"case{i}")
        errors = judge(args.workload, plain, golden)
        record = {"key": key, **{k: plain.get(k) for k in
                                 ("case_s", "setup_s", "wall_s", "setup_wall_s", "speed",
                                  "maxrss_kb", "verdicts", "backend")}}
        if args.trace:
            traced = run_worker(args.workload, key, True, deadline,
                                work_root / f"case{i}t", spans_dir / f"case{i}.tsv.gz")
            errors += [f"traced: {e}" for e in judge(args.workload, traced, golden)]
            for field in ("verdicts", "digests"):
                if traced.get(field) != plain.get(field):
                    errors.append(f"traced {field} differ from untraced")
            pairs.append((plain, traced))
            record["traced_case_s"] = traced.get("case_s")
        record["errors"] = errors
        failed += bool(errors)
        records.append(record)
        if "timeout" in " ".join(errors):
            break
    wall_s = time.perf_counter() - t_first
    shutil.rmtree(work_root, ignore_errors=True)

    backends = {r["backend"] for r in records if r["backend"]}
    env["backend"] = "/".join(sorted(backends)) or "unknown"
    metrics = per_layer(pairs) if args.trace else end_to_end(records)
    wall = wall_figures(records, wall_s)
    attempted = len(records)
    summary = {"correct": attempted > 0 and failed == 0, "attempted": attempted,
               "failed": failed, "metrics": metrics}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "env": env, "failed_share": failed / max(attempted, 1),
         "wall": wall,
         "summary": summary, "cases": records}, indent=1))
    for r in records:
        for e in r["errors"]:
            print(f"case {r['key']}: {e}")
    print(json.dumps({"env": env, "failed_share": failed / max(attempted, 1), "wall": wall}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
