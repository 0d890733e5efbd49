"""Run one benchmark case in a fresh interpreter.

Started by run.py as ``python3 perfbench/worker.py --trace 0|1`` with
``src`` on PYTHONPATH.  Protocol, one JSON line each way: the worker
imports hbarkp (and installs the tracer when asked), prints a ready line,
reads one case spec from stdin, runs it, prints one result line and
exits.  Inputs are generated before the clock starts; digests of the
canonical outputs are taken after it stops, with recording off.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import signal
import sys
import time
import traceback
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from random import Random

# Library functions are called through their modules, so that the
# tracer's rebinding of module attributes reaches these calls too.
from hbarkp import HContext, cli, dataio, fbuild, taubuild, verify
from hbarkp.fbuild import FSeries
from hbarkp.partitions import Partition
from hbarkp.rational import Rational
from hbarkp.sampling import random_f_data, random_tau_data
from hbarkp.taubuild import TauSeries
from hbarkp.xseries import XSeries

import calibrate
import cases
import tracer as tracing


# Seconds between reference samples inside a timed segment.  The host's
# speed wanders on every time scale from milliseconds up: with samples only
# around each stage of a case, the same case still spread by 0.10 between
# runs; with a sample every 50 ms, by 0.02.
TICK_S = 0.05


class Clock:
    """Case timer; switches span recording on for exactly the timed part.

    ``paused()`` stops the clock and the tracer for benchmark-side work
    inside a case, so that the timed segments cover only the program's
    own calls.  The clock samples the host-speed reference
    (calibrate.py), untimed and untraced, around every segment and, on
    untraced cases, every TICK_S seconds inside it (a SIGALRM handler
    that splits the segment).  Each segment is kept as
    ``(wall, reference before, reference after)``.  Traced cases take no
    ticks, because the tracer's spans would count them.
    """

    def __init__(self, tracer, case, reference=calibrate.sample):
        self.tracer = tracer
        self.case = case
        self.reference = reference
        self.segments = []
        self.ref = None
        self.ticking = tracer is None
        self.running = False
        if self.ticking:
            signal.signal(signal.SIGALRM, self._tick)

    @property
    def seconds(self) -> float:
        return sum(wall for wall, _, _ in self.segments)

    def _close(self, wall):
        after = self.reference()
        self.segments.append((wall, self.ref, after))
        self.ref = after

    def _tick(self, signum, frame):
        if not self.running:  # the timer fired as the clock paused
            return
        self._close(time.perf_counter() - self.t0)
        self.t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, TICK_S)

    def _resume(self):
        if self.ref is None:
            self.ref = self.reference()
        if self.tracer is not None:
            self.tracer.start(self.case)
        self.t0 = time.perf_counter()
        if self.ticking:
            self.running = True
            signal.setitimer(signal.ITIMER_REAL, TICK_S)

    def _pause(self):
        if self.ticking:
            self.running = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - self.t0
        if self.tracer is not None:
            self.tracer.stop()
        self._close(wall)

    def __enter__(self):
        self._resume()
        return self

    def __exit__(self, *exc):
        self._pause()
        return False

    @contextmanager
    def paused(self):
        self._pause()
        try:
            yield
        finally:
            self._resume()


def _context(workload: str, hbar: str) -> HContext:
    if hbar == cases.FORMAL:
        return HContext.symbolic(*cases.WORKLOADS[workload]["window"])
    return HContext.numeric(hbar)


def _corrupt_tau(ts: TauSeries) -> TauSeries:
    table = dict(ts.table)
    lam = Partition(cases.CORRUPT_LAMBDA)
    base = table[lam]
    bump = Rational(cases.C_BUMP.numerator, cases.C_BUMP.denominator)
    table[lam] = base + XSeries(base.ctx, base.cap, [bump], valid=base.cap)
    return TauSeries(ts.ctx, ts.weight_cap, ts.x_cap, table)


def _corrupt_f(fs: FSeries) -> FSeries:
    table = dict(fs.table)
    lam = Partition(cases.CORRUPT_LAMBDA)
    bump = Rational(cases.F_BUMP.numerator, cases.F_BUMP.denominator)
    table[lam] = table[lam] + XSeries.constant(fs.ctx, fs.x_cap, bump)
    return FSeries(fs.ctx, fs.weight_cap, fs.x_cap, fs.f0, table, symbolic=False)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _verdict_doc(res) -> str:
    return dataio.dump({"identity": res.identity, "caps": res.caps,
                        "pass": res.passed, "worst_monomial": res.worst})


def _inputs(workload, spec):
    size = cases.WORKLOADS[workload]
    ctx = _context(workload, spec["hbar"])
    W, X = size["weight"], size["x_order"]
    data = random_tau_data(Random(spec["data_seed"]), ctx, W, X)
    fdata = random_f_data(Random(spec["data_seed"] + cases.F_SEED_OFFSET), ctx, W, X)
    return ctx, data, fdata


def case_build(spec, clock, work):
    """tau build with round trip, F build, log bridge; no residual checks."""
    ctx, data, fdata = _inputs("build", spec)
    W = data.weight_cap
    bad = spec["corrupt"]
    with clock:
        ts = taubuild.tau_series(data)
        if bad:
            ts = _corrupt_tau(ts)
        tau = ts.assemble()
        back = taubuild.extract_cauchy_like_tau(tau, W, data.x_cap)
        round_trip = all(back.series(k) == data.series(k) for k in range(W + 1))
        fs = fbuild.f_series(fdata)
        if bad:
            fs = _corrupt_f(fs)
        F = fs.assemble()
        ts2 = taubuild.tau_series(fbuild.bridge_to_tau(fdata))
        tau2 = ts2.assemble()
        log_bridge = tau2.log_unit().scale(ctx.hbar_pow(2)) == F
    verdicts = {"round_trip": "pass" if round_trip else "fail",
                "log_bridge": "pass" if log_bridge else "fail"}
    digests = {
        "tau": _sha(dataio.dump(dataio.tau_series_to_document(ts))),
        "fseries": _sha(dataio.dump(dataio.f_series_to_document(fs))),
        "bridge": _sha(dataio.dump(dataio.tau_series_to_document(ts2))),
        "verdicts": _sha(dataio.dump(verdicts)),
    }
    return verdicts, digests


def _bump_json(path: Path, out: Path, table: str, delta: Fraction) -> None:
    doc = json.loads(path.read_text())
    series = doc[table][",".join(map(str, cases.CORRUPT_LAMBDA))]
    series[0] = str(Fraction(series[0]) + delta)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def case_verify(spec, clock, work):
    """The CLI in process on JSON files; exit codes are the verdicts."""
    _, data, fdata = _inputs("verify", spec)
    z = cases.WORKLOADS["verify"]["z_order"]
    Z = str(z)
    tau_in, f_in = work / "tau_in.json", work / "f_in.json"
    tau_in.write_text(json.dumps(dataio.tau_data_to_document(data, z)))
    f_in.write_text(json.dumps(dataio.f_data_to_document(fdata, z)))
    bad = spec["corrupt"]
    codes = {}
    with clock:
        codes["tau"] = cli.main(["tau", "--input", str(tau_in),
                                 "--output", str(work / "tau.json"), "--z-order", Z])
        table = work / "tau.json"
        if bad:
            table = work / "tau_bad.json"
            with clock.paused():
                _bump_json(work / "tau.json", table, "c_lambda", cases.C_BUMP)
        for check in ("fay", "hirota3", "detm"):
            codes[check] = cli.main(["verify", check, "--input", str(table),
                                     "--points", "3", "--z-order", Z,
                                     "--output", str(work / f"v_{check}.json")])
        codes["fseries"] = cli.main(["fseries", "--input", str(f_in),
                                     "--output", str(work / "f.json"), "--z-order", Z])
        table = work / "f.json"
        if bad:
            table = work / "f_bad.json"
            with clock.paused():
                _bump_json(work / "f.json", table, "f_lambda", cases.F_BUMP)
        codes["kp2"] = cli.main(["verify", "kp2", "--input", str(table),
                                 "--z-order", Z, "--output", str(work / "v_kp2.json")])
    names = {0: "pass", 1: "fail"}
    verdicts = {c: names.get(codes[c], f"exit {codes[c]}")
                for c in ("fay", "hirota3", "detm", "kp2")}
    for stage in ("tau", "fseries"):
        if codes[stage] != 0:
            verdicts[stage] = f"exit {codes[stage]}"
    outputs = ("tau", "f", "v_fay", "v_hirota3", "v_detm", "v_kp2")
    digests = {name: hashlib.sha256((work / f"{name}.json").read_bytes()).hexdigest()
               for name in outputs if (work / f"{name}.json").exists()}
    return verdicts, digests


def case_symbolic(spec, clock, work):
    """The full library pipeline with formal hbar."""
    _, data, fdata = _inputs("symbolic", spec)
    Z = cases.WORKLOADS["symbolic"]["z_order"]
    bad = spec["corrupt"]
    with clock:
        ts = taubuild.tau_series(data)
        if bad:
            ts = _corrupt_tau(ts)
        tau = ts.assemble()
        results = {"fay": verify.check_fay(tau, Z),
                   "hirota3": verify.check_hirota3(tau, Z),
                   "detm": verify.check_det_m(tau, 3, Z)}
        fs = fbuild.f_series(fdata)
        if bad:
            fs = _corrupt_f(fs)
        results["kp2"] = verify.check_kp2(fs.assemble(), Z)
    verdicts = {c: "pass" if r.passed else "fail" for c, r in results.items()}
    digests = {
        "tau": _sha(dataio.dump(dataio.tau_series_to_document(ts))),
        "fseries": _sha(dataio.dump(dataio.f_series_to_document(fs))),
        **{f"v_{c}": _sha(_verdict_doc(r)) for c, r in results.items()},
    }
    return verdicts, digests


CASES = {"build": case_build, "verify": case_verify, "symbolic": case_symbolic}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    print(json.dumps({"backend": f"{Rational.__module__}.{Rational.__name__}"}), flush=True)
    spec = json.loads(sys.stdin.readline())
    spec.update(cases.parse_key(spec["key"]))
    work = Path(spec["work"])
    clock = Clock(tracer, spec["key"])
    result = {"key": spec["key"]}
    try:
        verdicts, digests = CASES[spec["workload"]](spec, clock, work)
        result.update(wall_s=clock.seconds, segments=clock.segments,
                      verdicts=verdicts, digests=digests)
    except Exception:
        traceback.print_exc()
        result["error"] = traceback.format_exc(limit=1).strip().splitlines()[-1]
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["layers"] = tracer.summary()
    print(json.dumps(result), flush=True)
    if tracer is not None and spec.get("spans"):
        tracer.write_spans(spec["spans"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
