"""Report-only sweep over the weight cap W; never gated.

    python3 perfbench/sweep.py

Times the tau build (tau_series, then assemble) at W = 4..8 and each
residual check at W = 4..6, with hbar = 1/2, data seed 7 and
X = Z = W.  Each stage runs in a fresh child process (this script with
--stage) under a limit of STAGE_LIMIT_S seconds; a stage over the limit
reads "timeout".
Prerequisites of a stage (the data, the assembled tau or F) are built
before its clock starts.  Prints one JSON object per stage and writes all
of them to .perfbench/sweep.json.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD_STAGES = ("tau_series", "assemble")
CHECK_STAGES = ("fay", "hirota3", "detm3", "kp2")
SEED = 7
STAGE_LIMIT_S = 120.0


def plan() -> list[tuple[str, int]]:
    return ([(s, w) for w in range(4, 9) for s in BUILD_STAGES]
            + [(s, w) for w in range(4, 7) for s in CHECK_STAGES])


def time_stage(stage: str, W: int) -> float:
    from random import Random

    from hbarkp import HContext
    from hbarkp.fbuild import f_series
    from hbarkp.sampling import random_f_data, random_tau_data
    from hbarkp.taubuild import tau_series
    from hbarkp.verify import check_det_m, check_fay, check_hirota3, check_kp2

    ctx = HContext.numeric("1/2")
    if stage == "kp2":
        F = f_series(random_f_data(Random(SEED), ctx, W, W)).assemble()
        t0 = time.perf_counter()
        check_kp2(F, W)
        return time.perf_counter() - t0
    data = random_tau_data(Random(SEED), ctx, W, W)
    t0 = time.perf_counter()
    ts = tau_series(data)
    if stage == "tau_series":
        return time.perf_counter() - t0
    t0 = time.perf_counter()
    tau = ts.assemble()
    if stage == "assemble":
        return time.perf_counter() - t0
    check = {"fay": lambda: check_fay(tau, W), "hirota3": lambda: check_hirota3(tau, W),
             "detm3": lambda: check_det_m(tau, 3, W)}[stage]
    t0 = time.perf_counter()
    check()
    return time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--stage", choices=BUILD_STAGES + CHECK_STAGES,
                        help=argparse.SUPPRESS)
    parser.add_argument("--weight", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.stage:
        print(json.dumps({"seconds": time_stage(args.stage, args.weight)}))
        return 0

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    rows = []
    for stage, W in plan():
        row = {"stage": stage, "W": W}
        try:
            done = subprocess.run(
                [sys.executable, __file__, "--stage", stage, "--weight", str(W)],
                capture_output=True, text=True, timeout=STAGE_LIMIT_S, env=env, cwd=ROOT)
            if done.returncode == 0:
                row["seconds"] = json.loads(done.stdout.splitlines()[-1])["seconds"]
            else:
                row["error"] = done.stderr.strip().splitlines()[-1]
        except subprocess.TimeoutExpired:
            row["seconds"] = "timeout"
        print(json.dumps(row), flush=True)
        rows.append(row)
    out = ROOT / ".perfbench" / "sweep.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(rows, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
