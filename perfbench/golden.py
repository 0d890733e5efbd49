"""Record the golden digests of every case a workload can produce.

    python3 perfbench/golden.py --workload build|verify|symbolic

Runs each case key of the pool once, untraced, in a fresh worker, and
writes golden/<workload>.json.  A case whose verdicts differ from the
known answer is not recorded and the script exits 1: a digest is only
golden when the verdicts it comes with are right.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import cases
import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(cases.WORKLOADS))
    args = parser.parse_args(argv)
    digests, wrong = {}, 0
    for key in cases.all_keys(args.workload):
        result = run.run_worker(args.workload, key, False, time.monotonic() + 600,
                                run.OUT / "work" / f"golden-{args.workload}")
        errors = run.judge(args.workload, result, {key: result.get("digests")})
        if errors:
            wrong += 1
            print(f"{key}: {errors}", flush=True)
            continue
        digests[key] = result["digests"]
        print(f"{key}: {result['case_s']:.2f} s", flush=True)
    path = run.BENCH / "golden" / f"{args.workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
