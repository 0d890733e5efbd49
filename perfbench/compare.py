"""Compare two sets of run records written by run.py.

    python3 perfbench/compare.py --base .perfbench/results/A*.json \
        --new B*.json

For every metric of the records, prints each side's median and
quartiles and the change of the medians as a share of the base median.
Refuses (exit 2) to compare records of different workloads, trace modes
or rational backends: a Fraction run and a gmpy2 run measure different
arithmetic.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    sides = {}
    for side in ("base", "new"):
        sides[side] = []
        for path in getattr(args, side):
            with open(path) as fh:
                sides[side].append(json.load(fh))
    identity = {(r["workload"], r["trace"], r["env"]["backend"])
                for records in sides.values() for r in records}
    if len(identity) != 1:
        print(f"error: records differ in workload, trace mode or backend: "
              f"{sorted(identity)}", file=sys.stderr)
        return 2
    print(f"{'metric':40} {'base median [q1, q3]':>34} {'new median [q1, q3]':>34} {'change':>8}")
    names = sides["base"][0]["summary"]["metrics"]
    for name in names:
        stats = []
        for side in ("base", "new"):
            values = [r["summary"]["metrics"][name]["value"] for r in sides[side]]
            stats.append(_quartiles(values))
        (b1, b2, b3), (n1, n2, n3) = stats
        change = (n2 - b2) / b2 if b2 else float("nan")
        print(f"{name:40} {b2:12.5g} [{b1:9.5g}, {b3:9.5g}] "
              f"{n2:12.5g} [{n1:9.5g}, {n3:9.5g}] {change:+8.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
