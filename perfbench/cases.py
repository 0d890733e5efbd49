"""Workload definitions, the seeded case list and the known answers.

Standard library only: the runner imports this module without importing
hbarkp, so the process that keeps time never carries the library's state.

A case is one set of inputs carried from initial data to every verdict.
Its key names everything the worker needs: the data seed, the numeric hbar
(or "formal") and whether the coefficient tables are corrupted.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

# Sizes per workload.  ``checks`` are the verdicts a case returns, in order.
# build and verify use sizes one below the largest that fit: a case at
# W = 7 (build) or W = 5 (verify) takes 4-6 s on a 2-core machine, which
# leaves too few cases in a run for a steady median.  sweep.py reports the
# larger W.  symbolic cannot shrink: below W = X = Z = 4 a corrupted table
# passes some checks.
WORKLOADS = {
    # Nearly all time is linalg.det over XSeries (c_lambda) and TPoly
    # (Jacobi-Trudi schur); no residual checks run.  The round trip reads
    # back only c_0 and the one-row coefficients, so it cannot see a
    # corrupted c_(1,1): it passes on corrupted cases too.
    "build": {"weight": 6, "x_order": 6, "checks": ("round_trip", "log_bridge"),
              "blind": ("round_trip",)},
    # The CLI on JSON files; nearly all time is inside verify.check_*.
    # Caps (4, 4, 4) are those of tests/test_verify.py's detectability test.
    "verify": {"weight": 4, "x_order": 4, "z_order": 4,
               "checks": ("fay", "hirota3", "detm", "kp2")},
    # Formal hbar: every scalar is an HPoly.  The window is the one
    # test_symbolic_hbar_end_to_end grants.
    "symbolic": {"weight": 4, "x_order": 4, "z_order": 4, "window": (-30, 30),
                 "checks": ("fay", "hirota3", "detm", "kp2")},
}

HBARS = ("1/2", "2/3", "3/2")
FORMAL = "formal"
# Data seeds come from this pool, so that the golden digests of every case
# a seed can produce are recorded in golden/<workload>.json.
DATA_SEEDS = tuple(range(6))
# The F-side data of a case use their own stream of the same seed.
F_SEED_OFFSET = 1000
# A corrupted case adds C_BUMP to the constant term of c_(1,1) and F_BUMP
# to that of f_(1,1); both lie inside the region the checks determine
# (tests/test_verify.py).
CORRUPT_LAMBDA = (1, 1)
C_BUMP = Fraction(1)
F_BUMP = Fraction(1, 3)
# Cases per list; a run stops long before it reaches the end.
LIST_LENGTH = 240


def case_key(data_seed: int, hbar: str, corrupt: bool) -> str:
    return f"{data_seed}:{hbar}:{'bad' if corrupt else 'ok'}"


def parse_key(key: str) -> dict:
    seed, hbar, state = key.split(":")
    return {"data_seed": int(seed), "hbar": hbar, "corrupt": state == "bad"}


def all_keys(workload: str) -> list[str]:
    hbars = (FORMAL,) if workload == "symbolic" else HBARS
    return [case_key(s, h, c) for s in DATA_SEEDS for h in hbars for c in (False, True)]


def case_list(workload: str, seed: int) -> list[str]:
    """The case keys of one run, fixed by the workload and the seed.

    Cases alternate valid / corrupted and come in blocks of six.  A block
    uses every data seed of the pool once, in a seeded order, and gives
    each numeric hbar one valid and one corrupted case, in a seeded
    order.  So runs with different seeds carry nearly the same mix of
    cheap and dear data, and their medians differ little.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = Random(f"{workload}:{seed}")
    hbars = (FORMAL,) * 3 if workload == "symbolic" else HBARS
    keys: list[str] = []
    while len(keys) < LIST_LENGTH:
        data_seeds = rng.sample(DATA_SEEDS, len(DATA_SEEDS))
        valid_h, bad_h = rng.sample(hbars, 3), rng.sample(hbars, 3)
        for i, (hv, hb) in enumerate(zip(valid_h, bad_h)):
            keys.append(case_key(data_seeds[2 * i], hv, False))
            keys.append(case_key(data_seeds[2 * i + 1], hb, True))
    return keys


def expected_verdicts(workload: str, corrupt: bool) -> dict:
    """Known answer: a valid case passes every check, a corrupted one
    fails every check that can see the corruption."""
    spec = WORKLOADS[workload]
    return {check: "fail" if corrupt and check not in spec.get("blind", ()) else "pass"
            for check in spec["checks"]}
