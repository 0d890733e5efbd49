"""Host-speed reference for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to 2x, on every time scale from milliseconds to minutes.  A 60 s run
cannot average out a slow or fast phase that lasts longer than the run,
so raw wall times of the same code spread past any useful bound.  The
worker therefore times this fixed reference around every stage of a case
and every 50 ms inside it, which splits the stage into short segments,
and run.py rescales each segment to the host speed at which the
reference takes ``NOMINAL_S``:

    normalised seconds = wall seconds * NOMINAL_S / reference seconds

The reference is benchmark code, never hbarkp, so a change to the
program moves the normalised times exactly as it moves the wall times
on a steady host.  It does the kind of work hbarkp spends its time on:
sparse products over dicts with integer keys and gcd-reduced big-integer
coefficients (the core of ``TPoly.__mul__`` over ``Fraction``).  It
allocates nothing the cyclic garbage collector tracks, so running it
inside a stage does not move collection work into or out of it.

Standard library only.
"""

from __future__ import annotations

import math
import time

# Seconds one sample takes on the host the benchmark was calibrated on
# (2-vCPU Intel Xeon VM, Python 3.11.7) in a steady phase.  A fixed
# constant: it only sets the scale, and both sides of a comparison use it.
NOMINAL_S = 0.0021
# Operand size, and products per sample.
_TERMS = 36
_CALLS = 2

_A = {(i * 37) % 1009: (i * 7919 + 13) ** 3 for i in range(_TERMS)}
_B = {(i * 53) % 997: (i * 104729 + 7) ** 3 for i in range(_TERMS)}


def _product() -> int:
    out = {}
    for ka, va in _A.items():
        for kb, vb in _B.items():
            k = ka + kb
            v = va * vb
            v //= math.gcd(v, k + 1)
            out[k] = out.get(k, 0) + v
    return len(out)


def sample() -> float:
    """Seconds of one reference unit."""
    t0 = time.perf_counter()
    for _ in range(_CALLS):
        _product()
    return time.perf_counter() - t0


def normalised(segments) -> float:
    """Normalised seconds of timed segments ``(wall, ref_before, ref_after)``:
    each segment is rescaled by the mean of the samples taken around it."""
    return sum(wall * NOMINAL_S / ((before + after) / 2) for wall, before, after in segments)
