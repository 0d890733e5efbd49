"""Deterministic random objects for property tests and the CLI.

All generation goes through a caller-supplied ``random.Random`` so a seed
pins every byte of downstream output.  Coefficients are small rationals
p/q with p in [-3, 3] and q in [1, 4].
"""

from __future__ import annotations

from random import Random

from .fbuild import FData
from .hscalar import HContext
from .rational import Rational
from .taubuild import TauData
from .tpoly import TPoly, weight_of
from .xseries import XSeries


def random_rational(rng: Random, nonzero=False):
    while True:
        p = rng.randint(-3, 3)
        if nonzero and p == 0:
            continue
        return Rational(p, rng.randint(1, 4))


def random_xseries(rng: Random, ctx: HContext, cap: int,
                   nonzero_const=False, zero_const=False) -> XSeries:
    coeffs = [random_rational(rng) for _ in range(cap + 1)]
    if nonzero_const and coeffs[0] == 0:
        coeffs[0] = random_rational(rng, nonzero=True)
    if zero_const:
        coeffs[0] = Rational(0)
    return XSeries(ctx, cap, coeffs)


def random_tpoly(rng: Random, ctx: HContext, weight_cap: int,
                 n_terms: int = 4, max_weight: int | None = None) -> TPoly:
    """Sparse random time polynomial (scalar coefficients)."""
    if max_weight is None:
        max_weight = weight_cap
    terms = {}
    for _ in range(n_terms):
        while True:
            nvars = rng.randint(0, 3)
            texp = [0] * max(nvars, 1)
            for _ in range(nvars):
                texp[rng.randint(0, len(texp) - 1)] += 1
            texp = tuple(texp)
            if weight_of(texp) <= max_weight:
                break
        key = (texp, ())
        terms[key] = terms.get(key, Rational(0)) + random_rational(rng)
    return TPoly(ctx, weight_cap, 0, 0, terms)


def random_tau_data(rng: Random, ctx: HContext, weight_cap: int,
                    x_cap: int) -> TauData:
    c = [random_xseries(rng, ctx, x_cap, nonzero_const=True)]
    for _ in range(weight_cap):
        c.append(random_xseries(rng, ctx, x_cap))
    return TauData(ctx, weight_cap, x_cap, tuple(c))


def random_f_data(rng: Random, ctx: HContext, weight_cap: int,
                  x_cap: int) -> FData:
    """Random F data; f_0 has a zero constant term."""
    f0 = random_xseries(rng, ctx, x_cap, zero_const=True)
    fs = tuple(random_xseries(rng, ctx, x_cap) for _ in range(weight_cap))
    return FData(ctx, weight_cap, x_cap, f0, fs)


def random_rational_matrix(rng: Random, n: int):
    return [[random_rational(rng) for _ in range(n)] for _ in range(n)]
