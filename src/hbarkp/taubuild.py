"""Building tau-function formal series from initial data.

The data are series c_0(x), c_1(x), ... with c_0 invertible at x = 0.  The
coefficient attached to the Schur element of a diagram with rows lam_i is
the determinant

    c_lam = c_0^{1 - ell} * det_{ij}[ sum_{k=0}^{j-1} (-hbar)^k C(j-1, k)
                                      d_x^k c_{lam_i - i + j - k} ]

(with c_m = 0 for m < 0), and the full series is
tau = sum_lam c_lam(x) s_lam(t / hbar).  Conversely the data are recovered
from tau as c_0 = tau(x; 0) and c_k = (hbar/k) * (deformed d_k) tau at
t = 0; both directions are exposed here and round-trip.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .hscalar import HContext, scalar_is_zero
from .linalg import det
from .partitions import Partition, partitions_upto
from .rational import Rational
from .symfun import schur
from .tpoly import TPoly
from .hcalc import dh_apply
from .xseries import XSeries


@dataclass(frozen=True)
class TauData:
    """Initial data for a tau series: c_k(x) for k = 0..K."""

    ctx: HContext
    weight_cap: int
    x_cap: int
    c: tuple

    def __post_init__(self):
        if not self.c:
            raise ValueError("need at least c_0")
        for s in self.c:
            if not isinstance(s, XSeries):
                raise TypeError("data entries must be XSeries")
            if s.ctx != self.ctx or s.cap != self.x_cap:
                raise ValueError("data series disagree with declared ctx/caps")
        c0 = self.c[0].constant_term()
        if scalar_is_zero(c0):
            raise ValueError("c_0 must have an invertible constant term")

    @property
    def K(self) -> int:
        return len(self.c) - 1

    def series(self, k: int) -> XSeries:
        """c_k, with c_k = 0 for k < 0."""
        if k < 0:
            return XSeries.zero(self.ctx, self.x_cap)
        if k > self.K:
            raise ValueError(f"data only go up to index {self.K}")
        return self.c[k]


def c_lambda(lam, data: TauData, _dcache: dict | None = None) -> XSeries:
    """Coefficient series of one diagram (see module docstring)."""
    lam = Partition(lam)
    n = lam.ell
    if n == 0:
        return data.series(0)
    if lam.weight > data.K:
        raise ValueError("data index cap too small for this diagram")
    dcache = _dcache if _dcache is not None else {}
    ctx = data.ctx

    def dx(m: int, k: int) -> XSeries:
        key = (m, k)
        if key not in dcache:
            dcache[key] = data.series(m) if k == 0 else dx(m, k - 1).diff()
        return dcache[key]

    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            entry = None
            for k in range(j):
                m = lam[i - 1] - i + j - k
                if m < 0:
                    continue
                term = dx(m, k).scale(
                    Rational(comb(j - 1, k)) * ctx.hbar_pow(k) * Rational((-1) ** k)
                )
                entry = term if entry is None else entry + term
            # None: every c_m here has m < 0, a structural zero for det.
            row.append(0 if entry is None else entry)
        rows.append(row)
    d = det(rows)
    if n == 1:
        return d
    inv0 = dcache.get(("inv0",))
    if inv0 is None:
        inv0 = data.series(0).inverse()
        dcache[("inv0",)] = inv0
    return d * inv0.pow_int(n - 1)


@dataclass(frozen=True)
class TauSeries:
    """All coefficient series up to the weight cap, keyed by diagram."""

    ctx: HContext
    weight_cap: int
    x_cap: int
    table: dict

    def coefficient(self, lam) -> XSeries:
        return self.table[Partition(lam)]

    def assemble(self, z_cap: int = 0, nslots: int = 0) -> TPoly:
        """The polynomial sum of c_lam(x) * s_lam(t/hbar) up to the cap."""
        acc = TPoly.zero(self.ctx, self.weight_cap, z_cap, nslots)
        for lam, c in self.table.items():
            basis = schur(lam, self.ctx, self.weight_cap, z_cap, nslots)
            acc = acc + basis.times_over_hbar().scale(c)
        return acc


def tau_series(data: TauData, weight_cap: int | None = None) -> TauSeries:
    """Coefficients for every diagram of weight <= the cap."""
    W = data.weight_cap if weight_cap is None else weight_cap
    if data.K < W:
        raise ValueError("data index cap must reach the weight cap")
    dcache: dict = {}
    table = {
        lam: c_lambda(lam, data, dcache)
        for lam in partitions_upto(W)
    }
    return TauSeries(data.ctx, W, data.x_cap, table)


def _as_xseries(value, ctx: HContext, x_cap: int) -> XSeries:
    if isinstance(value, XSeries):
        return value
    return XSeries.constant(ctx, x_cap, value)


def extract_cauchy_like_tau(tau: TPoly, K: int, x_cap: int | None = None) -> TauData:
    """Recover the initial data from an assembled tau polynomial.

    c_0 = tau at t = 0, and c_k = (hbar/k) * (deformed d_k) tau at t = 0.
    """
    ctx = tau.ctx
    if x_cap is None:
        x_cap = next(
            (c.cap for c in tau.terms.values() if isinstance(c, XSeries)), 0
        )
    out = [_as_xseries(tau.constant_coeff(), ctx, x_cap)]
    for k in range(1, K + 1):
        v = dh_apply(k, tau).constant_coeff()
        s = _as_xseries(v, ctx, x_cap)
        out.append(s.scale(ctx.hbar_pow(1) * Rational(1, k)))
    return TauData(ctx, min(K, tau.weight_cap), x_cap, tuple(out))


def implied_log_f_derivative(data: TauData) -> XSeries:
    """Diagnostic: the x-derivative of log f implied by c_1 relative to a
    pure x-shift normalization, namely (d_x c_0 - c_1 / hbar) / c_0.

    The t_1-flow of the assembled tau equals d_1 tau = c_1/hbar at t = 0,
    so the x-shift gauge (tau depending on x + t_1 only) corresponds to
    c_1 = hbar * d_x c_0, for which this diagnostic vanishes."""
    c0 = data.series(0)
    d1_at_zero = data.series(1).scale(data.ctx.hbar_pow(-1))
    return (c0.diff() - d1_at_zero) * c0.inverse()
