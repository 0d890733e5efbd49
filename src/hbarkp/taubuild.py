"""Building tau-function formal series from initial data.

The data are series c_0(x), c_1(x), ... with c_0 invertible at x = 0.  The
coefficient attached to the Schur element of a diagram with rows lam_i is
the determinant

    c_lam = c_0^{1 - ell} * det_{ij}[ sum_{k=0}^{j-1} (-hbar)^k C(j-1, k)
                                      d_x^k c_{lam_i - i + j - k} ]

(with c_m = 0 for m < 0), and the full series is
tau = sum_lam c_lam(x) s_lam(t / hbar).  Conversely the data are the
coefficients of tau(x; hbar[z^{-1}]) = sum_k c_k z^{-k}: c_0 = tau(x; 0)
and c_k = (hbar/k) * (deformed d_k) tau at t = 0; both directions are
exposed here and round-trip.

``tau_series`` builds a whole table as one computation on integer codes:
c_0..c_K are encoded once (``xseries.Jets``), every entry is an
``xseries.Coded`` over one denominator, so a k-minor sits over its k-th
power without further bookkeeping, and each c_lam is decoded once.  The
entry in row i and column j depends only on the row label a = lam_i - i
and on j, so it is built once per table; the minors of the lower rows
are shared between diagrams under (labels of those rows, columns)
through ``linalg.det``'s ``row_keys``/``memo``; and each power
c_0^{-(ell-1)} is formed once.  ``TauSeries.assemble`` sums
c_lam * s_lam(t/hbar) on the integer kernel (``tpoly.linear_combination``):
each s_lam(t/hbar) is held once per process as integer rows
(``symfun.schur_rows``), and the code of c_lam times each row's scalar is
added as the TPoly sum adds it; and
``extract_cauchy_like_tau`` reads each c_k off tau's coefficients as one
weighted sum on the same kernel.  Values, valid orders, coefficient
types and window errors are those of the same steps on XSeries values.
"""

from __future__ import annotations

from math import comb, prod

from .hscalar import HContext, check_power, scalar_is_zero
from .linalg import det
from .partitions import Partition, partitions_upto
from .record import Record
# Nothing here calls ``schur``; the name stays bound because the benchmark's
# tracer test (perfbench/test_perfbench.py) checks that tracing rebinds this
# copy too.  It can go with that assertion.
from .symfun import schur, schur_rows
from .tpoly import TPoly, linear_combination, weight_of
from .xseries import Coded, Jets, XSeries, int_kernel


class TauData(Record):
    """Initial data for a tau series: c_k(x) for k = 0..K."""

    _fields = ("ctx", "weight_cap", "x_cap", "c")

    def __init__(self, ctx: HContext, weight_cap: int, x_cap: int, c: tuple):
        self._set(ctx, weight_cap, x_cap, c)
        if not c:
            raise ValueError("need at least c_0")
        for s in c:
            if not isinstance(s, XSeries):
                raise TypeError("data entries must be XSeries")
            if s.ctx != ctx or s.cap != x_cap:
                raise ValueError("data series disagree with declared ctx/caps")
        c0 = c[0].constant_term()
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


class _Table:
    """What the diagrams of one table share, as codes over one denominator
    ``den`` (see the module docstring)."""

    def __init__(self, data: TauData):
        self.data = data
        ctx = data.ctx
        self.derivs = Jets(dict(enumerate(data.c)))  # (m, k) -> d_x^k c_m
        kernel = self.kernel = self.derivs.kernel
        # (-hbar)^k as XSeries.scale takes it (hbar^0 is an HPoly in formal
        # mode); a formal hbar^k beyond the window raises where it is used,
        # and k rises one at a time there, so it raises at k = hi + 1
        ks = range(data.K if ctx.is_numeric else min(data.K, ctx.hi + 1))
        den_h, self.signed_hbar = kernel.encode_powers(
            ((-1) ** k, 1, k) for k in ks)
        self.den = self.derivs.den * den_h
        self.entries, self.minors, self.inv0_pows = {}, {}, []

    def entry(self, a: int, j: int):
        """sum_{k<j} (-hbar)^k C(j-1, k) d_x^k c_{a+j-k}, or the int 0 when
        every c_m in it has m < 0 (a structural zero for det)."""
        key = (a, j)
        if key not in self.entries:
            kernel = self.kernel
            entry = None
            for k in range(j):
                m = a + j - k
                if m < 0:
                    continue
                d = self.derivs[m, k]
                if k >= len(self.signed_hbar):
                    check_power(self.data.ctx, k)  # raises
                term = kernel.rescale(kernel.scale(d, self.signed_hbar[k]),
                                      comb(j - 1, k))
                entry = term if entry is None else kernel.add(entry, term)
            self.entries[key] = (0 if entry is None else
                                 Coded(kernel, self.den, entry))
        return self.entries[key]

    def inv0_pow(self, p: int) -> Coded:
        """c_0^{-p}, p >= 1."""
        pows = self.inv0_pows
        if not pows:
            den, (inv,) = self.kernel.codes((self.data.series(0).inverse(),))
            pows.append(Coded(self.kernel, den, inv))
        while len(pows) < p:
            pows.append(pows[-1] * pows[0])
        return pows[p - 1]


def c_lambda(lam, data: TauData, _table: _Table | None = None) -> XSeries:
    """Coefficient series of one diagram (see module docstring).

    ``tau_series`` passes one ``_Table`` for all the diagrams it builds."""
    lam = Partition(lam)
    n = lam.ell
    if n == 0:
        return data.series(0)
    if lam.weight > data.K:
        raise ValueError("data index cap too small for this diagram")
    table = _Table(data) if _table is None else _table
    labels = [lam[i] - i - 1 for i in range(n)]
    rows = [[table.entry(a, j) for j in range(1, n + 1)] for a in labels]
    d = det(rows, labels, table.minors)
    if n > 1:
        d = d * table.inv0_pow(n - 1)
    return d.series()


class TauSeries(Record):
    """All coefficient series up to the weight cap, keyed by diagram."""

    _fields = ("ctx", "weight_cap", "x_cap", "table")

    def __init__(self, ctx: HContext, weight_cap: int, x_cap: int, table: dict):
        self._set(ctx, weight_cap, x_cap, table)

    def coefficient(self, lam) -> XSeries:
        return self.table[Partition(lam)]

    def assemble(self) -> TPoly:
        """The polynomial sum of c_lam(x) * s_lam(t/hbar) up to the cap."""
        W = self.weight_cap
        pairs = ((schur_rows(lam, W), c) for lam, c in self.table.items())
        return linear_combination(pairs, self.ctx, W)


def tau_series(data: TauData) -> TauSeries:
    """Coefficients for every diagram of weight <= the data's weight cap."""
    W = data.weight_cap
    if data.K < W:
        raise ValueError("data index cap must reach the weight cap")
    shared = _Table(data)
    table = {
        lam: c_lambda(lam, data, shared)
        for lam in partitions_upto(W)
    }
    return TauSeries(data.ctx, W, data.x_cap, table)


def as_xseries(value, ctx: HContext, x_cap: int) -> XSeries:
    """``value`` if it is an XSeries, else the constant series of it."""
    if isinstance(value, XSeries):
        return value
    return XSeries.constant(ctx, x_cap, value)


def extract_cauchy_like_tau(tau: TPoly, K: int, x_cap: int) -> TauData:
    """Recover the initial data, series of x cap ``x_cap``, from an
    assembled tau polynomial.

    The data are the coefficients of tau(x; hbar[z^{-1}]) = sum_k c_k z^{-k}:
    c_0 = tau at t = 0 and, for k >= 1,

        c_k = (hbar/k) (deformed d_k) tau at t = 0
            = sum_{|e| = k} [t^e]tau * prod_j (hbar/j)^{e_j},

    over the monomials t^e without zeta factors.  Each c_k is one sum on
    the integer kernel: every [t^e]tau scaled by hbar^{l-1} / prod_j j^{e_j}
    (l = sum_j e_j), and the sum scaled by hbar, so a formal hbar leaves
    the window only where the operator's terms at t = 0 do.  Applied to
    all of tau, the operator also scales the monomials off t = 0: in the
    window [-2, 2] with tau = 1 + hbar^2 t_1^3 and K = 2, its d_1^2 scales
    6 hbar^2 t_1 by hbar and raises, where this reading returns
    c_1 = c_2 = 0.
    """
    ctx = tau.ctx
    read = [(weight_of(texp), texp, as_xseries(c, ctx, x_cap))
            for (texp, zexp), c in tau.terms.items()
            if not zexp and 0 < weight_of(texp) <= K]
    if any(s.ctx != ctx or s.cap != x_cap for *_, s in read):
        raise ValueError("tau coefficients disagree with its ctx or the x cap")
    kernel = int_kernel(ctx, x_cap)
    den, (zero, *codes) = kernel.codes(
        [XSeries.zero(ctx, x_cap)] + [s for *_, s in read])
    den_f, factors = kernel.encode_powers(
        (1, prod(j ** a for j, a in enumerate(texp, 1)), sum(texp) - 1 or None)
        for _, texp, _ in read)
    den_h, (hbar,) = kernel.encode_powers([(1, 1, 1)])
    sums = [zero] * (K + 1)
    for (k, *_), code, f in zip(read, codes, factors):
        sums[k] = kernel.add(sums[k], kernel.scale(code, f))
    out = [as_xseries(tau.constant_coeff(), ctx, x_cap)]
    out += (kernel.series(den * den_f * den_h, kernel.scale(s, hbar))
            for s in sums[1:])
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
