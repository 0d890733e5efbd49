"""Building F-function formal series from initial data, converting between
plain and deformed first-order data, and bridging to the tau-function.

The data are f_0(x) = F(x; 0) together with f_k(x) = (deformed d_k) F at
t = 0.  The coefficient of a diagram with more than one row is the
operator word L_{lam_1} ... L_{lam_{ell-1}}(f_{lam_ell}); one-row diagrams
contribute f_k itself.  ``f_series`` evaluates every word on one encoding
of the jets d^l f_s (``xseries.Jets``), which forms each product of jets
that the words share once, and decodes once per diagram.  The series is
assembled in the hbar-deformed monomial basis:

    F = f_0 + sum_{|lam| >= 1} f_lam / sigma(lam) * t^hbar_lam.

Plain first derivatives d_k F|_0 relate to the f_k through the inverse
transition matrix column kappa_lam = (L^{-1})_{lam (k)}; the inverse
conversion proceeds by induction in k.  For numeric hbar != 0, tau data
follow from c_0 = exp(f_0 / hbar^2) and c_k/c_0 = h_k(y) with
y_l = f_l / (hbar l).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .hscalar import HContext, HbarValueError, scalar_is_zero
from .lops import DiffPoly, l_word
from .partitions import Partition, partitions_of, partitions_upto
from .rational import Rational
from .symfun import h_apply, t_hbar, transition_L
from .taubuild import TauData, as_xseries
from .tpoly import TPoly, linear_combination
from .xseries import Jets, XSeries


@dataclass(frozen=True)
class FData:
    """Initial data: f_0 = F(x;0) and the deformed first derivatives f_k."""

    ctx: HContext
    weight_cap: int
    x_cap: int
    f0: XSeries
    f: tuple  # f[k-1] is f_k, k = 1..K

    def __post_init__(self):
        for s in (self.f0,) + self.f:
            if not isinstance(s, XSeries):
                raise TypeError("data entries must be XSeries")
            if s.ctx != self.ctx or s.cap != self.x_cap:
                raise ValueError("data series disagree with declared ctx/caps")

    @property
    def K(self) -> int:
        return len(self.f)

    def series(self, k: int) -> XSeries:
        if k < 1 or k > self.K:
            raise ValueError(f"f_{k} not supplied (have 1..{self.K})")
        return self.f[k - 1]

    def source_map(self) -> dict:
        return {k: self.f[k - 1] for k in range(1, self.K + 1)}


def f_lambda(lam, ctx: HContext) -> DiffPoly:
    """Coefficient of one diagram, a polynomial in the data
    (``DiffPoly.substitute`` evaluates it)."""
    lam = Partition(lam)
    if lam.ell == 0:
        raise ValueError("the empty diagram is handled by f_0")
    if lam.ell == 1:
        return DiffPoly.generator(ctx, lam[0], 0)
    return l_word(tuple(lam[:-1]), lam[-1], ctx)


@dataclass(frozen=True)
class FSeries:
    """All diagram coefficients up to the weight cap, plus f_0."""

    ctx: HContext
    weight_cap: int
    x_cap: int
    f0: XSeries
    table: dict  # Partition -> XSeries (concrete) or DiffPoly (symbolic)
    symbolic: bool

    def coefficient(self, lam):
        return self.table[Partition(lam)]

    def assemble(self) -> TPoly:
        """f_0 + sum f_lam / sigma * t^hbar_lam as a time polynomial."""
        if self.symbolic:
            raise ValueError("assemble requires concrete coefficients")
        ctx, W = self.ctx, self.weight_cap
        pairs = chain(
            [(TPoly.one(ctx, W), self.f0)],
            ((t_hbar(lam, ctx, W), c.scale(Rational(1, lam.sigma)))
             for lam, c in self.table.items()))
        return linear_combination(pairs, ctx, W)

    def plain_taylor(self) -> dict:
        """Coefficients d_lam F|_{t=0} of the plain monomial basis.

        Read off the assembled polynomial: applying d_{lam_1} d_{lam_2}...
        at t = 0 multiplies the t_lam coefficient by sigma(lam)."""
        poly = self.assemble()
        return {lam: as_xseries(poly.coeff(tuple(lam)) * lam.sigma, self.ctx,
                                self.x_cap)
                for lam in partitions_upto(self.weight_cap, 1)}


def f_series(data: FData, weight_cap: int | None = None) -> FSeries:
    """Concrete diagram coefficients for every weight <= the cap."""
    W = data.weight_cap if weight_cap is None else weight_cap
    if data.K < W:
        raise ValueError("data index cap must reach the weight cap")
    jets = Jets(data.source_map(), data.f0)
    table = {
        lam: f_lambda(lam, data.ctx).substitute(jets)
        for lam in partitions_upto(W, 1)
    }
    return FSeries(data.ctx, W, data.x_cap, data.f0, table, symbolic=False)


def f_series_symbolic(ctx: HContext, weight_cap: int) -> FSeries:
    table = {
        lam: f_lambda(lam, ctx)
        for lam in partitions_upto(weight_cap, 1)
    }
    return FSeries(ctx, weight_cap, 0, None, table, symbolic=True)


def _conversion_weights(ctx: HContext, k: int):
    """(lam, k * kappa_lam / rho(lam) * hbar^{ell-1}) for each partition lam
    of k, in ``partitions_of`` order, whose kappa_lam = (L^{-1})_{lam (k)},
    the first column of the inverse transition matrix, is nonzero."""
    _, linv = transition_L(k)
    one_row = Partition((k,))
    for lam in partitions_of(k):
        c = linv.entry(lam, one_row)
        if c:
            yield lam, Rational(k) * Rational(c, lam.rho) * ctx.hbar_pow(lam.ell - 1)


def cauchy_from_cauchylike(data: FData, k: int) -> XSeries:
    """Plain derivative d_k F|_0 from the deformed data:
    k * sum over |lam| = k of kappa_lam / rho(lam) * f_lam * hbar^{ell-1}."""
    if k < 1 or k > data.K:
        raise ValueError("k out of range of the data")
    total = XSeries.zero(data.ctx, data.x_cap)
    jets = Jets(data.source_map(), data.f0)
    for lam, s in _conversion_weights(data.ctx, k):
        total = total + f_lambda(lam, data.ctx).substitute(jets).scale(s)
    return total


def cauchy_from_cauchylike_symbolic(ctx: HContext, k: int) -> DiffPoly:
    """Same expansion with symbolic coefficients."""
    total = DiffPoly.zero(ctx)
    for lam, s in _conversion_weights(ctx, k):
        total = total + f_lambda(lam, ctx).scale(s)
    return total


def cauchylike_from_cauchy(ctx: HContext, weight_cap: int, x_cap: int,
                           f0: XSeries, plain: tuple) -> FData:
    """Invert the conversion by induction in k: subtract the multi-row
    contributions (which only involve f_1..f_{k-1}) from d_k F|_0."""
    fs: list[XSeries] = []
    for k in range(1, len(plain) + 1):
        correction = XSeries.zero(ctx, x_cap)
        jets = Jets({s + 1: fs[s] for s in range(len(fs))}, f0)
        for lam, s in _conversion_weights(ctx, k):
            if lam.ell < 2:
                continue
            val = l_word(tuple(lam[:-1]), lam[-1], ctx).substitute(jets)
            correction = correction + val.scale(s)
        fs.append(plain[k - 1] - correction)
    return FData(ctx, weight_cap, x_cap, f0, tuple(fs))


def f_series_from_plain_table(ctx: HContext, weight_cap: int, x_cap: int,
                              f0: XSeries, plain: dict) -> FSeries:
    """Rebuild diagram coefficients from a plain-basis Taylor table.

    The deformed monomial t^hbar_lam expands over the plain monomials as a
    dominance-triangular matrix with unit diagonal, so the change of basis
    inverts exactly by back-substitution: working upward from the least
    dominant diagram of each weight,
      f_lam / sigma(lam) = [t_lam](F) - sum_{mu < lam} f_mu / sigma(mu)
                            * [t_lam-coefficient of t^hbar_mu].
    """
    table: dict = {}
    for n in range(1, weight_cap + 1):
        order = list(partitions_of(n))[::-1]  # reverse-lex refines dominance
        basis = {mu: t_hbar(mu, ctx, weight_cap) for mu in order}
        for lam in order:
            g = plain.get(lam)
            if g is None:
                raise KeyError(f"plain table misses diagram {lam.serialize()!r}")
            acc = g.scale(Rational(1, lam.sigma))
            for mu in order:
                if mu == lam:
                    break
                c = basis[mu].coeff(tuple(lam))
                if scalar_is_zero(c):
                    continue
                acc = acc - table[mu].scale(Rational(1, mu.sigma) * c)
            table[lam] = acc.scale(Rational(lam.sigma))
    return FSeries(ctx, weight_cap, x_cap, f0, table, symbolic=False)


def bridge_to_tau(data: FData) -> TauData:
    """Initial data for the tau-function matching an F-function.

    Needs numeric hbar != 0 and f_0 with zero constant term (a constant
    shift of F only rescales tau, which the bilinear identities tolerate,
    and exp of a nonzero rational would leave Q)."""
    ctx = data.ctx
    if not ctx.is_numeric:
        raise HbarValueError("the bridge needs a numeric hbar")
    if ctx.value == 0:
        raise HbarValueError("the bridge needs hbar != 0")
    if not scalar_is_zero(data.f0.constant_term()):
        raise ValueError("f_0 must vanish at x = 0 for the bridge")
    c0 = data.f0.scale(ctx.hbar_pow(-2)).exp()
    hs = h_apply(data.K, lambda l: data.series(l).scale(
        ctx.hbar_pow(-1) * Rational(1, l)))
    out = [c0 * h for h in hs]
    return TauData(ctx, data.weight_cap, data.x_cap, tuple(out))
