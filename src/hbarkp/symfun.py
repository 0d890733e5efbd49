"""Polynomial bases labelled by partitions: complete homogeneous h_k,
Schur, monomial, power sums, plain time monomials and their hbar
deformation, plus the scalar product that makes Schur functions
orthonormal.

Everything is expressed in the times t_1, t_2, ... (so "symmetric
function" means an element of Q[t_1, t_2, ...] graded by weight); the
x-variable picture only appears in tests as a cross-check.
"""

from __future__ import annotations

from functools import cache
from math import factorial

from .hscalar import HContext
from .linalg import det
from .partitions import Partition, partitions_of
from .rational import Rational
from .tpoly import CapError, TPoly, texp_of


@cache
def elementary_h(k: int, ctx: HContext, weight_cap: int) -> TPoly:
    """Complete homogeneous polynomial h_k; h_0 = 1 and h_k = 0 for k < 0.

    h_k = sum over partitions lambda of k of t_lambda / sigma(lambda),
    which matches the generating series exp(sum t_j z^j) = sum h_k z^k.
    """
    base = TPoly.zero(ctx, weight_cap)
    if k < 0:
        return base
    if k > weight_cap:
        raise CapError(f"h_{k} exceeds weight cap {weight_cap}")
    out = base
    for lam in partitions_of(k):
        out = out + base.monomial_times(lam).scale(Rational(1, lam.sigma))
    return out


@cache
def schur(lam: Partition, ctx: HContext, weight_cap: int) -> TPoly:
    """Schur polynomial via the Jacobi-Trudi determinant of h's."""
    lam = Partition(lam)
    if lam.weight > weight_cap:
        raise CapError(f"s_{lam} exceeds weight cap {weight_cap}")
    n = lam.ell
    if n == 0:
        return TPoly.one(ctx, weight_cap)

    def h(k):
        # h_k = 0 for k < 0 enters as the int 0, a structural zero for det.
        return elementary_h(k, ctx, weight_cap) if k >= 0 else 0

    return det([[h(lam[i] - i + j) for j in range(n)] for i in range(n)])


def t_monomial(lam: Partition, ctx: HContext, weight_cap: int) -> TPoly:
    """The plain monomial t_lambda = t_{lam_1} t_{lam_2} ..."""
    return TPoly.zero(ctx, weight_cap).monomial_times(lam)


def h_product(lam: Partition, ctx: HContext, weight_cap: int) -> TPoly:
    """Product basis h_lambda = h_{lam_1} h_{lam_2} ..."""
    out = TPoly.one(ctx, weight_cap)
    for p in lam:
        out = out * elementary_h(p, ctx, weight_cap)
    return out


def power_sum(lam: Partition, ctx: HContext, weight_cap: int) -> TPoly:
    """Power sum basis p_lambda = rho(lambda) t_lambda."""
    lam = Partition(lam)
    return t_monomial(lam, ctx, weight_cap).scale(Rational(lam.rho))


class TransitionMatrix:
    """Square rational matrix indexed by the partitions of one weight.

    Rows/columns follow the reverse lexicographic enumeration.
    """

    def __init__(self, weight: int, labels, entries):
        self.weight = weight
        self.labels = tuple(labels)
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        self.entries = tuple(tuple(row) for row in entries)

    def entry(self, lam, mu):
        return self.entries[self.index[Partition(lam)]][self.index[Partition(mu)]]


def _transition_row(lam: Partition) -> dict:
    """Row lam of L as {mu: L_{lam mu}} over its nonzero entries.

    L_{lam mu}, the coefficient of x^mu in prod_i (sum_j x_j^{lam_i}), counts
    the ways to send the rows of lam to positions j that then hold mu_j.
    Rows are placed one at a time; a state is the partition of the sums so
    far, counted for one fixed arrangement (by symmetry, all agree).  A row
    p put on a position holding w (0: an empty one) gives the state nu, in
    which any of the positions holding w + p could have taken it."""
    states = {(): 1}
    for p in lam:
        nxt: dict = {}
        for kappa, count in states.items():
            for w in set(kappa) | {0}:
                nu = list(kappa)
                if w:
                    nu.remove(w)
                nu = tuple(sorted(nu + [w + p], reverse=True))
                nxt[nu] = nxt.get(nu, 0) + count * nu.count(w + p)
        states = nxt
    return states


@cache
def transition_L(n: int) -> tuple[TransitionMatrix, TransitionMatrix]:
    """The (L, L^{-1}) pair at weight n.

    L is lower triangular in ``partitions_of`` order: the (lam, mu) entry
    vanishes unless mu dominates lam, and the diagonal entry is
    sigma(lam) > 0.  So L^{-1} is lower triangular too, and forward
    substitution gives it exactly over Q, one row at a time.
    """
    if n < 1:
        raise ValueError("transition matrices start at weight 1")
    labels = partitions_of(n)
    index = {lam: i for i, lam in enumerate(labels)}
    zero = Rational(0)
    entries = []
    for lam in labels:
        row = [zero] * len(labels)
        for mu, count in _transition_row(lam).items():
            row[index[mu]] = Rational(count)
        entries.append(row)
    # Row i of L^{-1} is (e_i - sum_{k < i} L_{ik} (row k of L^{-1})) / L_{ii}.
    inv = []
    for i, row in enumerate(entries):
        acc = [zero] * len(labels)
        acc[i] = Rational(1)
        for k in range(i):
            c = row[k]
            if c:
                for j, v in enumerate(inv[k][:k + 1]):
                    if v:
                        acc[j] -= c * v
        inv.append([v / row[i] for v in acc])
    return TransitionMatrix(n, labels, entries), TransitionMatrix(n, labels, inv)


def _inverse_row(lam: Partition):
    """(mu, (L^{-1})_{lam mu}) over the nonzero entries of row lam."""
    _, linv = transition_L(lam.weight)
    row = linv.entries[linv.index[lam]]
    return [(mu, c) for mu, c in zip(linv.labels, row) if c]


@cache
def monomial_m(lam: Partition, ctx: HContext, weight_cap: int) -> TPoly:
    """Monomial symmetric function m_lambda expressed in the times.

    Expanded over power sums through the inverse transition matrix:
    m_lam = sum_{mu >= lam} (L^{-1})_{lam mu} p_mu.
    """
    lam = Partition(lam)
    if lam.weight > weight_cap:
        raise CapError(f"m_{lam} exceeds weight cap {weight_cap}")
    if lam.ell == 0:
        return TPoly.one(ctx, weight_cap)
    terms = {(texp_of(mu), ()): c * mu.rho for mu, c in _inverse_row(lam)}
    return TPoly(ctx, weight_cap, terms=terms)


@cache
def t_hbar(lam: Partition, ctx: HContext, weight_cap: int) -> TPoly:
    """hbar-deformed monomial basis element.

    t^hbar_lam = (sigma/rho) * hbar^{ell(lam)} * m_lam(t/hbar), expanded in
    closed form as sum_{mu >= lam} (sigma(lam)/rho(lam)) (L^{-1})_{lam mu}
    rho(mu) hbar^{ell(lam)-ell(mu)} t_mu.  All hbar exponents are >= 0, so
    the hbar -> 0 limit is the plain monomial t_lam.
    """
    lam = Partition(lam)
    if lam.weight > weight_cap:
        raise CapError(f"t^h_{lam} exceeds weight cap {weight_cap}")
    if lam.ell == 0:
        return TPoly.one(ctx, weight_cap)
    pref = Rational(lam.sigma, lam.rho)
    terms = {
        (texp_of(mu), ()):
            (pref * c * mu.rho) * ctx.hbar_pow(lam.ell - mu.ell)
        for mu, c in _inverse_row(lam)
    }
    return TPoly(ctx, weight_cap, terms=terms)


def scalar_product(u: TPoly, v: TPoly):
    """<u, v> = u(d/dt_1, (1/2) d/dt_2, ...) v at t = 0.

    Symmetric; Schur functions are orthonormal, <p_lam, p_mu> =
    z_lam delta, <h_lam, m_mu> = delta.
    """
    total = u.ctx.zero()
    for (texp, zexp), cu in u.terms.items():
        if zexp != ():
            raise ValueError("scalar product is defined on time polynomials")
        cv = v.terms.get((texp, ()))
        if cv is None:
            continue
        f = Rational(1)
        for i, a in enumerate(texp):
            f *= Rational(factorial(a), (i + 1) ** a)
        total = total + (cu * cv) * f
    return total


def h_apply(k: int, fetch):
    """h_k evaluated on a sequence: sum over |lam| = k of
    prod fetch(lam_i) / sigma(lam).  ``fetch(i)`` supplies the i-th value
    (any ring element); k = 0 is the empty product 1."""
    if k == 0:
        return Rational(1)
    total = None
    for lam in partitions_of(k):
        prod = fetch(lam[0])
        for p in lam[1:]:
            prod = prod * fetch(p)
        term = prod * Rational(1, lam.sigma)
        total = term if total is None else total + term
    return total
