"""Polynomial bases labelled by partitions: complete homogeneous h_k,
Schur, monomial, power sums, plain time monomials and their hbar
deformation, plus the scalar product that makes Schur functions
orthonormal.

Everything is expressed in the times t_1, t_2, ... (so "symmetric
function" means an element of Q[t_1, t_2, ...] graded by weight); the
x-variable picture only appears in tests as a cross-check.

Every basis element but h_lambda is one dict of terms in closed form:
Schur functions (h_k among them) from the characters of the symmetric
group, monomial functions and t^hbar from the inverse transition matrix.
"""

from __future__ import annotations

from functools import cache
from math import factorial, gcd, lcm

from .hscalar import HContext
# Nothing here calls ``det``; the name stays bound because the benchmark's
# tracer test (perfbench/test_perfbench.py) checks that tracing rebinds
# this copy too.  It can go with that assertion.
from .linalg import det
from .partitions import Partition, partitions_of
from .rational import Rational
from .tpoly import CapError, TPoly, texp_of


def elementary_h(k: int, ctx: HContext, weight_cap: int) -> TPoly:
    """Complete homogeneous polynomial h_k = s_(k); h_0 = 1, h_k = 0 for k < 0.

    Every character of the one-row diagram is 1, so h_k is the sum over
    partitions lambda of k of t_lambda / sigma(lambda), which matches the
    generating series exp(sum t_j z^j) = sum h_k z^k.
    """
    if k < 0:
        return TPoly.zero(ctx, weight_cap)
    if k > weight_cap:
        raise CapError(f"h_{k} exceeds weight cap {weight_cap}")
    return schur(Partition((k,) if k else ()), ctx, weight_cap)


@cache
def _character(lam: tuple, mu: tuple) -> int:
    """The character chi^lam of the symmetric group at the cycle type mu, by
    Murnaghan-Nakayama: a rim hook of length r = mu_1 removed from lam in
    every way, with sign (-1)^height.  On the beta-set {lam_i + ell - i}
    that is a bead moved from b to a free b - r >= 0, passing ``height``
    beads."""
    if not mu:
        return 1
    r, rest = mu[0], mu[1:]
    top = len(lam) - 1
    beta = [p + top - i for i, p in enumerate(lam)]
    total = 0
    for b in beta:
        c = b - r
        if c < 0 or c in beta:
            continue
        moved = sorted([x for x in beta if x != b] + [c], reverse=True)
        nu = tuple(x - top + i for i, x in enumerate(moved) if x > top - i)
        height = sum(c < x < b for x in beta)
        total += (-1) ** height * _character(nu, rest)
    return total


def _characters(lam: Partition, weight_cap: int):
    """(mu, chi^lam(mu)) over the partitions mu of |lam| with chi != 0, in
    ``partitions_of`` order; ``CapError`` past the weight cap."""
    if lam.weight > weight_cap:
        raise CapError(f"s_{lam} exceeds weight cap {weight_cap}")
    for mu in partitions_of(lam.weight):
        chi = _character(lam, mu)
        if chi:
            yield mu, chi


@cache
def schur(lam: Partition, ctx: HContext, weight_cap: int) -> TPoly:
    """Schur polynomial s_lam = sum_mu chi^lam(mu) p_mu / z_mu over the
    partitions mu of |lam|.  With p_mu = rho(mu) t_mu and z_mu =
    sigma(mu) rho(mu), the coefficient of t_mu is chi^lam(mu) / sigma(mu)."""
    terms = {(texp_of(mu), ()): Rational(chi, mu.sigma)
             for mu, chi in _characters(Partition(lam), weight_cap)}
    return TPoly(ctx, weight_cap, terms=terms)


@cache
def schur_over_hbar(lam: Partition, ctx: HContext, weight_cap: int) -> TPoly:
    """s_lam(t/hbar), the basis of the tau series: the coefficient of t_mu
    is chi^lam(mu) / sigma(mu) * hbar^{-ell(mu)}, one scalar formed from
    integers (``HContext.hbar_term``), in the order of ``schur``'s terms."""
    terms = {(texp_of(mu), ()): ctx.hbar_term(chi, mu.sigma, -mu.ell)
             if mu.ell else Rational(chi, mu.sigma)
             for mu, chi in _characters(Partition(lam), weight_cap)}
    return TPoly(ctx, weight_cap, terms=terms)


def t_monomial(lam: Partition, ctx: HContext, weight_cap: int) -> TPoly:
    """The plain monomial t_lambda = t_{lam_1} t_{lam_2} ..."""
    if sum(lam) > weight_cap:
        raise CapError("monomial exceeds weight cap")
    return TPoly(ctx, weight_cap, terms={(texp_of(lam), ()): Rational(1)})


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
def _integer_rows(n: int) -> tuple:
    """The rows of L and of L^{-1} at weight n, on integers: row i of L as
    {j: L_ij} and row i of L^{-1} as (den, {j: numerator}) over the
    nonzero entries, indices in ``partitions_of`` order.

    L is lower triangular in that order, with diagonal sigma(lam), so row
    i of L^{-1} is (e_i - sum_{k < i} L_ik (row k of L^{-1})) / L_ii.  The
    sum is formed over the lcm of the rows' denominators, and the common
    factor of the numerators and the denominator is divided out."""
    labels = partitions_of(n)
    index = {lam: i for i, lam in enumerate(labels)}
    rows, inv = [], []
    for i, lam in enumerate(labels):
        row = {index[mu]: c for mu, c in _transition_row(lam).items()}
        below = [(k, c) for k, c in row.items() if k < i]
        den = lcm(*(inv[k][0] for k, _ in below))
        acc = {i: den}
        for k, c in below:
            f = c * (den // inv[k][0])
            for j, v in inv[k][1].items():
                acc[j] = acc.get(j, 0) - f * v
        den *= row[i]
        g = gcd(den, *acc.values())
        rows.append(row)
        inv.append((den // g, {j: v // g for j, v in sorted(acc.items()) if v}))
    return tuple(rows), tuple(inv)


@cache
def transition_L(n: int) -> tuple[TransitionMatrix, TransitionMatrix]:
    """The (L, L^{-1}) pair at weight n.

    L is lower triangular in ``partitions_of`` order: the (lam, mu) entry
    vanishes unless mu dominates lam, and the diagonal entry is
    sigma(lam) > 0.  So L^{-1} is lower triangular too; forward
    substitution gives it fraction-free (``_integer_rows``), and each entry
    is one rational formed from its row's numerator and denominator.
    """
    if n < 1:
        raise ValueError("transition matrices start at weight 1")
    labels = partitions_of(n)
    rows, inv = _integer_rows(n)
    zero = Rational(0)
    entries, inv_entries = [], []
    for row, (den, nums) in zip(rows, inv):
        line = [zero] * len(labels)
        for j, c in row.items():
            line[j] = Rational(c)
        entries.append(line)
        line = [zero] * len(labels)
        for j, v in nums.items():
            line[j] = Rational(v, den)
        inv_entries.append(line)
    return (TransitionMatrix(n, labels, entries),
            TransitionMatrix(n, labels, inv_entries))


def _inverse_row(lam: Partition):
    """(den, [(mu, numerator), ...]): row lam of L^{-1} over its nonzero
    entries, (L^{-1})_{lam mu} = numerator / den."""
    labels = partitions_of(lam.weight)
    den, nums = _integer_rows(lam.weight)[1][labels.index(lam)]
    return den, [(labels[j], v) for j, v in nums.items()]


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
    den, row = _inverse_row(lam)
    terms = {(texp_of(mu), ()): Rational(v * mu.rho, den) for mu, v in row}
    return TPoly(ctx, weight_cap, terms=terms)


@cache
def t_hbar(lam: Partition, ctx: HContext, weight_cap: int) -> TPoly:
    """hbar-deformed monomial basis element.

    t^hbar_lam = (sigma/rho) * hbar^{ell(lam)} * m_lam(t/hbar), expanded in
    closed form as sum_{mu >= lam} (sigma(lam)/rho(lam)) (L^{-1})_{lam mu}
    rho(mu) hbar^{ell(lam)-ell(mu)} t_mu.  All hbar exponents are >= 0, so
    the hbar -> 0 limit is the plain monomial t_lam.  Each coefficient is
    one scalar formed from integers (``HContext.hbar_term``).
    """
    lam = Partition(lam)
    if lam.weight > weight_cap:
        raise CapError(f"t^h_{lam} exceeds weight cap {weight_cap}")
    if lam.ell == 0:
        return TPoly.one(ctx, weight_cap)
    den, row = _inverse_row(lam)
    terms = {(texp_of(mu), ()): ctx.hbar_term(
        lam.sigma * v * mu.rho, lam.rho * den, lam.ell - mu.ell)
        for mu, v in row}
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


def h_apply(k: int, fetch) -> list:
    """[h_0, ..., h_k] evaluated on a sequence: h_n is the sum over |lam| = n
    of prod fetch(lam_i) / sigma(lam), h_0 = 1.  ``fetch(i)`` supplies the
    i-th value (any ring element), once for each i.

    exp(sum_j y_j z^j) = sum_n h_n z^n, so n h_n = sum_{j=1}^{n} j y_j
    h_{n-j} (Newton's identity) gives each h_n from the ones before."""
    ys = [fetch(j) for j in range(1, k + 1)]
    hs = [Rational(1)]
    for n in range(1, k + 1):
        total = None
        for j in range(1, n + 1):
            term = ys[j - 1] * hs[n - j] * j
            total = term if total is None else total + term
        hs.append(total * Rational(1, n))
    return hs
