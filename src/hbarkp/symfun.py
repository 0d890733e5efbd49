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
These universal tables are built a whole weight n at a time, on plain
ints, from the tables of lower weights, and held once per process: the
character table of S_n (``_characters``, by Murnaghan-Nakayama), and the
rows of L and L^{-1} (``_l_rows``, ``_inverse_rows``, from p_r m_nu,
``_add_part``), each indexed in ``partitions_of`` order.  A single s_lam
of weight n costs the whole table of weight n, which every caller needs
anyway.

The bases of the two series, s_lam(t/hbar) for tau and t^hbar_lam /
sigma(lam) for F, are held once per process as context-free integer rows
(key, num, den, j), each the term num/den hbar^j t_mu (``schur_rows``,
``t_hbar_rows``).  They are built from the shapes of each weight (key,
sigma, ell and rho of every mu, formed once), the character table and
the integer rows of L^{-1}.  The assemblies encode them straight into the
integer kernel and scale the codes of their series by them
(``tpoly.linear_combination``), and the F-side changes of basis
(``fbuild``) read the rows of t^hbar as they are.  ``t_hbar`` decodes
its rows as polynomials for the command line only, and the command
line's Schur table is ``schur``, the rows without their powers of hbar.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from math import factorial, gcd, lcm, prod
from operator import add, sub

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
def _index(n: int) -> dict:
    """Each partition of n to its place in ``partitions_of(n)``."""
    return {lam: i for i, lam in enumerate(partitions_of(n))}


@cache
def _characters(n: int) -> tuple:
    """The character table of the symmetric group S_n: row i holds
    chi^lam(mu) for lam the i-th partition of n and mu each partition of
    n, both in ``partitions_of`` order.

    By Murnaghan-Nakayama, chi^lam(mu) is the sum over the rim hooks of
    length r = mu_1 of lam of (-1)^height chi^nu(mu minus mu_1), nu being
    lam without the hook.  The rim hooks of lam are found once, one for
    each box (i, j): it runs from the end of row i to the foot of column
    j, rows i..k-1 for k the length of column j, so r is the hook length
    of the box and the height is k - 1 - i; without it, rows i..k-2 take
    the lengths of the rows below them less 1, and row k - 1 keeps j
    boxes.  The mu with mu_1 = r form one block of ``partitions_of(n)``,
    in the order of mu minus mu_1, and those are the last partitions of
    n - r (the ones with no part above r).  So the block r of row lam is
    a signed sum of the tails of rows of the table at weight n - r."""
    if n == 0:
        return ((1,),)
    sizes = Counter(mu[0] for mu in partitions_of(n))
    blocks = [(r, _characters(n - r), _index(n - r), sizes[r])
              for r in range(n, 0, -1)]
    rows = []
    for lam in partitions_of(n):
        columns = [0] * lam[0]
        for i, p in enumerate(lam):
            columns[:p] = [i + 1] * p
        hooks: dict = {}
        for i, p in enumerate(lam):
            for j in range(p):
                k = columns[j]
                nu = (lam[:i] + tuple(q - 1 for q in lam[i + 1:k] if q > 1)
                      + ((j,) if j else ()) + lam[k:])
                hooks.setdefault(p - j + k - i - 1, []).append(
                    ((k - 1 - i) % 2, nu))
        row: list = []
        for r, table, index, size in blocks:
            acc = None
            for odd, nu in hooks.get(r, ()):
                tail = table[index[nu]][-size:]
                if odd:
                    acc = list(map(sub, acc or [0] * size, tail))
                else:
                    acc = tail if acc is None else list(map(add, acc, tail))
            row += acc or [0] * size
        rows.append(tuple(row))
    return tuple(rows)


@cache
def _shapes(n: int) -> tuple:
    """(key, sigma, ell, rho) of each partition mu of n, in
    ``partitions_of`` order: the monomial key of t_mu and its statistics,
    formed once per weight."""
    return tuple(((texp_of(mu), ()), mu.sigma, mu.ell, mu.rho)
                 for mu in partitions_of(n))


@cache
def _schur_rows(lam: tuple) -> tuple:
    rows = []
    n = sum(lam)
    chis = _characters(n)[_index(n)[lam]]
    for chi, (key, sigma, ell, _) in zip(chis, _shapes(n)):
        if chi:
            g = gcd(chi, sigma)
            rows.append((key, chi // g, sigma // g, -ell if ell else None))
    return tuple(rows)


def schur_rows(lam: Partition, weight_cap: int) -> tuple:
    """s_lam(t/hbar) as context-free integer rows (key, num, den, j), held
    once per process: the coefficient chi^lam(mu) / sigma(mu) *
    hbar^{-ell(mu)} of t_mu, num/den in lowest terms, over the partitions
    mu of |lam| with chi != 0, in ``partitions_of`` order.  The row of
    mu = () (lam = ()) is the rational 1, with j None
    (``xseries.encode_powers``).  ``CapError`` past the weight cap."""
    if sum(lam) > weight_cap:
        raise CapError(f"s_{Partition(lam)} exceeds weight cap {weight_cap}")
    return _schur_rows(lam)


def _decode(rows, ctx: HContext, weight_cap: int, factor: int) -> TPoly:
    """The polynomial of integer rows, each coefficient factor * num/den
    hbar^j formed as one scalar (``HContext.form``; j None: the
    rational)."""
    terms = {key: Rational(factor * num, den) if j is None else
             ctx.form({j: factor * num}, den)
             for key, num, den, j in rows}
    return TPoly(ctx, weight_cap, terms=terms)


@cache
def schur(lam: Partition, ctx: HContext, weight_cap: int) -> TPoly:
    """Schur polynomial s_lam = sum_mu chi^lam(mu) p_mu / z_mu over the
    partitions mu of |lam|.  With p_mu = rho(mu) t_mu and z_mu =
    sigma(mu) rho(mu), the coefficient of t_mu is chi^lam(mu) / sigma(mu):
    the rows of ``schur_rows`` without their powers of hbar."""
    terms = {key: Rational(num, den)
             for key, num, den, _ in schur_rows(Partition(lam), weight_cap)}
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


@cache
def _add_part(m: int, r: int) -> tuple:
    """p_r m_nu = sum_kappa c m_kappa for each partition nu of m, in
    ``partitions_of`` order, as pairs (index of kappa in
    ``partitions_of(m + r)``, c).

    kappa is nu with a part r set beside its parts or added to one part w
    of nu, and c counts the parts w + r of kappa that could have taken it.
    The first pair is nu with the part r beside, for which p_r p_nu =
    p_kappa."""
    index = _index(m + r)
    out = []
    for nu in partitions_of(m):
        pairs = []
        for w in (0, *dict.fromkeys(nu)):
            kappa = list(nu)
            if w:
                kappa.remove(w)
            kappa = tuple(sorted(kappa + [w + r], reverse=True))
            pairs.append((index[kappa], kappa.count(w + r)))
        out.append(pairs)
    return tuple(out)


@cache
def _l_rows(n: int) -> tuple:
    """The rows of L at weight n on integers: row i as {j: L_ij} over its
    nonzero entries, indices in ``partitions_of`` order.

    L_{lam mu} is the coefficient of m_mu in p_lam.  With r = lam_1 and
    rest = lam minus lam_1, p_lam = p_r p_rest = sum_nu L_{rest nu} p_r
    m_nu, so row lam is the row of rest at weight n - r with each m_nu
    expanded by ``_add_part``."""
    if n == 0:
        return ({0: 1},)
    rows = []
    for lam in partitions_of(n):
        r, m = lam[0], n - lam[0]
        expand = _add_part(m, r)
        row: dict = {}
        for j, c in _l_rows(m)[_index(m)[lam[1:]]].items():
            for k, e in expand[j]:
                row[k] = row.get(k, 0) + c * e
        rows.append(row)
    return tuple(rows)


@cache
def _inverse_rows(n: int) -> tuple:
    """The rows of L^{-1} at weight n on integers: row i as (den, {j:
    numerator}) over its nonzero entries, j ascending, in lowest terms;
    m_lam = sum_mu (L^{-1})_{lam mu} p_mu.

    With r = lam_1 and rest = lam minus lam_1, ``_add_part`` gives p_r
    m_rest = c m_lam + sum_kappa c_kappa m_kappa, where every other kappa
    has a part above r and so comes before lam; and p_r m_rest is the sum
    of (L^{-1})_{rest mu} p_{mu with r beside}.  So row lam is the row of
    rest, moved to weight n, less the c_kappa multiples of the rows of the
    kappa, over c.  The sum is formed over the lcm of the rows'
    denominators, and the common factor of the numerators and the
    denominator is divided out."""
    if n == 0:
        return ((1, {0: 1}),)
    rows: list = []
    for lam in partitions_of(n):
        r, m = lam[0], n - lam[0]
        expand = _add_part(m, r)
        i = _index(m)[lam[1:]]
        den_rest, nums = _inverse_rows(m)[i]
        (_, c), *others = expand[i]
        den = lcm(den_rest, *(rows[k][0] for k, _ in others))
        f = den // den_rest
        acc = {expand[j][0][0]: v * f for j, v in nums.items()}
        for k, e in others:
            den_k, nums_k = rows[k]
            f = e * (den // den_k)
            for j, v in nums_k.items():
                acc[j] = acc.get(j, 0) - f * v
        den *= c
        g = gcd(den, *acc.values())
        rows.append((den // g, {j: v // g for j, v in sorted(acc.items()) if v}))
    return tuple(rows)


@cache
def transition_L(n: int) -> tuple[TransitionMatrix, TransitionMatrix]:
    """The (L, L^{-1}) pair at weight n.

    L is lower triangular in ``partitions_of`` order: the (lam, mu) entry
    vanishes unless mu dominates lam, and the diagonal entry is
    sigma(lam) > 0.  So L^{-1} is lower triangular too.  Both are built
    weight by weight on integers (``_l_rows``, ``_inverse_rows``), and each
    entry is one rational formed from its row's numerator and denominator.
    """
    if n < 1:
        raise ValueError("transition matrices start at weight 1")
    labels = partitions_of(n)
    rows, inv = _l_rows(n), _inverse_rows(n)
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
    labels = partitions_of(lam.weight)
    den, nums = _inverse_rows(lam.weight)[_index(lam.weight)[lam]]
    terms = {(texp_of(labels[j]), ()): Rational(v * labels[j].rho, den)
             for j, v in nums.items()}
    return TPoly(ctx, weight_cap, terms=terms)


@cache
def _t_hbar_rows(lam: tuple) -> tuple:
    if not lam:
        return ((((), ()), 1, 1, None),)
    n = sum(lam)
    den, nums = _inverse_rows(n)[_index(n)[lam]]
    shapes = _shapes(n)
    ell, rho = len(lam), prod(lam)
    rows = []
    for i, v in nums.items():
        key, _, ell_mu, rho_mu = shapes[i]
        num, d = v * rho_mu, rho * den
        g = gcd(num, d)
        rows.append((key, num // g, d // g, ell - ell_mu))
    return tuple(rows)


def t_hbar_rows(lam: Partition, weight_cap: int) -> tuple:
    """t^hbar_lam / sigma(lam), the basis of the F series, as context-free
    integer rows (key, num, den, j), held once per process: the
    coefficient (L^{-1})_{lam mu} rho(mu) / rho(lam) *
    hbar^{ell(lam) - ell(mu)} of t_mu, num/den in lowest terms, over the
    mu with (L^{-1})_{lam mu} != 0, in ``partitions_of`` order, from the
    integer rows of L^{-1}.  Every j is an int, so in formal hbar every
    coefficient is an HPoly, hbar^0 included, except for lam = (): its
    one row is the rational 1, with j None.  ``CapError`` past the
    weight cap."""
    if sum(lam) > weight_cap:
        raise CapError(f"t^h_{Partition(lam)} exceeds weight cap {weight_cap}")
    return _t_hbar_rows(lam)


def t_hbar(lam: Partition, ctx: HContext, weight_cap: int) -> TPoly:
    """hbar-deformed monomial basis element.

    t^hbar_lam = (sigma/rho) * hbar^{ell(lam)} * m_lam(t/hbar), expanded in
    closed form as sum_{mu >= lam} (sigma(lam)/rho(lam)) (L^{-1})_{lam mu}
    rho(mu) hbar^{ell(lam)-ell(mu)} t_mu.  All hbar exponents are >= 0, so
    the hbar -> 0 limit is the plain monomial t_lam.  Decoded from
    ``t_hbar_rows`` times sigma(lam).
    """
    lam = Partition(lam)
    return _decode(t_hbar_rows(lam, weight_cap), ctx, weight_cap, lam.sigma)


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
    i-th value, once for each i: any ring element that can also be
    multiplied by ints and rationals (XSeries, or ``xseries.Coded`` in
    ``fbuild.bridge_to_tau``).

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
