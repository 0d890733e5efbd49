"""Symmetric-function bases, transition matrices, scalar product."""

from itertools import permutations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbarkp.hscalar import HContext, HPoly
from hbarkp.linalg import det
from hbarkp.partitions import Partition, dominates, partitions_of, partitions_upto
from hbarkp.rational import Rational
from hbarkp.sampling import random_rational, random_tpoly
from hbarkp.symfun import (
    elementary_h,
    h_apply,
    h_product,
    monomial_m,
    power_sum,
    scalar_product,
    schur,
    t_hbar,
    t_monomial,
    transition_L,
)
from hbarkp.tpoly import CapError, TPoly, texp_of
from hbarkp.xseries import XSeries

W = 6
CTX = HContext.symbolic(-8, 8)


def tvar(k, cap=W):
    return TPoly.var_t(CTX, cap, k)


# -- complete homogeneous ------------------------------------------------------

def test_h_golden_values():
    t1, t2, t3, t4 = (tvar(k) for k in (1, 2, 3, 4))
    one = TPoly.one(CTX, W)
    assert elementary_h(0, CTX, W) == one
    assert elementary_h(-3, CTX, W).is_zero()
    assert elementary_h(1, CTX, W) == t1
    assert elementary_h(2, CTX, W) == t1.pow_int(2).scale(Rational(1, 2)) + t2
    assert elementary_h(3, CTX, W) == (
        t1.pow_int(3).scale(Rational(1, 6)) + t1 * t2 + t3)
    assert elementary_h(4, CTX, W) == (
        t1.pow_int(4).scale(Rational(1, 24))
        + t2.pow_int(2).scale(Rational(1, 2))
        + (t1 * t1 * t2).scale(Rational(1, 2))
        + t1 * t3 + t4)


def test_h_generating_series():
    """exp(sum t_k z^k) coefficient of z^k is h_k (z realized as a slot)."""
    Z = 5
    shape = TPoly.zero(CTX, 5, Z, 1)
    arg = shape
    for k in range(1, 6):
        arg = arg + TPoly.var_t(CTX, 5, k, Z, 1) * TPoly.var_zeta(CTX, 5, 0, Z, 1, k)
    gen = arg.exp()
    for k in range(6):
        got = gen.zeta_coefficient(0, k)
        want = elementary_h(k, CTX, 5).with_slots(1, Z)
        assert got == want


def test_h_cap_error():
    with pytest.raises(CapError):
        elementary_h(7, CTX, W)


# -- Schur -----------------------------------------------------------------

def test_schur_golden_values():
    one = TPoly.one(CTX, W)
    assert schur(Partition(()), CTX, W) == one
    for j in range(1, 5):
        assert schur(Partition((j,)), CTX, W) == elementary_h(j, CTX, W)
    t1, t3 = tvar(1), tvar(3)
    # 2x2 Jacobi-Trudi: h2*h1 - h3
    assert schur(Partition((2, 1)), CTX, W) == (
        t1.pow_int(3).scale(Rational(1, 3)) - t3)
    assert schur(Partition((2, 1)), CTX, W) == (
        elementary_h(2, CTX, W) * elementary_h(1, CTX, W)
        - elementary_h(3, CTX, W))


def test_schur_quasi_homogeneous():
    """s_lam(a t_1, a^2 t_2, ...) = a^{|lam|} s_lam: each monomial has
    weight exactly |lam|."""
    from hbarkp.tpoly import weight_of

    for lam in partitions_upto(5):
        s = schur(lam, CTX, W)
        for (texp, _) in s.terms:
            assert weight_of(texp) == lam.weight


def _xpoly_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            n = max(len(e1), len(e2))
            key = tuple(
                (e1[i] if i < len(e1) else 0) + (e2[i] if i < len(e2) else 0)
                for i in range(n))
            out[key] = out.get(key, Rational(0)) + c1 * c2
    return {k: v for k, v in out.items() if v != 0}


def _xpoly_sub(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, Rational(0)) - v
    return {k: v for k, v in out.items() if v != 0}


def _to_xpoly(poly: TPoly, nvars: int):
    """Substitute t_k = (1/k) sum_i x_i^k into a time polynomial."""
    total = {}
    for (texp, zexp), c in poly.terms.items():
        assert zexp == ()
        term = {(): Rational(c) if not hasattr(c, "terms") else None}
        if term[()] is None:
            # hbar-free coefficients only in these cross-checks
            assert set(c.terms) <= {0}
            term = {(): c.terms.get(0, Rational(0))}
        for k1, a in enumerate(texp):
            k = k1 + 1
            pk = {}
            for i in range(nvars):
                key = tuple(k if j == i else 0 for j in range(i + 1))
                pk[key] = Rational(1, k)
            for _ in range(a):
                term = _xpoly_mul(term, pk)
        for key, v in term.items():
            total[key] = total.get(key, Rational(0)) + v
    return {k: v for k, v in total.items() if v != 0}


def _xpoly_det(rows):
    n = len(rows)
    total = {}
    for perm in permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            j, ln = i, 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                ln += 1
            if ln % 2 == 0:
                sign = -sign
        term = {(): Rational(sign)}
        for i in range(n):
            term = _xpoly_mul(term, rows[i][perm[i]])
        for k, v in term.items():
            total[k] = total.get(k, Rational(0)) + v
    return {k: v for k, v in total.items() if v != 0}


def _xmono(i, e, n):
    return {tuple(e if j == i else 0 for j in range(i + 1)): Rational(1)} if e else {(): Rational(1)}


def test_schur_bialternant_cross_check():
    """s_lam as ratio of alternants in x-variables, cross-multiplied."""
    for lam in partitions_upto(4, 1):
        for n in range(lam.ell, 4):
            if n == 0:
                continue
            s_x = _to_xpoly(schur(lam, CTX, W), n)
            lam_pad = tuple(lam) + (0,) * (n - lam.ell)
            num = _xpoly_det(
                [[_xmono(i, n + lam_pad[j] - (j + 1), n) for j in range(n)]
                 for i in range(n)])
            den = _xpoly_det(
                [[_xmono(i, n - (j + 1), n) for j in range(n)]
                 for i in range(n)])
            assert _xpoly_sub(_xpoly_mul(s_x, den), num) == {}


def _jacobi_trudi(lam, ctx, cap):
    """s_lam = det[h_{lam_i - i + j}], with h_k = sum over |mu| = k of
    t_mu / sigma(mu) built here, not by ``elementary_h``."""
    def h(k):
        if k < 0:
            return 0  # a structural zero for det
        return TPoly(ctx, cap, terms={(texp_of(mu), ()): Rational(1, mu.sigma)
                                      for mu in partitions_of(k)})

    n = lam.ell
    if n == 0:
        return TPoly.one(ctx, cap)
    return det([[h(lam[i] - i + j) for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("ctx", [HContext.numeric(Rational(1, 2)), CTX],
                         ids=["numeric", "formal"])
def test_schur_matches_jacobi_trudi(ctx):
    """The character expansion equals the Jacobi-Trudi determinant for
    every |lam| <= 8, term for term and with the same coefficient types."""
    cap = 8
    for lam in partitions_upto(cap):
        got, want = schur(lam, ctx, cap).terms, _jacobi_trudi(lam, ctx, cap).terms
        assert got == want, lam
        assert {k: type(c) for k, c in got.items()} == {
            k: type(c) for k, c in want.items()}, lam


# -- monomial basis ------------------------------------------------------------

def test_monomial_golden_values():
    t1, t2, t3 = tvar(1), tvar(2), tvar(3)
    assert monomial_m(Partition((1,)), CTX, W) == t1
    assert monomial_m(Partition((2,)), CTX, W) == t2.scale(Rational(2))
    assert monomial_m(Partition((1, 1)), CTX, W) == (
        t1.pow_int(2).scale(Rational(1, 2)) - t2)
    assert monomial_m(Partition((3,)), CTX, W) == t3.scale(Rational(3))
    assert monomial_m(Partition((2, 1)), CTX, W) == (t2 * t1).scale(Rational(2)) - t3.scale(Rational(3))
    assert monomial_m(Partition((1, 1, 1)), CTX, W) == (
        t1.pow_int(3).scale(Rational(1, 6)) - t2 * t1 + t3)


def test_monomial_x_space_cross_check():
    """m_lam via distinct exponent permutations of x-monomials."""
    for lam in partitions_upto(4, 1):
        for n in range(lam.ell, 4):
            got = _to_xpoly(monomial_m(lam, CTX, W), n)
            lam_pad = tuple(lam) + (0,) * (n - lam.ell)
            want = {}
            for alpha in set(permutations(lam_pad)):
                key = tuple(alpha)
                # trim trailing zeros
                t = list(key)
                while t and t[-1] == 0:
                    t.pop()
                want[tuple(t)] = Rational(1)
            assert got == want


# -- transition matrices ---------------------------------------------------------

def test_transition_examples():
    L, Linv = transition_L(2)
    assert L.entry((1, 1), (2,)) == 1
    assert L.entry((1, 1), (1, 1)) == 2
    assert L.entry((2,), (1, 1)) == 0
    assert Linv.entry((1, 1), (2,)) == Rational(-1, 2)


def test_transition_triangularity_and_inverse():
    for n in range(1, 7):
        L, Linv = transition_L(n)
        labels = L.labels
        for lam in labels:
            for mu in labels:
                if not dominates(mu, lam):
                    assert L.entry(lam, mu) == 0
                    assert Linv.entry(lam, mu) == 0
            assert L.entry(lam, lam) == lam.sigma
        # exact inverse
        for lam in labels:
            for mu in labels:
                s = sum((L.entry(lam, nu) * Linv.entry(nu, mu) for nu in labels),
                        Rational(0))
                assert s == (1 if lam == mu else 0)


def _mapping_count(lam, mu):
    """Brute-force L_{lam mu}: every map from the rows of lam to the
    positions of mu whose row sums give mu."""
    lm, lmu = lam.ell, mu.ell
    if lm == 0:
        return 1 if lmu == 0 else 0
    if lmu == 0:
        return 0
    count = 0
    sums = [0] * lmu

    def rec(j):
        nonlocal count
        if j == lm:
            count += sums == list(mu)
            return
        for i in range(lmu):
            s = sums[i] + lam[j]
            if s > mu[i]:
                continue
            sums[i] = s
            rec(j + 1)
            sums[i] -= lam[j]

    rec(0)
    return count


@st.composite
def partition_pair(draw):
    labels = partitions_of(draw(st.integers(1, 8)))
    return draw(st.sampled_from(labels)), draw(st.sampled_from(labels))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(partition_pair())
def test_transition_entries_match_the_enumeration(pair):
    lam, mu = pair
    L, _ = transition_L(lam.weight)
    assert L.entry(lam, mu) == _mapping_count(lam, mu)


def test_transition_is_lower_triangular_in_partitions_of_order():
    for n in range(1, 11):
        L, Linv = transition_L(n)
        assert L.labels == partitions_of(n)
        for i, lam in enumerate(L.labels):
            assert L.entries[i][i] == lam.sigma
            assert all(v == 0 for v in L.entries[i][i + 1:])
            assert all(v == 0 for v in Linv.entries[i][i + 1:])


def test_transition_inverse_up_to_weight_10():
    for n in range(1, 11):
        L, Linv = transition_L(n)
        size = len(L.labels)
        for i in range(size):
            for j in range(size):
                s = sum((L.entries[i][k] * Linv.entries[k][j]
                         for k in range(size)), Rational(0))
                assert s == (1 if i == j else 0)


def _fraction_inverse(L):
    """L^{-1} of a lower triangular matrix by forward substitution in
    rational arithmetic, one row at a time."""
    size = len(L)
    inv = []
    for i in range(size):
        acc = [Rational(0)] * size
        acc[i] = Rational(1)
        for k in range(i):
            if L[i][k]:
                for j in range(k + 1):
                    acc[j] -= L[i][k] * inv[k][j]
        inv.append([v / L[i][i] for v in acc])
    return inv


def test_transition_inverse_matches_the_rational_forward_substitution():
    """The fraction-free inverse equals forward substitution in rationals
    entry by entry, in value and type."""
    for n in range(1, 13):
        L, Linv = transition_L(n)
        want = _fraction_inverse(L.entries)
        got = [list(row) for row in Linv.entries]
        assert got == want, n
        assert all(type(v) is Rational for row in got for v in row), n


def test_power_sum_expands_over_monomials():
    """p_lam = sum_mu L_{lam mu} m_mu, the matrix's defining property."""
    for n in range(1, 7):
        L, _ = transition_L(n)
        for lam in partitions_of(n):
            got = power_sum(lam, CTX, W)
            want = TPoly.zero(CTX, W)
            for mu in partitions_of(n):
                c = L.entry(lam, mu)
                if c != 0:
                    want = want + monomial_m(mu, CTX, W).scale(c)
            assert got == want


# -- hbar-deformed monomials -----------------------------------------------------

def test_t_hbar_golden_values():
    h = CTX.hbar()
    t1, t2, t3 = tvar(1), tvar(2), tvar(3)
    assert t_hbar(Partition((1,)), CTX, W) == t1
    assert t_hbar(Partition((2,)), CTX, W) == t2
    assert t_hbar(Partition((3,)), CTX, W) == t3
    assert t_hbar(Partition((1, 1)), CTX, W) == t1.pow_int(2) - t2.scale(2 * h)
    assert t_hbar(Partition((2, 1)), CTX, W) == t2 * t1 - t3.scale(Rational(3, 2) * h)
    assert t_hbar(Partition((1, 1, 1)), CTX, W) == (
        t1.pow_int(3) - (t2 * t1).scale(6 * h) + t3.scale(6 * h * h))


def test_t_hbar_reduces_to_monomial_at_zero():
    ctx0 = HContext.numeric(0)
    for lam in partitions_upto(5, 1):
        assert t_hbar(lam, ctx0, W) == t_monomial(lam, ctx0, W)


def _times_over_hbar(poly):
    """t_k -> t_k / hbar: each coefficient times hbar^-(number of t's)."""
    ctx = poly.ctx
    return TPoly(ctx, poly.weight_cap, terms={
        (texp, zexp): c * ctx.hbar_pow(-sum(texp))
        for (texp, zexp), c in poly.terms.items()})


def test_t_hbar_matches_scaled_monomial():
    """t^h_lam = (sigma/rho) hbar^{ell} m_lam(t/hbar) at numeric hbar."""
    ctx = HContext.numeric(Rational(1, 3))
    for lam in partitions_upto(5, 1):
        direct = t_hbar(lam, ctx, W)
        scaled = _times_over_hbar(monomial_m(lam, ctx, W)).scale(
            Rational(lam.sigma, lam.rho) * ctx.hbar_pow(lam.ell))
        assert direct == scaled


def _sum_over_inverse_row(lam, ctx, coeff):
    """sum over mu of coeff(mu, (L^{-1})_{lam mu}) t_mu, one scaled
    monomial at a time."""
    _, linv = transition_L(lam.weight)
    out = TPoly.zero(ctx, W)
    for mu in partitions_of(lam.weight):
        c = linv.entry(lam, mu)
        if c != 0:
            out = out + t_monomial(mu, ctx, W).scale(coeff(mu, c))
    return out


@pytest.mark.parametrize("ctx", [HContext.numeric(Rational(1, 2)), CTX],
                         ids=["numeric", "formal"])
def test_t_hbar_and_monomial_equal_the_term_by_term_sum(ctx):
    for lam in partitions_upto(W, 1):
        pref = Rational(lam.sigma, lam.rho)
        cases = [
            (t_hbar(lam, ctx, W), _sum_over_inverse_row(
                lam, ctx, lambda mu, c: (pref * c * Rational(mu.rho))
                * ctx.hbar_pow(lam.ell - mu.ell))),
            (monomial_m(lam, ctx, W), _sum_over_inverse_row(
                lam, ctx, lambda mu, c: Rational(mu.rho) * c)),
        ]
        for got, want in cases:
            assert got == want
            assert got.terms.keys() == want.terms.keys()
            for key, c in want.terms.items():
                assert type(got.terms[key]) is type(c)


# -- h_k on a sequence ------------------------------------------------------------

def _h_by_partitions(k, fetch):
    """h_0..h_k as the sums over |lam| = n of prod fetch(lam_i) / sigma(lam),
    one product per part, term by term."""
    hs = [Rational(1)]
    for n in range(1, k + 1):
        total = None
        for lam in partitions_of(n):
            prod = fetch(lam[0])
            for p in lam[1:]:
                prod = prod * fetch(p)
            term = prod * Rational(1, lam.sigma)
            total = term if total is None else total + term
        hs.append(total)
    return hs


def _typed_series(s):
    """Valid order and each coefficient with its type."""
    return (s.valid, [("HPoly", c.terms) if isinstance(c, HPoly) else ("Q", c)
                      for c in s.coeffs])


@pytest.mark.parametrize("ctx", [HContext.numeric(Rational(1, 2)),
                                 HContext.symbolic(-30, 30)],
                         ids=["numeric", "formal"])
def test_h_apply_matches_the_partition_sum(ctx):
    """Newton's identity gives the partition sums: values, valid orders and
    coefficient types, on series of mixed valid orders (and, in formal
    hbar, of mixed rational and HPoly coefficients)."""
    X = 5
    for seed in range(4):
        rng = Random(seed)
        ys = {}
        for j in range(1, 7):
            coeffs = [random_rational(rng) for _ in range(X + 1)]
            if not ctx.is_numeric:
                coeffs = [c * ctx.hbar_pow(rng.randint(-2, 2))
                          if rng.random() < 0.5 else c for c in coeffs]
            ys[j] = XSeries(ctx, X, coeffs, valid=rng.randint(2, X))
        got = h_apply(6, ys.__getitem__)
        want = _h_by_partitions(6, ys.__getitem__)
        assert got[0] == want[0] == 1
        assert [_typed_series(s) for s in got[1:]] == \
            [_typed_series(s) for s in want[1:]], seed


# -- scalar product -------------------------------------------------------------

def test_schur_orthonormality():
    all_parts = list(partitions_upto(5))
    for lam in all_parts:
        s_lam = schur(lam, CTX, W)
        for mu in all_parts:
            want = CTX.one() if lam == mu else CTX.zero()
            assert scalar_product(s_lam, schur(mu, CTX, W)) == want


def test_power_sum_pairing():
    for lam in partitions_upto(5):
        for mu in partitions_upto(5):
            got = scalar_product(power_sum(lam, CTX, W), power_sum(mu, CTX, W))
            want = CTX.scalar(lam.zee) if lam == mu else CTX.zero()
            assert got == want


def test_h_m_duality():
    assert scalar_product(
        h_product(Partition((2, 1)), CTX, W),
        monomial_m(Partition((2, 1)), CTX, W)) == CTX.one()
    for lam in partitions_upto(5):
        for mu in partitions_upto(5):
            got = scalar_product(h_product(lam, CTX, W), monomial_m(mu, CTX, W))
            assert got == (CTX.one() if lam == mu else CTX.zero())


def test_scalar_product_symmetry(rng):
    num = HContext.numeric(Rational(1, 2))
    for _ in range(10):
        u = random_tpoly(rng, num, 4)
        v = random_tpoly(rng, num, 4)
        assert scalar_product(u, v) == scalar_product(v, u)


# -- classical identities ---------------------------------------------------------

def test_cauchy_littlewood_truncated():
    """sum_lam s_lam(t) s_lam(t') = exp(sum k t_k t'_k) through weight 6."""
    bound = 6
    lhs = {}
    for lam in partitions_upto(bound):
        s = schur(lam, CTX, bound)
        for (k1, _), c1 in s.terms.items():
            for (k2, _), c2 in s.terms.items():
                key = (k1, k2)
                cur = lhs.get(key, CTX.zero())
                lhs[key] = cur + c1 * c2
    rhs = {}

    def gen(k, texp, coeff, weight):
        if k > bound:
            if weight <= bound:
                key = tuple(texp)
                rhs[key] = rhs.get(key, CTX.zero()) + CTX.scalar(coeff)
            return
        j = 0
        while weight + k * j <= bound:
            gen(k + 1, texp + [j],
                coeff * Rational(k ** j, _fact(j)), weight + k * j)
            j += 1

    def _fact(j):
        out = 1
        for i in range(2, j + 1):
            out *= i
        return out

    gen(1, [], Rational(1), 0)

    def trim(e):
        e = list(e)
        while e and e[-1] == 0:
            e.pop()
        return tuple(e)

    rhs_clean = {}
    for e, c in rhs.items():
        rhs_clean[(trim(e), trim(e))] = c
    lhs_clean = {k: c for k, c in lhs.items()
                 if not (hasattr(c, "is_zero") and c.is_zero())}
    assert lhs_clean == {k: c for k, c in rhs_clean.items()
                         if not (hasattr(c, "is_zero") and c.is_zero())}


def test_dual_basis_taylor_reconstruction(rng):
    """g = sum_lam <u_lam, g> v_lam for the dual pairs (s, s), (h, m),
    (p, p/z)."""
    num = HContext.numeric(Rational(1, 2))
    cap = 5
    pairs = [
        (lambda lam: schur(lam, num, cap), lambda lam: schur(lam, num, cap)),
        (lambda lam: h_product(lam, num, cap), lambda lam: monomial_m(lam, num, cap)),
        (lambda lam: power_sum(lam, num, cap),
         lambda lam: power_sum(lam, num, cap).scale(Rational(1, lam.zee))),
    ]
    for _ in range(4):
        g = random_tpoly(rng, num, cap, n_terms=5)
        for u_of, v_of in pairs:
            acc = TPoly.zero(num, cap)
            for lam in partitions_upto(cap):
                coeff = scalar_product(u_of(lam), g)
                acc = acc + v_of(lam).scale(coeff)
            assert acc == g
