"""Operator algebra on differential polynomials in the sources f_s."""

import pytest

from hbarkp.hscalar import HContext
from hbarkp.lops import DiffPoly, l_apply, l_word
from hbarkp.rational import Rational
from hbarkp.sampling import random_rational
from hbarkp.xseries import XSeries

CTX = HContext.symbolic(-10, 10)


def gen(s, l=0):
    return DiffPoly.generator(CTX, s, l)


def random_diffpoly(rng, ctx, n_terms=3):
    terms = {}
    for _ in range(n_terms):
        gens = tuple(
            (rng.randint(1, 3), rng.randint(0, 2))
            for _ in range(rng.randint(1, 2)))
        key = tuple(sorted(gens))
        terms[key] = terms.get(key, Rational(0)) + random_rational(rng, nonzero=True)
    return DiffPoly(ctx, terms)


def test_l1_is_x_derivative():
    for j in range(1, 7):
        assert l_apply(1, gen(j)) == gen(j, 1)


def test_l_symmetry_on_sources():
    for i in range(1, 5):
        for j in range(1, 5):
            if i + j > 8:
                continue
            assert l_apply(i, gen(j)) == l_apply(j, gen(i))


def test_l2_f2_golden():
    h = CTX
    want = gen(3, 1).scale(Rational(4, 3)) + (gen(1, 1) * gen(1, 1)).scale(Rational(-2))
    assert l_apply(2, gen(2)) == want


def test_l_annihilates_constants():
    assert l_apply(3, DiffPoly.constant(CTX, Rational(1))).is_zero()
    assert l_apply(1, DiffPoly.zero(CTX)).is_zero()


def test_commutativity():
    for i in range(1, 5):
        for j in range(1, 5):
            for k in range(1, 5):
                a = l_apply(i, l_apply(j, gen(k)))
                b = l_apply(j, l_apply(i, gen(k)))
                assert a == b


def test_x_derivative_equivariance(rng):
    for _ in range(8):
        d = random_diffpoly(rng, CTX)
        i = rng.randint(1, 4)
        assert l_apply(i, d.x_deriv()) == l_apply(i, d).x_deriv()


def test_degree_accounting(rng):
    """L_i raises the total (source + order) weight of monomials by i."""
    for _ in range(8):
        d = random_diffpoly(rng, CTX, n_terms=1)
        (gens, _), = d.terms.items()
        w = sum(s + l for (s, l) in gens)
        i = rng.randint(1, 4)
        out = l_apply(i, d)
        for gens2 in out.terms:
            assert sum(s + l for (s, l) in gens2) == w + i


def test_word_invariance():
    assert l_word((1, 2), 1, CTX) == l_word((2, 1), 1, CTX) == l_word((1, 1), 2, CTX)
    assert l_word((3, 2), 1, CTX) == l_word((1, 2), 3, CTX) == l_word((3, 1), 2, CTX)


def test_word_single_application():
    for i in range(1, 4):
        for j in range(1, 4):
            assert l_word((i,), j, CTX) == l_apply(i, gen(j))


def test_word_monomial_constraints():
    """Every monomial of a word satisfies sum(s_i + l_i) = sum of the rows
    and 1 <= l_i <= r - 1."""
    from hbarkp.partitions import partitions_upto

    for lam in partitions_upto(6, 2):
        if lam.ell < 2:
            continue
        word = l_word(tuple(lam[:-1]), lam[-1], CTX)
        r = lam.ell
        assert word.terms, lam
        for gens in word.terms:
            assert sum(s + l for (s, l) in gens) == lam.weight
            for (s, l) in gens:
                assert s >= 1
                assert 1 <= l <= r - 1


def test_hbar_zero_reduces_to_classical_leibniz(rng):
    """At hbar = 0 only one factor is hit at a time (plain derivation)."""
    ctx0 = HContext.numeric(0)
    for _ in range(6):
        terms = {}
        g = tuple(sorted(
            (rng.randint(1, 3), rng.randint(0, 1))
            for _ in range(rng.randint(2, 3))))
        terms[g] = Rational(1)
        d = DiffPoly(ctx0, terms)
        for k in range(1, 6):
            lhs = l_apply(k, d)
            rhs = DiffPoly.zero(ctx0)
            for idx in range(len(g)):
                rest = list(g)
                hit = rest.pop(idx)
                term = l_apply(k, DiffPoly.generator(ctx0, *hit))
                for other in rest:
                    term = term * DiffPoly.generator(ctx0, *other)
                rhs = rhs + term
            assert lhs == rhs


def test_substitute_examples(num_ctx):
    x = XSeries.x(num_ctx, 4)
    d = gen(1, 1)
    # f_1 = x^2 -> d(f_1) = 2x
    assert d.substitute({1: x * x}) == x.scale(Rational(2))
    sq = gen(1, 1) * gen(1, 1)
    assert sq.substitute({1: x}) == XSeries.one(num_ctx, 4)
    # the (2,2) expansion on f_1 = x, f_3 = x^2: (4/3)*2x - 2*1
    expansion = l_apply(2, DiffPoly.generator(num_ctx, 2, 0))
    got = expansion.substitute({1: x, 3: x * x},
                               like=XSeries.zero(num_ctx, 4))
    want = x.scale(Rational(8, 3)) - XSeries.constant(num_ctx, 4, Rational(2))
    assert got == want


def test_substitute_missing_source(num_ctx):
    x = XSeries.x(num_ctx, 4)
    with pytest.raises(KeyError):
        (gen(1, 1) * gen(2, 1)).substitute({1: x})


def test_render():
    d = gen(3, 1).scale(Rational(4, 3)) + (gen(1, 1) * gen(1, 1)).scale(Rational(-2))
    assert d.render() == "-2*d(f1)^2 + 4/3*d(f3)"
