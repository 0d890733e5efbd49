"""Operator algebra on differential polynomials in the sources f_s."""

from math import prod
from random import Random

import pytest

from hbarkp.hscalar import HContext, HbarWindowError
from hbarkp.kpconst import p_const
from hbarkp.lops import DiffPoly, l_apply, l_word
from hbarkp.partitions import compositions, partitions_upto
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


def _l_by_terms(i, poly):
    """L_i by the Leibniz rule in scalar arithmetic, one composition of i
    at a time: hbar^{nu-1} formed first, then the product of the
    L_{k_a}(g_a), then coeff * hbar^{nu-1} * i / prod(max(k_a, 1))."""
    ctx = poly.ctx

    def on_generator(k, s, l):
        out = DiffPoly(ctx, [
            (tuple((v - 1, 1) for v in parts),
             ctx.scalar(p_const(k, s, tuple(v - 1 for v in parts))))
            for m in range(1, (k + s) // 2 + 1)
            for parts in compositions(k + s, m, 2)])
        for _ in range(l):
            out = out.x_deriv()
        return out

    acc = DiffPoly.zero(ctx)
    for gens, coeff in poly.terms.items():
        for ks in compositions(i, len(gens), 0):
            nu = sum(1 for k in ks if k)
            pref = ctx.hbar_pow(nu - 1) * Rational(i, prod(max(k, 1) for k in ks))
            term = DiffPoly.constant(ctx, Rational(1))
            for (s, l), k in zip(gens, ks):
                term = term * (on_generator(k, s, l) if k else gen(s, l))
            acc = acc + term.scale(coeff * pref)
    return acc


@pytest.mark.parametrize("window", [None, (-2, 2), (-3, 1), (-1, 3), (0, 1)])
def test_l_apply_matches_the_term_by_term_rule(window):
    """L_i on integer coefficients gives the scalar rule's coefficients,
    types and first window error, on polynomials with rational and
    (formal hbar) Laurent coefficients."""
    rng = Random(sum(window or ()) + 7)
    ctx = HContext.symbolic(*window) if window else HContext.numeric(
        Rational(2, 3))
    kinds = set()
    for _ in range(60):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            gens = tuple(sorted((rng.randint(1, 3), rng.randint(0, 2))
                                for _ in range(rng.randint(0, 4))))
            c = random_rational(rng, nonzero=True)
            if window and rng.random() < 0.7:
                c = c * ctx.hbar_pow(rng.randint(*window))
            terms[gens] = c
        poly, i = DiffPoly(ctx, terms), rng.randint(1, 4)
        got = _outcome(lambda: l_apply(i, poly))
        want = _outcome(lambda: _l_by_terms(i, poly))
        kinds.add(want[0])
        if got[0] == want[0] == "ok":
            got, want = sorted(got[1]), sorted(want[1])
        assert got == want, (terms, i)
    assert kinds == ({"ok"} if window is None else {"ok", "HbarWindowError"})


def _chain(indices, target, ctx):
    """The word applied one operator at a time, last index first."""
    out = DiffPoly.generator(ctx, target, 0)
    for i in reversed(indices):
        out = l_apply(i, out)
    return out


def _outcome(build):
    """The terms in order, or the message of the HbarWindowError raised."""
    try:
        return "ok", list(build().terms.items())
    except HbarWindowError as exc:
        return "HbarWindowError", str(exc)


@pytest.mark.parametrize("ctx", [
    HContext.numeric(Rational(1, 2)),
    HContext.symbolic(-30, 30),
    HContext.symbolic(-3, 3),
    HContext.symbolic(-4, 2),
    HContext.symbolic(0, 0),
], ids=["hbar=1/2", "window=30", "window=3", "window=-4,2", "window=0"])
def test_words_equal_the_operator_chain(ctx):
    """Each word, built from the word of its suffix, equals the operators
    applied one at a time: the same terms in the same order, or the same
    window error.  Up to weight 7 the words reach hbar^1, so only the
    window [0, 0] makes some of them raise."""
    kinds = set()
    for lam in partitions_upto(7, 2):
        indices, target = tuple(lam[:-1]), lam[-1]
        got = _outcome(lambda: l_word(indices, target, ctx))
        assert got == _outcome(lambda: _chain(indices, target, ctx)), lam
        kinds.add(got[0])
    narrow = not ctx.is_numeric and ctx.hi == 0
    assert kinds == ({"ok", "HbarWindowError"} if narrow else {"ok"})


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
