"""The bases of the tau and F series as integer rows (``symfun.schur_rows``,
``symfun.t_hbar_rows``), the assemblies that encode them, and the log
bridge's h_k on integer codes.

Each basis is checked against a test-local construction in rational
arithmetic, formed as the polynomials were formed before the rows:
s_lam(t/hbar) from the Jacobi-Trudi determinant of the h_k with t_mu
scaled by hbar^{-ell(mu)}, and t^hbar_lam from the inverse transition
matrix, term by term.  They must agree in values, coefficient types, term
order and errors, in numeric hbar and in formal windows that hold every
power of hbar, only some, or none but hbar^0.
"""

import re
from random import Random

import pytest

from hbarkp.fbuild import FData, FSeries, bridge_to_tau, f_series
from hbarkp.hscalar import HContext, HPoly, HbarValueError, HbarWindowError
from hbarkp.partitions import Partition, partitions_of, partitions_upto
from hbarkp.rational import Rational
from hbarkp.sampling import random_f_data, random_tau_data
from hbarkp.symfun import schur_rows, t_hbar, t_hbar_rows, transition_L
from hbarkp.taubuild import TauSeries, tau_series
from hbarkp.tpoly import TPoly, texp_of
from hbarkp.xseries import XSeries, int_kernel
from reference import ref_schur_over_hbar

W = 8
CONTEXTS = [HContext.numeric(Rational(1, 2)), HContext.numeric(Rational(-2, 3)),
            HContext.symbolic(-30, 30), HContext.symbolic(0, 0),
            HContext.symbolic(-3, 0), HContext.symbolic(0, 3)]
IDS = ["1/2", "-2/3", "[-30,30]", "[0,0]", "[-3,0]", "[0,3]"]


def typed(c):
    if isinstance(c, XSeries):
        return (c.cap, c.valid, [typed(x) for x in c.coeffs])
    if isinstance(c, HPoly):
        return ("HPoly", c.ctx, sorted(c.terms.items()))
    return (type(c).__name__, c)


def text(poly: TPoly):
    """Every term in order, with its coefficient's types."""
    return [(key, typed(c)) for key, c in poly.terms.items()]


def outcome(fn, *args):
    try:
        return "ok", text(fn(*args))
    except (HbarValueError, HbarWindowError) as exc:
        return "raise", (type(exc), str(exc))


# -- references -----------------------------------------------------------------

def ref_t_hbar(lam, ctx, cap):
    """t^hbar_lam = sum_mu (sigma/rho)(lam) (L^{-1})_{lam mu} rho(mu)
    hbar^{ell(lam) - ell(mu)} t_mu, one rational product per term."""
    if not lam:
        return TPoly.one(ctx, cap)
    _, linv = transition_L(lam.weight)
    terms = {}
    for mu in partitions_of(lam.weight):
        c = linv.entry(lam, mu)
        if c:
            terms[(texp_of(mu), ())] = (Rational(lam.sigma, lam.rho) * c
                                        * Rational(mu.rho)
                                        * ctx.hbar_pow(lam.ell - mu.ell))
    return TPoly(ctx, cap, terms=terms)


def decoded(rows, ctx, cap, factor=1):
    """The rows as rational arithmetic forms their scalars."""
    terms = {}
    for key, num, den, j in rows:
        r = Rational(factor * num, den)
        if j is None:
            terms[key] = r
        elif ctx.is_numeric:
            terms[key] = r * ctx.hbar_pow(j)
        else:
            terms[key] = HPoly(ctx, {j: r})
    return TPoly(ctx, cap, terms=terms)


# -- the rows -------------------------------------------------------------------

@pytest.mark.parametrize("ctx", CONTEXTS, ids=IDS)
def test_rows_decode_to_the_rational_bases(ctx):
    """For every lam up to W = 8: the rows, decoded test-locally, and the
    library's ``t_hbar`` give the reference bases, or raise its first
    error."""
    for lam in partitions_upto(W):
        want = outcome(ref_schur_over_hbar, lam, ctx, W)
        assert outcome(decoded, schur_rows(lam, W), ctx, W) == want, lam
        want = outcome(ref_t_hbar, lam, ctx, W)
        assert outcome(decoded, t_hbar_rows(lam, W), ctx, W, lam.sigma) == want
        assert outcome(t_hbar, lam, ctx, W) == want, lam


def test_rows_are_held_once_and_context_free():
    """One tuple of integer rows per diagram, whatever the weight cap;
    past the cap the rows raise as the bases do."""
    for lam in partitions_upto(6, 1):
        for rows_of in (schur_rows, t_hbar_rows):
            rows = rows_of(lam, 6)
            assert rows_of(lam, 9) is rows
            assert all(type(n) is int and type(d) is int and d > 0
                       and (j is None or type(j) is int) for _, n, d, j in rows)
    lam = Partition((3, 1))
    with pytest.raises(ValueError, match=r"s_Partition\(\(3, 1\)\) exceeds"):
        schur_rows(lam, 3)
    with pytest.raises(ValueError, match=r"t\^h_Partition\(\(3, 1\)\) exceeds"):
        t_hbar_rows(lam, 3)


def test_encode_powers_is_exact_for_negative_powers():
    """num/den hbar^j with j < 0 is an exact rational: q^-j / p^-j for
    hbar = p/q, also with p < 0."""
    for value in (Rational(2, 3), Rational(-5, 7), Rational(3)):
        ctx = HContext.numeric(value)
        factors = [(1, 1, -2), (3, 5, -1), (-7, 4, None), (2, 9, 3), (1, 6, 0)]
        den, nums = int_kernel(ctx, 0).encode_powers(factors)
        assert type(den) is int and all(type(n) is int for n in nums)
        want = [Rational(n, d) * (1 if j is None else value ** j)
                for n, d, j in factors]
        assert [Rational(n, den) for n in nums] == want


def test_hbar_zero():
    """At hbar = 0 a negative power of hbar raises the ``HbarValueError``
    of ``hbar_pow``: in the rows' encoding, in s_lam(t/hbar) and in the
    tau assembly.  t^hbar_lam is the plain monomial there, and the F
    assembly skips the zero terms of its rows."""
    ctx = HContext.numeric(0)
    message = "negative power of hbar at hbar = 0"
    with pytest.raises(HbarValueError, match=message):
        int_kernel(ctx, 0).encode_powers([(1, 1, 1), (1, 2, -1)])
    lam = Partition((2, 1))
    assert outcome(decoded, schur_rows(lam, 3), ctx, 3) == outcome(
        ref_schur_over_hbar, lam, ctx, 3) == ("raise", (HbarValueError, message))
    table = tau_series(random_tau_data(Random(3), ctx, 3, 3)).table
    with pytest.raises(HbarValueError, match=message):
        TauSeries(ctx, 3, 3, table).assemble()
    fs = f_series(random_f_data(Random(3), ctx, 4, 3))
    assert text(fs.assemble()) == text(_ref_f_assembly(fs))


# -- the assemblies ---------------------------------------------------------------

def _ref_tau_assembly(ts: TauSeries) -> TPoly:
    acc = TPoly.zero(ts.ctx, ts.weight_cap)
    for lam, c in ts.table.items():
        acc = acc + ref_schur_over_hbar(lam, ts.ctx, ts.weight_cap).scale(c)
    return acc


def _ref_f_assembly(fs: FSeries) -> TPoly:
    acc = TPoly.one(fs.ctx, fs.weight_cap).scale(fs.f0)
    for lam, c in fs.table.items():
        acc = acc + ref_t_hbar(lam, fs.ctx, fs.weight_cap).scale(
            c.scale(Rational(1, lam.sigma)))
    return acc


def _same_terms(got: TPoly, want: TPoly):
    assert set(got.terms) == set(want.terms)
    for key, c in want.terms.items():
        assert typed(got.terms[key]) == typed(c), key


@pytest.mark.parametrize("ctx", CONTEXTS, ids=IDS)
def test_assemblies_are_the_sums_of_the_bases(ctx):
    """Both assemblies against the sum of the reference bases scaled term
    by term (the F coefficients by 1/sigma), at W = X = 1, 3 and 5, where
    they return; where the sum raises, they raise the same error.  (In
    the narrow windows the builds themselves leave the window from some
    W on.)"""
    for seed, cap in ((1, 1), (2, 1), (1, 3), (2, 3), (1, 5), (2, 5)):
        rng = Random(seed)
        for build, data, ref in (
                (tau_series, random_tau_data(rng, ctx, cap, cap),
                 _ref_tau_assembly),
                (f_series, random_f_data(rng, ctx, cap, cap), _ref_f_assembly)):
            try:
                series = build(data)
            except HbarWindowError:
                continue
            try:
                want = ref(series)
            except HbarWindowError as exc:
                with pytest.raises(HbarWindowError,
                                   match=f"^{re.escape(str(exc))}$"):
                    series.assemble()
                continue
            _same_terms(series.assemble(), want)


# -- the log bridge -------------------------------------------------------------------

def ref_bridge(data: FData) -> list:
    """c_0 = exp(f_0 / hbar^2) and c_k = c_0 h_k(y), y_l = f_l / (hbar l),
    with Newton's identity n h_n = sum_j j y_j h_{n-j} on XSeries."""
    ctx = data.ctx
    c0 = data.f0.scale(ctx.hbar_pow(-2)).exp()
    ys = [data.series(l).scale(ctx.hbar_pow(-1) * Rational(1, l))
          for l in range(1, data.K + 1)]
    hs = [None]
    for n in range(1, data.K + 1):
        total = ys[n - 1].scale(Rational(n))
        for j in range(1, n):
            total = total + (ys[j - 1] * hs[n - j]).scale(Rational(j))
        hs.append(total.scale(Rational(1, n)))
    return [c0] + [c0 * h for h in hs[1:]]


@pytest.mark.parametrize("value", [Rational(1, 2), Rational(-2, 3), Rational(3),
                                   Rational(-5, 7)])
def test_bridge_is_the_newton_recursion_on_series(value):
    """The bridge on integer codes against the recursion on XSeries, for
    K <= 8 and data of mixed valid orders: values, valid orders, types."""
    ctx = HContext.numeric(value)
    for K in range(9):
        rng = Random(K)
        data = random_f_data(rng, ctx, K, 5)
        f = tuple(XSeries(ctx, 5, s.coeffs, valid=rng.randint(1, 5))
                  for s in data.f)
        data = FData(ctx, K, 5, data.f0, f)
        got = bridge_to_tau(data).c
        want = ref_bridge(data)
        assert [typed(c) for c in got] == [typed(c) for c in want], K
