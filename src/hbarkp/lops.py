"""The differential polynomial algebra generated by one-variable sources
f_1, f_2, ... and their x-derivatives, together with the commuting family
of operators L_i acting on it.

A generator is a pair (s, l) standing for the l-th derivative of f_s.
``DiffPoly`` is a scalar-weighted sum of generator multisets: a
``sparse.MultisetPoly``, which holds its ring arithmetic (sum, product,
scaling, equality, rendering), so it keeps only generator validation and
its domain methods (``coefficient``, ``x_deriv``, and ``substitute``,
which evaluates on the integer codes of the sources' x-jets).  The
operators L_i are fixed by three properties: they commute with d/dx, act
on a bare source f_j through the universal constants P_{ij}, and satisfy
the generalized hbar-Leibniz rule on products (with L_0 the identity).
They commute with each other, which makes iterated words well defined up
to ordering; that invariance is a provable property exercised by the
tests, not an assumption of the implementation.

The operators run on dicts of plain ints, and what does not depend on
hbar is built once per process: L_k(d^l f_s) per (k, s, l) (summed over
the pairs of compositions that the constants P_{ks} of ``kpconst`` count)
and L_i of a monomial per (i, monomial),
each with integer coefficients over one denominator (the latter graded by
its power of hbar).  A word holds no hbar context either
(``hbar_free_word``): integer numerators by hbar exponent over one
denominator, L_{i_1} applied to the cached word of the indices after the
first, so the words of a table's diagrams are built from each other.  The
value of hbar enters once, where a word is used: ``l_word`` forms its
coefficients in a context, after raising, in formal hbar, the
``HbarWindowError`` that applying the operators one at a time in that
window would raise.  Each step forms its powers of hbar one factor at a
time, so a failing step names hbar^(hi + 1) (``l_apply``), and a word
fails iff its reach, the largest power over its steps, lies past the
window (``check_word_window``).
"""

from __future__ import annotations

from functools import cache
from math import gcd, lcm, prod
from operator import not_

from .hscalar import HContext, HPoly, check_power, scalar_codes
from .partitions import compositions
from .rational import Rational
from .sparse import MultisetPoly, merge_monomials, mul_terms
from .xseries import Jets, XSeries

# generator: (source index s >= 1, derivative order l >= 0)


class DiffPoly(MultisetPoly):
    """A polynomial in the generators (s, l), the ring of ``sparse``."""

    __slots__ = ()

    def _check_monomial(self, gens: tuple) -> None:
        for (s, l) in gens:
            if s < 1 or l < 0:
                raise ValueError(f"bad generator {(s, l)}")

    @staticmethod
    def _symbol_text(gen: tuple) -> str:
        s, l = gen
        return f"f{s}" if l == 0 else (f"d(f{s})" if l == 1 else f"d^{l}(f{s})")

    @staticmethod
    def generator(ctx: HContext, s: int, l: int = 0) -> "DiffPoly":
        return DiffPoly(ctx, {((s, l),): Rational(1)})

    def coefficient(self, gens) -> object:
        """Scalar coefficient of the monomial given as (s, l) pairs."""
        return self.terms.get(tuple(sorted(gens)), self.ctx.zero())

    def x_deriv(self) -> "DiffPoly":
        """Derivation d/dx: raises one generator's order, Leibniz-style
        (``_x_deriv``)."""
        return DiffPoly(self.ctx, _x_deriv(self.terms))

    def substitute(self, jets: Jets) -> XSeries:
        """Evaluate on concrete sources: (s, l) -> l-th derivative of the
        series of source s, given as its ``xseries.Jets``.  Each monomial
        is a product of jet codes (``Jets.monomial``, which keeps every
        product it forms, so the monomials shared by the words of one table
        are multiplied once), and the sum is decoded once."""
        kernel, terms = jets.kernel, self.terms
        den, scalars = kernel.encode_scalars(terms.values())
        top = max(map(len, terms), default=0)
        total = None
        for gens, c in zip(terms, scalars):
            code = kernel.scale(jets.monomial(gens), c)
            # over jets.den ** len(gens), brought over jets.den ** top
            if len(gens) < top:
                code = kernel.rescale(code, jets.den ** (top - len(gens)))
            total = code if total is None else kernel.add(total, code)
        if total is None:
            total = kernel.constant(kernel.encode_scalars((0,))[1][0])
        return kernel.series(jets.den ** top * den, total)


def _x_deriv(terms: dict) -> dict:
    """d/dx of {monomial: coefficient}, integer or scalar: a run of ``run``
    equal generators (s, l) gives run times the monomial with the last of
    them raised to (s, l + 1), which keeps the monomial sorted."""
    out: dict = {}
    for gens, c in terms.items():
        run = 1
        for i, (s, l) in enumerate(gens):
            if i + 1 < len(gens) and gens[i + 1] == (s, l):
                run += 1
                continue
            key = gens[:i] + ((s, l + 1),) + gens[i + 1:]
            out[key] = out.get(key, 0) + run * c
            run = 1
    return {key: c for key, c in out.items() if c}


@cache
def _l_on_source(k: int, s: int, l: int) -> tuple:
    """L_k(d^l f_s) = d^l L_k(f_s) as (den, {monomial: numerator}), the
    integer numerators over ``den`` (the L_k act without hbar on a bare
    source).

    L_k(f_s) is the sum over m >= 1 and the pairs of compositions
    (k_1..k_m) of k and (s_1..s_m) of s of (-1)^{m+1} k s / (m v_1 ... v_m)
    d(f_{v_1}) ... d(f_{v_m}), v_a = k_a + s_a - 1: the pairs of one v
    add up to P_{ks}(v) (``kpconst.p_const``, whose p_tilde counts them).
    The l-th derivative is the first derivative of the (l-1)-th."""
    if l:
        den, terms = _l_on_source(k, s, l - 1)
        return den, _x_deriv(terms)
    pairs: dict = {}
    for m in range(1, min(k, s) + 1):
        for ks in compositions(k, m):
            for ss in compositions(s, m):
                v = tuple(sorted(a + b - 1 for a, b in zip(ks, ss)))
                pairs[v] = pairs.get(v, 0) + 1
    den = lcm(*(len(v) * prod(v) for v in pairs))
    terms = {tuple((x, 1) for x in v): (-1) ** (len(v) + 1) * k * s * count
             * (den // (len(v) * prod(v))) for v, count in pairs.items()}
    g = gcd(den, *terms.values())
    return den // g, {gens: c // g for gens, c in terms.items()}


@cache
def _l_on_monomial(i: int, gens: tuple) -> tuple:
    """L_i applied to the monomial ``gens`` with coefficient 1, as (den,
    {e: {monomial: numerator}}): the terms of hbar^e over ``den``.

    The terms of the Leibniz rule (see ``l_apply``) are hbar-free apart
    from hbar^{nu-1}, so each adds integer numerators at e = nu - 1 over
    one common denominator, the lcm of the terms' own."""
    plan, lcd = [], 1
    for ks in compositions(i, len(gens), 0):
        rest, hit, d = [], [], 1
        for gen, k in zip(gens, ks):
            if k:
                src_den, src = _l_on_source(k, *gen)
                hit.append(src)
                d *= k * src_den
            else:
                rest.append(gen)
        lcd = lcm(lcd, d)
        plan.append((len(hit) - 1, d, hit, tuple(rest)))
    graded: dict = {}
    for e, d, hit, rest in plan:
        term = {rest: i * (lcd // d)}
        for src in hit:
            term = mul_terms(term, src, merge_monomials, not_)
        terms = graded.setdefault(e, {})
        for key, c in term.items():
            terms[key] = terms.get(key, 0) + c
    graded = {e: {key: c for key, c in terms.items() if c}
              for e, terms in graded.items()}
    return lcd, {e: terms for e, terms in graded.items() if terms}


def _apply(i: int, den: int, terms: dict) -> tuple:
    """L_i of the polynomial whose coefficient of each monomial ``gens`` is
    sum_e terms[gens][e] hbar^e / den, as (den', {monomial: {e:
    numerator}}) over den', monomials sorted, exponents ascending, no zero
    numerator.

    L_i of each monomial is kept with integer coefficients by hbar
    exponent (``_l_on_monomial``), so the products add up as integers over
    one common denominator, one dict per power of hbar."""
    parts = [_l_on_monomial(i, gens) for gens in terms]
    lcd = lcm(*(d for d, _ in parts))
    by_power: dict = {}
    for code, (d, graded) in zip(terms.values(), parts):
        f = lcd // d
        for e1, x in code.items():
            x *= f
            for e2, mono in graded.items():
                acc = by_power.get(e1 + e2)
                if acc is None:
                    acc = by_power[e1 + e2] = {}
                for key, y in mono.items():
                    acc[key] = acc.get(key, 0) + x * y
    out: dict = {}
    for e in sorted(by_power):
        for key, n in by_power[e].items():
            if n:
                nums = out.get(key)
                if nums is None:
                    out[key] = {e: n}
                else:
                    nums[e] = n
    return den * lcd, {key: out[key] for key in sorted(out)}


def l_apply(i: int, poly: DiffPoly) -> DiffPoly:
    """Apply L_i to a differential polynomial.

    Monomials are handled by the generalized Leibniz rule
      L_i(g_1...g_n) = sum_{k_1+..+k_n=i, k_a >= 0}
          hbar^{nu-1} i / prod(max(k_a, 1)) * prod L_{k_a}(g_a)
    with nu the number of nonzero k_a and L_0 = id; on a single generator
    L_k(d^l f_s) = d^l L_k(f_s) because L_k commutes with d/dx.
    Constants are annihilated (i >= 1).

    The rule runs on integers (``_apply``): the coefficients of ``poly``
    are written over one denominator as numerators by hbar exponent
    (``hscalar.scalar_codes``).  Each coefficient of the result is then
    formed once: an ``HPoly`` in formal hbar, the rational value at hbar
    in numeric hbar.  The result's monomials are sorted.

    In formal hbar, the rule done term by term forms hbar^{nu-1} and then
    c hbar^{nu-1}, for a coefficient c whose greatest exponent is t (0 for
    a rational), and raises where one of them leaves the window.  Taken in
    ``compositions`` order, the first composition with at least K nonzero
    parts has exactly K, so the first term to leave the window reaches
    hbar^(hi + 1), whichever of the two products fails.  A monomial of n
    generators thus raises iff min(i, n) - 1 + max(t, 0) > hi, and always
    names hbar^(hi + 1) (``hscalar.check_power``).
    """
    if i < 1:
        raise ValueError("operator index must be >= 1")
    if not poly.ctx.is_numeric:
        check_power(poly.ctx, max(
            (min(i, len(gens)) - 1
             + (max((0, *c.terms)) if isinstance(c, HPoly) else 0)
             for gens, c in poly.terms.items()), default=0))
    den, codes = scalar_codes(poly.terms.values())
    den, acc = _apply(i, den, {gens: code for gens, (code, _, _)
                               in zip(poly.terms, codes)})
    return _coefficients(poly.ctx, den, acc)


def _coefficients(ctx: HContext, den: int, acc: dict) -> DiffPoly:
    """The polynomial whose coefficient of each monomial of ``acc`` is
    sum_e acc[key][e] hbar^e / den (``HContext.form``), in the order of
    ``acc``; a coefficient that is zero at a numeric hbar is dropped."""
    form = ctx.form
    terms = {key: form(nums, den) for key, nums in acc.items()}
    if ctx.is_numeric:
        terms = {key: c for key, c in terms.items() if c}
    return DiffPoly(ctx, terms, _clean=True)


@cache
def hbar_free_word(indices: tuple, target: int) -> tuple:
    """The word L_{i_1} ... L_{i_{r-1}}(f_{i_r}), r >= 2, free of any hbar
    context: (den, {monomial: {e: numerator}}), the coefficient of each
    monomial sum_e numerator hbar^e / den (every e >= 0), monomials sorted,
    no zero numerator, den and the numerators without a common factor.

    Built from its suffix: L_{i_1} applied to the word of the indices
    after the first, which is cached too (for a diagram, that is the word
    of the diagram without its first row)."""
    if not indices:
        raise ValueError("a word needs an operator")
    if len(indices) == 1:
        den, terms = 1, {((target, 0),): {0: 1}}
    else:
        den, terms = hbar_free_word(indices[1:], target)
    den, word = _apply(indices[0], den, terms)
    g = gcd(den, *(x for nums in word.values() for x in nums.values()))
    if g == 1:
        return den, word
    return den // g, {key: {e: x // g for e, x in nums.items()}
                      for key, nums in word.items()}


@cache
def _word_reach(indices: tuple, target: int) -> int:
    """The largest power of hbar that building the word
    L_{i_1} ... L_{i_{r-1}}(f_{i_r}) one operator at a time forms one
    factor at a time: over its steps, and over the monomials of each
    step's hbar-free suffix word, the largest min(i, n) - 1 + t (see
    ``l_apply``).  The innermost step acts on f_{i_r}, with n = 1, t = 0."""
    if len(indices) < 2:
        return 0
    i, rest = indices[0], indices[1:]
    return max([_word_reach(rest, target), *(
        min(i, len(gens)) - 1 + max(nums)
        for gens, nums in hbar_free_word(rest, target)[1].items())])


def check_word_window(indices: tuple, target: int, ctx: HContext) -> None:
    """Raise the ``HbarWindowError`` that building the word
    L_{i_1} ... L_{i_{r-1}}(f_{i_r}) in ``ctx`` one operator at a time,
    the last index first, raises first.  Every step that raises names
    hbar^(hi + 1) (``l_apply``), so the word raises iff its reach
    (``_word_reach``) lies past the window.  A step cannot meet a suffix
    word whose exponent t is past the window: the step that formed that
    exponent reached it and would have raised first."""
    if not ctx.is_numeric:
        check_power(ctx, _word_reach(indices, target))


def l_word(indices: tuple, target: int, ctx: HContext) -> DiffPoly:
    """L_{i_1} ... L_{i_{r-1}} applied to f_{i_r}.

    The hbar-free word (``hbar_free_word``, the part held per process)
    with each coefficient formed in ``ctx``, after the window check of
    building it one operator at a time (``check_word_window``).
    Invariance under permutations and under the choice of which index
    plays the target is a consequence of commutativity and is checked by
    tests rather than baked into the cache key.
    """
    if target < 1 or any(i < 1 for i in indices):
        raise ValueError("indices must be positive")
    if not indices:
        return DiffPoly.generator(ctx, target, 0)
    check_word_window(indices, target, ctx)
    return _coefficients(ctx, *hbar_free_word(indices, target))
