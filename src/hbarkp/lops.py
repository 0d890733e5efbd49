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

The operators run on integers, and what does not depend on hbar is built
once per process: L_k(d^l f_s) per (k, s, l) and L_i of a monomial per
(i, monomial), each with integer coefficients over one denominator (the
latter graded by its power of hbar).  A word is L_{i_1} applied to the
cached word of the indices after the first, so the words of a table's
diagrams are built from each other.
"""

from __future__ import annotations

from functools import cache
from math import lcm

from .hscalar import (
    HContext, HPoly, reduce_terms, scalar_codes, window_error,
)
from .kpconst import p_const
from .partitions import compositions
from .rational import Rational, common_denominator
from .sparse import MultisetPoly
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
        """Derivation d/dx: raises one generator's order, Leibniz-style."""
        pairs = []
        for gens, c in self.terms.items():
            for s, l in sorted(set(gens)):
                i = gens.index((s, l))
                pairs.append((gens[:i] + ((s, l + 1),) + gens[i + 1:],
                              gens.count((s, l)) * c))
        return DiffPoly(self.ctx, pairs)

    def substitute(self, data, like: XSeries | None = None) -> XSeries:
        """Evaluate on concrete sources: (s, l) -> l-th derivative of data[s].

        ``data`` is a dict of sources or its ``xseries.Jets``; ``like``
        supplies the result's shape when there is no source.  Each
        monomial is a product of jet codes (``Jets.monomial``, which keeps
        every product it forms, so the monomials shared by the words of one
        table are multiplied once), and the sum is decoded once."""
        jets = data if isinstance(data, Jets) else Jets(data, like)
        kernel, terms = jets.kernel, self.terms
        den, scalars = kernel.encode_scalars(terms.values())
        top = max(map(len, terms), default=0)
        total = kernel.constant(kernel.encode_scalars((0,))[1][0])
        for gens, c in zip(terms, scalars):
            # over jets.den ** len(gens), brought over jets.den ** top
            total = kernel.add(total, kernel.rescale(
                kernel.scale(jets.monomial(gens), c),
                jets.den ** (top - len(gens))))
        return kernel.series(jets.den ** top * den, total)


@cache
def _l_on_source(k: int, s: int, l: int) -> tuple:
    """L_k(d^l f_s) = d^l L_k(f_s) as (den, poly): integer numerators over
    ``den``, in a ``DiffPoly`` with no context (the L_k act without hbar on
    a bare source).

    L_k(f_s) is the sum over ordered tuples (s_1..s_m), s_a >= 2, of sum
    k + s of P_{ks}(s_1-1, ..., s_m-1) * d(f_{s_1-1}) ... d(f_{s_m-1});
    the l-th derivative is the first derivative of the (l-1)-th."""
    if l:
        den, poly = _l_on_source(k, s, l - 1)
        return den, poly.x_deriv()
    total = k + s
    pairs = [(tuple((v - 1, 1) for v in s_tuple), p_const(k, s, tuple(
        v - 1 for v in s_tuple)))
        for m in range(1, total // 2 + 1)
        for s_tuple in compositions(total, m, 2)]
    den = common_denominator(c for _, c in pairs)
    return den, DiffPoly(None, [(gens, c.numerator * (den // c.denominator))
                                for gens, c in pairs])


def _check_window(i: int, poly: DiffPoly) -> None:
    """Raise the ``HbarWindowError`` that the Leibniz rule below, done term
    by term in formal hbar, raises first.

    The term of a monomial with coefficient c and of the composition ks
    with nu nonzero parts forms hbar^{nu-1} (checked first), then
    c * hbar^{nu-1}, whose low end cannot leave the window (nu >= 1).  So a
    monomial of n generators fails iff its largest nu, min(i, n), does;
    then the first failing composition, in ``compositions`` order, names
    the exponent."""
    ctx = poly.ctx
    if ctx.is_numeric:
        return
    for gens, c in poly.terms.items():
        top = max(c.terms) if isinstance(c, HPoly) else 0
        reach = max(top, 0)
        if min(i, len(gens)) - 1 + reach <= ctx.hi:
            continue
        for ks in compositions(i, len(gens), 0):
            e = sum(1 for k in ks if k) - 1
            if e > ctx.hi:
                raise window_error(ctx, e)
            if e + reach > ctx.hi:
                raise window_error(ctx, e + top)


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
        prod = DiffPoly(None, {rest: i * (lcd // d)}, _clean=True)
        for src in hit:
            prod = prod * src
        graded[e] = prod + graded.get(e, 0)
    return lcd, {e: p.terms for e, p in graded.items() if p.terms}


def l_apply(i: int, poly: DiffPoly) -> DiffPoly:
    """Apply L_i to a differential polynomial.

    Monomials are handled by the generalized Leibniz rule
      L_i(g_1...g_n) = sum_{k_1+..+k_n=i, k_a >= 0}
          hbar^{nu-1} i / prod(max(k_a, 1)) * prod L_{k_a}(g_a)
    with nu the number of nonzero k_a and L_0 = id; on a single generator
    L_k(d^l f_s) = d^l L_k(f_s) because L_k commutes with d/dx.
    Constants are annihilated (i >= 1).

    The rule runs on integers: L_i of each monomial is kept with integer
    coefficients by hbar exponent (``_l_on_monomial``), the coefficients of
    ``poly`` are written over one denominator as numerators by hbar
    exponent (``hscalar.scalar_codes``), and the products add up over one
    common denominator.  Each coefficient is then formed once: an ``HPoly``
    in formal hbar, the rational value at hbar in numeric hbar.  The
    result's monomials are sorted.
    """
    if i < 1:
        raise ValueError("operator index must be >= 1")
    _check_window(i, poly)
    den, codes = scalar_codes(poly.terms.values())
    parts = [_l_on_monomial(i, gens) for gens in poly.terms]
    lcd = lcm(*(d for d, _ in parts))
    acc: dict = {}
    for (code, _, _), (d, graded) in zip(codes, parts):
        f = lcd // d
        for e1, x in code.items():
            x *= f
            for e2, terms in graded.items():
                e = e1 + e2
                for key, y in terms.items():
                    out = acc.get(key)
                    if out is None:
                        out = acc[key] = {}
                    out[e] = out.get(e, 0) + x * y
    return _coefficients(poly.ctx, den * lcd, acc)


def _coefficients(ctx: HContext, den: int, acc: dict) -> DiffPoly:
    """The polynomial whose coefficient of each monomial of ``acc`` is
    sum_e acc[key][e] hbar^e / den, monomials sorted, zeros dropped."""
    terms = {}
    if ctx.is_numeric:
        p, q = ctx.value.numerator, ctx.value.denominator
        for key in sorted(acc):
            nums = acc[key]
            top = max(nums)
            n = sum(x * p ** e * q ** (top - e) for e, x in nums.items())
            if n:
                terms[key] = Rational(n, den * q ** top)
    else:
        for key in sorted(acc):
            nums = reduce_terms(acc[key], den)
            if nums:
                terms[key] = HPoly(ctx, nums, _clean=True)
    return DiffPoly(ctx, terms, _clean=True)


@cache
def l_word(indices: tuple, target: int, ctx: HContext) -> DiffPoly:
    """L_{i_1} ... L_{i_{r-1}} applied to f_{i_r}.

    Built from its suffix: L_{i_1} applied to the word of the indices after
    the first, which is cached too (for a diagram, that is the word of the
    diagram without its first row).  Invariance under permutations and
    under the choice of which index plays the target is a consequence of
    commutativity and is checked by tests rather than baked into the cache
    key.
    """
    if target < 1 or any(i < 1 for i in indices):
        raise ValueError("indices must be positive")
    if not indices:
        return DiffPoly.generator(ctx, target, 0)
    return l_apply(indices[0], l_word(indices[1:], target, ctx))
