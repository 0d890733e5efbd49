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
"""

from __future__ import annotations

from functools import cache

from .hscalar import HContext
from .kpconst import p_const
from .partitions import compositions
from .rational import Rational
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

    def x_deriv_n(self, n: int) -> "DiffPoly":
        out = self
        for _ in range(n):
            out = out.x_deriv()
        return out

    def substitute(self, data, like: XSeries | None = None) -> XSeries:
        """Evaluate on concrete sources: (s, l) -> l-th derivative of data[s].

        ``data`` is a dict of sources or its ``xseries.Jets``; ``like``
        supplies the result's shape when there is no source.  Each
        monomial is a product of jet codes, and the sum is decoded once."""
        jets = data if isinstance(data, Jets) else Jets(data, like)
        kernel, terms = jets.kernel, self.terms
        den, scalars = kernel.encode_scalars(terms.values())
        top = max(map(len, terms), default=0)
        one, total = (kernel.constant(c)
                      for c in kernel.encode_scalars((1, 0))[1])
        for gens, c in zip(terms, scalars):
            prod = one
            for gen in gens:
                prod = kernel.product(prod, jets[gen])
            # over jets.den ** len(gens), brought over jets.den ** top
            total = kernel.add(total, kernel.rescale(
                kernel.scale(prod, c), jets.den ** (top - len(gens))))
        return kernel.series(jets.den ** top * den, total)


@cache
def _l_on_source(i: int, j: int, ctx: HContext) -> DiffPoly:
    """L_i applied to the bare source f_j:
    sum over ordered tuples (s_1..s_m), s_k >= 2, sum = i + j of
    P_{ij}(s_1-1, ..., s_m-1) * d(f_{s_1-1}) ... d(f_{s_m-1})."""
    total = i + j
    pairs = []
    for m in range(1, total // 2 + 1):
        for s_tuple in compositions(total, m, 2):
            sources = tuple(v - 1 for v in s_tuple)
            pairs.append((tuple((s, 1) for s in sources),
                          ctx.scalar(p_const(i, j, sources))))
    return DiffPoly(ctx, pairs)


def l_apply(i: int, poly: DiffPoly) -> DiffPoly:
    """Apply L_i to a differential polynomial.

    Monomials are handled by the generalized Leibniz rule
      L_i(g_1...g_n) = sum_{k_1+..+k_n=i, k_a >= 0}
          hbar^{nu-1} i / prod(max(k_a, 1)) * prod L_{k_a}(g_a)
    with nu the number of nonzero k_a and L_0 = id; on a single generator
    L_k(d^l f_s) = d^l L_k(f_s) because L_k commutes with d/dx.
    Constants are annihilated (i >= 1).
    """
    if i < 1:
        raise ValueError("operator index must be >= 1")
    ctx = poly.ctx
    acc = DiffPoly.zero(ctx)
    for gens, coeff in poly.terms.items():
        n = len(gens)
        if n == 0:
            continue  # L_i(constant) = 0
        for ks in compositions(i, n, 0):
            nu = sum(1 for k in ks if k)
            denom = 1
            for k in ks:
                denom *= max(k, 1)
            pref = ctx.hbar_pow(nu - 1) * Rational(i, denom)
            prod = None
            for (s, l), k in zip(gens, ks):
                if k == 0:
                    g = DiffPoly.generator(ctx, s, l)
                else:
                    g = _l_on_source(k, s, ctx).x_deriv_n(l)
                prod = g if prod is None else prod * g
                if prod.is_zero():
                    break
            if prod is None or prod.is_zero():
                continue
            acc = acc + prod.scale(coeff * pref)
    return acc


@cache
def l_word(indices: tuple, target: int, ctx: HContext) -> DiffPoly:
    """L_{i_1} ... L_{i_{r-1}} applied to f_{i_r}.

    Cached on the exact (indices, target) pair; invariance under
    permutations and under the choice of which index plays the target is a
    consequence of commutativity and is checked by tests rather than baked
    into the cache key.
    """
    if target < 1 or any(i < 1 for i in indices):
        raise ValueError("indices must be positive")
    out = DiffPoly.generator(ctx, target, 0)
    for i in reversed(indices):
        out = l_apply(i, out)
    return out
