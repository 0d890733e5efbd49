"""The differential polynomial algebra generated by one-variable sources
f_1, f_2, ... and their x-derivatives, together with the commuting family
of operators L_i acting on it.

A generator is a pair (s, l) standing for the l-th derivative of f_s.
``DiffPoly`` is a scalar-weighted sum of generator multisets.  The
operators L_i are fixed by three properties: they commute with d/dx, act
on a bare source f_j through the universal constants P_{ij}, and satisfy
the generalized hbar-Leibniz rule on products (with L_0 the identity).
They commute with each other, which makes iterated words well defined up
to ordering; that invariance is a provable property exercised by the
tests, not an assumption of the implementation.
"""

from __future__ import annotations

from functools import cache

from .hscalar import HContext, scalar_is_zero
from .kpconst import p_const
from .partitions import compositions
from .rational import Rational
from .xseries import XSeries

# generator: (source index s >= 1, derivative order l >= 0)


class DiffPoly:
    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: HContext, terms: dict, _clean=False):
        self.ctx = ctx
        if _clean:
            self.terms = terms
        else:
            clean = {}
            for gens, c in terms.items():
                if scalar_is_zero(c):
                    continue
                key = tuple(sorted(gens))
                for (s, l) in key:
                    if s < 1 or l < 0:
                        raise ValueError(f"bad generator {(s, l)}")
                clean[key] = clean[key] + c if key in clean else c
            self.terms = {k: c for k, c in clean.items() if not scalar_is_zero(c)}

    @staticmethod
    def zero(ctx: HContext) -> "DiffPoly":
        return DiffPoly(ctx, {}, _clean=True)

    @staticmethod
    def one(ctx: HContext) -> "DiffPoly":
        return DiffPoly(ctx, {(): Rational(1)}, _clean=True)

    @staticmethod
    def generator(ctx: HContext, s: int, l: int = 0) -> "DiffPoly":
        return DiffPoly(ctx, {((s, l),): Rational(1)})

    def __add__(self, other):
        if isinstance(other, int) and other == 0:
            return self
        if not isinstance(other, DiffPoly):
            return NotImplemented
        terms = dict(self.terms)
        for gens, c in other.terms.items():
            s = terms.get(gens, 0) + c
            if scalar_is_zero(s):
                terms.pop(gens, None)
            else:
                terms[gens] = s
        return DiffPoly(self.ctx, terms, _clean=True)

    __radd__ = __add__

    def __neg__(self):
        return DiffPoly(self.ctx, {g: -c for g, c in self.terms.items()},
                        _clean=True)

    def __sub__(self, other):
        return self.__add__(-other)

    def __mul__(self, other):
        if not isinstance(other, DiffPoly):
            return self.scale(other)
        out: dict = {}
        for g1, c1 in self.terms.items():
            for g2, c2 in other.terms.items():
                key = tuple(sorted(g1 + g2))
                p = c1 * c2
                out[key] = out[key] + p if key in out else p
        return DiffPoly(self.ctx, out)

    __rmul__ = __mul__

    def scale(self, s) -> "DiffPoly":
        return DiffPoly(self.ctx, {g: c * s for g, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, DiffPoly):
            return NotImplemented
        return (self - other).terms == {}

    __hash__ = None

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, gens) -> object:
        """Scalar coefficient of the monomial given as (s, l) pairs."""
        return self.terms.get(tuple(sorted(gens)), self.ctx.zero())

    def x_deriv(self) -> "DiffPoly":
        """Derivation d/dx: raises one generator's order, Leibniz-style."""
        out: dict = {}
        for gens, c in self.terms.items():
            seen = set()
            for idx, (s, l) in enumerate(gens):
                if (s, l) in seen:
                    continue
                seen.add((s, l))
                mult = gens.count((s, l))
                lifted = list(gens)
                lifted[idx] = (s, l + 1)
                key = tuple(sorted(lifted))
                p = (mult * c)
                out[key] = out[key] + p if key in out else p
        return DiffPoly(self.ctx, out)

    def x_deriv_n(self, n: int) -> "DiffPoly":
        out = self
        for _ in range(n):
            out = out.x_deriv()
        return out

    def f_weights(self):
        """Total s+l weight of each monomial (the grading L_i raises by i)."""
        return {g: sum(s + l for (s, l) in g) for g in self.terms}

    def substitute(self, data, like: XSeries | None = None) -> XSeries:
        """Evaluate on concrete sources: (s, l) -> l-th derivative of data[s].

        ``like`` supplies the result's shape when the polynomial does not
        mention any source (e.g. it is zero or constant)."""
        if like is None:
            if not data:
                raise ValueError("need at least one series to fix the x cap")
            like = next(iter(data.values()))
        total = XSeries.zero(like.ctx, like.cap)
        deriv_cache: dict = {}
        for gens, c in self.terms.items():
            prod = XSeries.constant(like.ctx, like.cap, 1)
            for (s, l) in gens:
                if s not in data:
                    raise KeyError(f"no series supplied for source f_{s}")
                key = (s, l)
                if key not in deriv_cache:
                    deriv_cache[key] = data[s].diff_n(l)
                prod = prod * deriv_cache[key]
            total = total + prod.scale(c)
        return total

    def render(self) -> str:
        from .hscalar import render_scalar

        if not self.terms:
            return "0"
        bits = []
        for gens in sorted(self.terms):
            c = self.terms[gens]
            parts = []
            for (s, l) in sorted(set(gens)):
                m = gens.count((s, l))
                base = f"f{s}" if l == 0 else (f"d(f{s})" if l == 1 else f"d^{l}(f{s})")
                parts.append(base if m == 1 else f"{base}^{m}")
            mono = "*".join(parts) if parts else "1"
            cs = render_scalar(c)
            if "+" in cs or "-" in cs[1:]:
                cs = f"({cs})"
            bits.append(cs if mono == "1" else f"{cs}*{mono}")
        return " + ".join(bits)

    def __repr__(self):
        return f"DiffPoly({self.render()})"


@cache
def _l_on_source(i: int, j: int, ctx: HContext) -> DiffPoly:
    """L_i applied to the bare source f_j:
    sum over ordered tuples (s_1..s_m), s_k >= 2, sum = i + j of
    P_{ij}(s_1-1, ..., s_m-1) * d(f_{s_1-1}) ... d(f_{s_m-1})."""
    total = i + j
    out: dict = {}
    for m in range(1, total // 2 + 1):
        for s_tuple in compositions(total, m, 2):
            c = p_const(i, j, tuple(v - 1 for v in s_tuple))
            if c == 0:
                continue
            key = tuple(sorted((v - 1, 1) for v in s_tuple))
            cc = ctx.scalar(c)
            out[key] = out[key] + cc if key in out else cc
    return DiffPoly(ctx, out)


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
