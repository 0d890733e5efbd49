"""The sparse-ring kernel: polynomials stored as dicts from monomials to
nonzero coefficients.

``hscalar.HPoly`` (hbar exponent -> rational), ``tpoly.TPoly`` ((t
exponents, zeta exponents) -> scalar or XSeries) and the symbol-multiset
polynomials below share this arithmetic.  Each caller passes its own zero
test, so each ring states once which coefficients it drops.  Products with
caps, windows or integer kernels stay with their rings.

``MultisetPoly`` is the commutative polynomial ring over the scalars whose
monomials are sorted tuples of symbols; ``hcalc.DiffOperator`` (symbols:
derivative orders k of d_k) and ``lops.DiffPoly`` (symbols: pairs (s, l)
for the l-th x-derivative of f_s) are its subclasses.
"""

from __future__ import annotations

from operator import neg

# hscalar imports this module's functions, so its own names are looked up
# at call time.
from . import hscalar


def add_terms(a: dict, b: dict, is_zero) -> dict:
    """The terms of a + b; a sum for which ``is_zero`` holds is dropped."""
    out = dict(a)
    for key, c in b.items():
        if key in out:
            s = out[key] + c
            if is_zero(s):
                del out[key]
            else:
                out[key] = s
        else:
            out[key] = c
    return out


def map_terms(terms: dict, fn, is_zero) -> dict:
    """``fn`` applied to each coefficient; a result for which ``is_zero``
    holds is dropped."""
    out = {}
    for key, c in terms.items():
        v = fn(c)
        if not is_zero(v):
            out[key] = v
    return out


def mul_terms(a: dict, b: dict, join, is_zero) -> dict:
    """The schoolbook product: each pair of terms adds c1 * c2 at the key
    ``join(k1, k2)``; a sum for which ``is_zero`` holds is dropped."""
    out: dict = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            key = join(k1, k2)
            p = c1 * c2
            out[key] = out[key] + p if key in out else p
    return {k: c for k, c in out.items() if not is_zero(c)}


def coeff_text(c) -> str:
    """A scalar as a factor: parenthesised when it is a sum, whose terms
    ``render_scalar`` joins with spaces."""
    cs = hscalar.render_scalar(c)
    return f"({cs})" if " " in cs else cs


def render_terms(pairs) -> str:
    """Join (coefficient text, monomial text) pairs as ``c*mono + ...``; the
    monomial ``1`` is left out, and no pairs give ``0``."""
    bits = [cs if mono == "1" else f"{cs}*{mono}" for cs, mono in pairs]
    return " + ".join(bits) if bits else "0"


def merge_monomials(k1: tuple, k2: tuple) -> tuple:
    """The product of two monomials, sorted tuples of symbols."""
    return tuple(sorted(k1 + k2))


class MultisetPoly:
    """A finite sum of scalar multiples of monomials, each monomial a sorted
    tuple of symbols (a symbol repeated m times stands for its m-th power).

    The constructor takes a dict or an iterable of (symbols, coefficient)
    pairs, the symbols in any order; it skips zero coefficients, sums the
    pairs whose sorted symbols agree and drops the sums that cancel.
    Subclasses write a symbol (``_symbol_text``), may validate a monomial
    (``_check_monomial``) and may order the rendered terms (``_render_key``,
    plain tuple order by default).
    """

    __slots__ = ("ctx", "terms")
    _render_key = None

    def __init__(self, ctx, terms, _clean=False):
        self.ctx = ctx
        if _clean:
            self.terms = terms
            return
        is_zero = hscalar.scalar_is_zero
        out: dict = {}
        for key, c in terms.items() if isinstance(terms, dict) else terms:
            if is_zero(c):
                continue
            key = tuple(sorted(key))
            self._check_monomial(key)
            out[key] = out[key] + c if key in out else c
        self.terms = {k: c for k, c in out.items() if not is_zero(c)}

    def _check_monomial(self, key: tuple) -> None:
        pass

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, {}, _clean=True)

    @classmethod
    def constant(cls, ctx, c):
        return cls(ctx, {(): c})

    def _new(self, terms: dict):
        return type(self)(self.ctx, terms, _clean=True)

    def __add__(self, other):
        if isinstance(other, int) and other == 0:
            return self
        if type(other) is not type(self):
            return NotImplemented
        return self._new(add_terms(self.terms, other.terms,
                                   hscalar.scalar_is_zero))

    __radd__ = __add__

    def __neg__(self):
        return self._new(map_terms(self.terms, neg, hscalar.scalar_is_zero))

    def __sub__(self, other):
        return self.__add__(-other)

    def __mul__(self, other):
        """The commutative product; any other factor is a scalar."""
        if type(other) is not type(self):
            return self.scale(other)
        return self._new(mul_terms(self.terms, other.terms, merge_monomials,
                                   hscalar.scalar_is_zero))

    __rmul__ = __mul__

    def scale(self, s):
        return self._new(map_terms(self.terms, lambda c: c * s,
                                   hscalar.scalar_is_zero))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return not (self - other).terms

    __hash__ = None

    def is_zero(self) -> bool:
        return not self.terms

    def _monomial_text(self, key: tuple) -> str:
        parts = []
        for sym in sorted(set(key)):
            text, m = self._symbol_text(sym), key.count(sym)
            parts.append(text if m == 1 else f"{text}^{m}")
        return "*".join(parts) or "1"

    def render(self) -> str:
        return render_terms(
            (coeff_text(self.terms[key]), self._monomial_text(key))
            for key in sorted(self.terms, key=self._render_key))

    def __repr__(self):
        return f"{type(self).__name__}({self.render()})"
