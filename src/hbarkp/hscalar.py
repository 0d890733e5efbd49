"""Scalars carrying the deformation parameter hbar.

A scalar is either

* numeric mode: a plain rational (hbar has been fixed to a rational value,
  which the surrounding ``HContext`` remembers), or
* symbolic mode: an ``HPoly``, a Laurent polynomial in hbar over Q whose
  exponents must stay inside an explicit window [lo, hi].

Out-of-window contributions raise ``HbarWindowError``; nothing is ever
silently truncated.  The window exists because tau-type series contribute
hbar^{-w} at weight w while F = hbar^2 log(tau) shifts exponents up, so a
computation at weight cap W normally lives inside [-(W+2), W+2]; wider
windows are an explicit constructor choice.

A product of two ``HPoly`` values does not multiply and add rationals term
by term: each operand is written as integer numerators over the lcm of its
denominators, the numerators are convolved as plain ints, and each output
coefficient is reduced once, so the results are the same canonical
rationals.  The rules of that arithmetic live here once and the
``XSeries`` and ``TPoly`` products share them: ``check_window`` (the
window holds for a product iff it holds at its extreme exponents, which
never cancel), ``scalar_codes`` (the integer code of formal-hbar scalars
over one denominator) and ``numerators`` / ``reduce_terms`` (into and out
of the integer code); the product of two ``HPoly`` values convolves two
such codes (``sparse.mul_terms``).  ``HContext.form`` turns integer
numerators by hbar exponent over one denominator into a scalar, the one
place where a numeric hbar = 0 refuses a negative power of hbar.
``check_power`` is the window rule of a power of hbar formed one factor
of hbar at a time, which first leaves the window at hbar^(hi + 1): the
hbar^{nu-1} of the Leibniz rule of the L operators (``lops``), the powers
of hbar/k of the Miwa shift (``hcalc``) and the (-hbar)^k of the tau
build's matrix entries (``taubuild``).

All values are immutable; operations are pure.
"""

from __future__ import annotations

import re
from operator import add, neg, not_

from .errors import DataFormatError, HbarkpError
from .rational import (
    Rational, ZeroDenominatorError, common_denominator, format_rational,
    parse_rational,
)
from .record import Record
from .sparse import add_terms, map_terms, mul_terms


class HbarWindowError(HbarkpError, ArithmeticError):
    """A Laurent coefficient fell outside the declared exponent window."""


class HbarValueError(HbarkpError, ArithmeticError):
    """Invalid numeric use of hbar (e.g. dividing by hbar when it is 0)."""


def default_window(weight_cap: int) -> tuple[int, int]:
    """Default hbar-exponent window for computations at a given weight cap."""
    return (-(weight_cap + 2), weight_cap + 2)


class HContext(Record):
    """Describes how hbar is treated: fixed rational, or formal in a window.

    Contexts are ``functools.cache`` keys, so equality and the hash are
    written out (the hash formed once) rather than read off the fields."""

    _fields = ("mode", "lo", "hi", "value")

    def __init__(self, mode: str, lo: int | None = None, hi: int | None = None,
                 value: object | None = None):
        self._set(mode, lo, hi, value)
        self.__dict__["_hash"] = hash((mode, lo, hi, value))
        self.__dict__["is_numeric"] = mode == "numeric"

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not HContext:
            return NotImplemented
        return (self._hash == other._hash and self.mode == other.mode
                and self.lo == other.lo and self.hi == other.hi
                and self.value == other.value)

    def __hash__(self):
        return self._hash

    @staticmethod
    def symbolic(lo: int, hi: int) -> "HContext":
        if lo > 0 or hi < 0:
            raise ValueError("window must contain exponent 0")
        return HContext("symbolic", lo=lo, hi=hi)

    @staticmethod
    def numeric(value) -> "HContext":
        """Fix hbar to a rational value, given as a number or "p/q" text."""
        try:
            r = parse_rational(value) if isinstance(value, str) else Rational(value)
        except ZeroDenominatorError as exc:
            raise HbarValueError(f"hbar value {value!r} divides by zero") from exc
        return HContext("numeric", value=r)

    def scalar(self, num, den=1):
        """Lift a rational into this context's scalar type.  A rational of
        the backend's type is taken as it is: rebuilding it would give an
        equal one, at the cost of the slow general path of the
        constructor."""
        r = num if den == 1 and type(num) is Rational else Rational(num, den)
        if self.is_numeric:
            return r
        return HPoly(self, {0: r})

    def zero(self):
        return self.scalar(0)

    def one(self):
        return self.scalar(1)

    def form(self, nums: dict, den=1):
        """The scalar sum_e nums[e] hbar^e / den of integer numerators by
        hbar exponent.  In formal hbar an ``HPoly``: its nonzero terms meet
        the window in turn, and the first exponent outside it raises.  At
        a numeric hbar = p/q the exact rational, its terms added as integer
        fractions and reduced once: a negative exponent raises
        ``HbarValueError`` at hbar = 0, whatever its numerator."""
        if not self.is_numeric:
            for e, n in nums.items():
                if n and not self.lo <= e <= self.hi:
                    raise window_error(self, e)
            return HPoly(self, reduce_terms(nums, den), _clean=True)
        p, q = self.value.numerator, self.value.denominator
        num, d = 0, 1
        for e, n in nums.items():
            if e < 0 and not p:
                raise HbarValueError("negative power of hbar at hbar = 0")
            a, b = (p ** e, q ** e) if e >= 0 else (q ** -e, p ** -e)
            num, d = num * b + n * a * d, d * b
        return Rational(num, d * den)

    def hbar_pow(self, k: int):
        """hbar^k as a scalar; k may be negative."""
        return self.form({k: 1})

    def hbar(self):
        return self.hbar_pow(1)


def window_error(ctx: HContext, e: int) -> HbarWindowError:
    return HbarWindowError(f"hbar^{e} outside window [{ctx.lo}, {ctx.hi}]")


def check_power(ctx: HContext, top: int) -> None:
    """Raise the ``HbarWindowError`` of a power hbar^top formed one factor
    of hbar at a time: in formal hbar, if top lies past the window, the
    first power formed outside it is hbar^(hi + 1).  Numeric hbar has no
    window, so nothing is raised there."""
    if not ctx.is_numeric and top > ctx.hi:
        raise window_error(ctx, ctx.hi + 1)


def check_window(ctx: HContext, lo: int, hi: int) -> None:
    """Raise the ``HbarWindowError`` of a product of nonzero Laurent
    polynomials whose exponents add up to ``lo`` at the low end and ``hi``
    at the high end: the extreme exponents of such a product never cancel,
    so the window holds iff it holds at both ends.  The low end is checked
    first."""
    if lo < ctx.lo:
        raise window_error(ctx, lo)
    if hi > ctx.hi:
        raise window_error(ctx, hi)


def numerators(terms: dict, den) -> dict:
    """The rational ``terms`` as integer numerators over ``den``, a common
    multiple of their denominators."""
    return {e: c.numerator * (den // c.denominator) for e, c in terms.items()}


def scalar_codes(values):
    """(den, codes): formal-hbar scalars written over ``den``, the lcm of
    their denominators.

    Each code is (numerators by hbar exponent, exponent span (lo, hi) or
    None, whether the value is an ``HPoly``); a zero value has no
    numerators, and only a nonzero ``HPoly`` has a span."""
    values = tuple(values)
    den = 1
    for v in values:
        den = common_denominator(
            v.terms.values() if isinstance(v, HPoly) else (v,), den)
    codes = []
    for v in values:
        if isinstance(v, HPoly):
            t = v.terms
            codes.append((numerators(t, den), (min(t), max(t)) if t else None,
                          True))
        else:
            codes.append(({0: v.numerator * (den // v.denominator)} if v else {},
                          None, False))
    return den, codes


def reduce_terms(nums: dict, den) -> dict:
    """Integer numerators over ``den`` back to rationals, zeros dropped."""
    return {e: Rational(n, den) for e, n in nums.items() if n}


def _coerce_terms(other):
    if isinstance(other, (int, Rational)):
        return {0: Rational(other)}
    return None


class HPoly:
    """Laurent polynomial in hbar over Q, exponents confined to a window."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: HContext, terms: dict, _clean=False):
        if ctx.is_numeric:
            raise TypeError("HPoly requires a symbolic context")
        if _clean:
            self.ctx = ctx
            self.terms = terms
            return
        clean = {}
        for e, c in terms.items():
            c = Rational(c)
            if c == 0:
                continue
            if e < ctx.lo or e > ctx.hi:
                raise window_error(ctx, e)
            clean[e] = c
        self.ctx = ctx
        self.terms = clean

    def _check_ctx(self, other: "HPoly"):
        if self.ctx != other.ctx:
            raise ValueError("mixed hbar contexts")

    def __add__(self, other):
        lift = _coerce_terms(other)
        if lift is not None:
            other = HPoly(self.ctx, lift)
        elif not isinstance(other, HPoly):
            return NotImplemented
        self._check_ctx(other)
        return HPoly(self.ctx, add_terms(self.terms, other.terms, not_),
                     _clean=True)

    __radd__ = __add__

    def __neg__(self):
        return HPoly(self.ctx, map_terms(self.terms, neg, not_), _clean=True)

    def __sub__(self, other):
        if isinstance(other, HPoly):
            return self.__add__(-other)
        lift = _coerce_terms(other)
        if lift is None:
            return NotImplemented
        return self.__add__(HPoly(self.ctx, {0: -lift[0]}))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        lift = _coerce_terms(other)
        if lift is not None:
            r = lift[0]
            if r == 0:
                return HPoly(self.ctx, {}, _clean=True)
            return HPoly(
                self.ctx, {e: c * r for e, c in self.terms.items()}, _clean=True
            )
        if not isinstance(other, HPoly):
            return NotImplemented
        self._check_ctx(other)
        ctx, t1, t2 = self.ctx, self.terms, other.terms
        if not t1 or not t2:
            return HPoly(ctx, {}, _clean=True)
        check_window(ctx, min(t1) + min(t2), max(t1) + max(t2))
        d1 = common_denominator(t1.values())
        d2 = common_denominator(t2.values())
        out = mul_terms(numerators(t1, d1), numerators(t2, d2), add, not_)
        return HPoly(ctx, reduce_terms(out, d1 * d2), _clean=True)

    __rmul__ = __mul__

    def __eq__(self, other):
        lift = _coerce_terms(other)
        if lift is not None:
            other = HPoly(self.ctx, lift)
        elif not isinstance(other, HPoly):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self):
        return hash((self.ctx, tuple(sorted(self.terms.items()))))

    def is_zero(self) -> bool:
        return not self.terms

    def inv_unit(self) -> "HPoly":
        """Invert a monomial c*hbar^e; other shapes are not units here."""
        if len(self.terms) != 1:
            raise HbarValueError("only hbar-monomials are invertible")
        (e, c), = self.terms.items()
        return HPoly(self.ctx, {-e: Rational(1) / c})

    def eval_at(self, value):
        """Substitute a rational value for hbar."""
        den = common_denominator(self.terms.values())
        return HContext.numeric(value).form(numerators(self.terms, den), den)

    def even_only(self) -> bool:
        """True when only even hbar powers appear."""
        return all(e % 2 == 0 for e in self.terms)

    def __repr__(self):
        return f"HPoly({render_scalar(self)})"


# ---------------------------------------------------------------------------
# helpers treating "scalar" = int | Rational | HPoly uniformly

def scalar_is_zero(c) -> bool:
    if isinstance(c, HPoly):
        return c.is_zero()
    return c == 0


def scalar_inv(c):
    """Multiplicative inverse of a unit scalar."""
    if isinstance(c, HPoly):
        return c.inv_unit()
    if c == 0:
        raise ZeroDivisionError("inverse of zero scalar")
    return Rational(1) / Rational(c)


def scalar_even_only(c) -> bool:
    if isinstance(c, HPoly):
        return c.even_only()
    return True  # hbar-free


def render_scalar(c) -> str:
    if not isinstance(c, HPoly):
        return format_rational(Rational(c))
    if not c.terms:
        return "0"
    bits = []
    for e in sorted(c.terms):
        r = c.terms[e]
        if e == 0:
            bits.append(format_rational(r))
        else:
            h = "hbar" if e == 1 else f"hbar^{e}"
            bits.append(h if r == 1 else f"{format_rational(r)}*{h}")
    return " + ".join(bits).replace("+ -", "- ")


def scalar_to_json(c):
    if isinstance(c, HPoly):
        return {str(e): format_rational(r) for e, r in sorted(c.terms.items())}
    return format_rational(Rational(c))


def _exponent(key: str) -> int:
    """An hbar exponent written as ``scalar_to_json`` writes it, the
    decimal digits of the int: no sign but a minus, no leading zero."""
    if not re.fullmatch(r"0|-?[1-9][0-9]*", key):
        raise DataFormatError(f"hbar exponent {key!r} is not a decimal integer")
    return int(key)


def scalar_from_json(ctx: HContext, obj, window=None):
    """A scalar from text or {hbar exponent: text}.  A numeric hbar's
    exponents must lie in ``window`` (lo, hi) if given, checked before the
    texts are read."""
    if isinstance(obj, str):
        return ctx.scalar(parse_rational(obj))
    if not isinstance(obj, dict):
        raise ValueError(f"bad scalar encoding: {obj!r}")
    exps = [_exponent(e) for e in obj]
    if ctx.is_numeric and exps and window is not None:
        check_window(HContext.symbolic(*window), min(exps), max(exps))
    terms = {e: parse_rational(r) for e, r in zip(exps, obj.values())}
    den = common_denominator(terms.values())
    return ctx.form(numerators(terms, den), den)
