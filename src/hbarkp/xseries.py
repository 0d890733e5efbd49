"""Truncated power series in the distinguished variable x.

An ``XSeries`` stores coefficients of x^0..x^valid, where ``valid`` <= cap
is the number of leading coefficients that are actually trustworthy.  Every
x-differentiation eats one order (the top stored coefficient of the
derivative would need an unknown one), so ``diff`` decrements ``valid``;
arithmetic combines valid orders as a minimum and reading past ``valid``
raises.  This bookkeeping is what keeps exactness honest once initial data
get differentiated, inverted and recombined.

Coefficients are scalars in the sense of ``hscalar`` (rationals, or Laurent
polynomials in hbar).  Instances are immutable.

Products run on the integer kernel at the end of this module, which writes
a series in one code over the lcm of the denominators: one integer
numerator per coefficient (numeric hbar), or one dict for the whole series
from (x power, hbar exponent), packed into one int key, to integer
numerator (formal hbar); a bitmask marks the HPoly coefficients.  The
numerators are convolved as plain ints and each output coefficient is
reduced once, so the results are the same canonical rationals that
term-by-term rational arithmetic gives.  A product of two series encodes
both, multiplies and decodes.  Resident polynomials (``tpoly.resident``),
which the residual checks use, keep every coefficient on these codes;
there a product of numeric codes packs each series into one integer
(Kronecker substitution), so one integer product convolves two series.
The assemblies' linear combinations (``tpoly.linear_combination``) sum
the scaled codes of their series with the residents' sum.  ``Coded`` is
one code over its own denominator as a ring element, for the
determinants of ``taubuild`` and the h_k of ``fbuild``'s bridge.
"""

from __future__ import annotations

import operator
from itertools import chain
from math import gcd, lcm

from .errors import HbarkpError
from .hscalar import (
    HContext, HPoly, check_window, reduce_terms, render_scalar, scalar_codes,
    scalar_inv, scalar_is_zero, window_error,
)
from .rational import ZERO, Rational, common_denominator


class OrderExhaustedError(HbarkpError, ArithmeticError):
    """Asked for an x-coefficient beyond the trustworthy order."""


_SCALARS = (int, Rational, HPoly)


class XSeries:
    __slots__ = ("ctx", "cap", "valid", "coeffs")

    def __init__(self, ctx: HContext, cap: int, coeffs, valid: int | None = None):
        if valid is None:
            valid = cap
        if valid < 0:
            raise OrderExhaustedError("series has no trustworthy coefficients")
        if valid > cap:
            raise ValueError("valid order exceeds cap")
        coeffs = tuple(coeffs)[: valid + 1]
        if len(coeffs) < valid + 1:
            coeffs = coeffs + (Rational(0),) * (valid + 1 - len(coeffs))
        self.ctx = ctx
        self.cap = cap
        self.valid = valid
        self.coeffs = coeffs

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(ctx: HContext, cap: int, value) -> "XSeries":
        return XSeries(ctx, cap, (value,) + (Rational(0),) * cap)

    @staticmethod
    def zero(ctx: HContext, cap: int) -> "XSeries":
        return XSeries.constant(ctx, cap, Rational(0))

    @staticmethod
    def one(ctx: HContext, cap: int) -> "XSeries":
        return XSeries.constant(ctx, cap, Rational(1))

    @staticmethod
    def x(ctx: HContext, cap: int) -> "XSeries":
        if cap < 1:
            raise ValueError("cap too small for x")
        return XSeries(ctx, cap, (Rational(0), Rational(1)) + (Rational(0),) * (cap - 1))

    # -- access -------------------------------------------------------------

    def coeff(self, j: int):
        if j < 0:
            raise IndexError(j)
        if j > self.valid:
            raise OrderExhaustedError(
                f"x^{j} beyond valid order {self.valid}"
            )
        return self.coeffs[j]

    def constant_term(self):
        return self.coeff(0)

    def is_zero(self) -> bool:
        """Zero through the valid order."""
        return all(scalar_is_zero(c) for c in self.coeffs)

    # -- arithmetic ---------------------------------------------------------

    def _join(self, other):
        if self.ctx != other.ctx:
            raise ValueError("mixed hbar contexts")
        if self.cap != other.cap:
            raise ValueError("mixed x caps")
        return min(self.valid, other.valid)

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            other = XSeries.constant(self.ctx, self.cap, other)
        elif not isinstance(other, XSeries):
            return NotImplemented
        v = self._join(other)
        return XSeries(
            self.ctx,
            self.cap,
            tuple(self.coeffs[j] + other.coeffs[j] for j in range(v + 1)),
            valid=v,
        )

    __radd__ = __add__

    def __neg__(self):
        return XSeries(
            self.ctx, self.cap, tuple(-c for c in self.coeffs), valid=self.valid
        )

    def __sub__(self, other):
        if isinstance(other, _SCALARS):
            other = XSeries.constant(self.ctx, self.cap, other)
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self.scale(other)
        if not isinstance(other, XSeries):
            return NotImplemented
        self._join(other)
        kernel = int_kernel(self.ctx, self.cap)
        da, (a,) = kernel.codes((self,))
        db, (b,) = kernel.codes((other,))
        return kernel.series(da * db, kernel.product(a, b))

    __rmul__ = __mul__

    def scale(self, s) -> "XSeries":
        return XSeries(
            self.ctx, self.cap, tuple(c * s for c in self.coeffs), valid=self.valid
        )

    # -- calculus -----------------------------------------------------------

    def diff(self) -> "XSeries":
        """d/dx; costs one valid order."""
        if self.valid == 0:
            raise OrderExhaustedError("cannot differentiate: valid order 0")
        v = self.valid - 1
        return XSeries(
            self.ctx,
            self.cap,
            tuple((j + 1) * self.coeffs[j + 1] for j in range(v + 1)),
            valid=v,
        )

    def inverse(self) -> "XSeries":
        """Multiplicative inverse; constant term must be a unit."""
        c0 = self.coeffs[0]
        r0 = scalar_inv(c0)
        out = [r0]
        for n in range(1, self.valid + 1):
            s = self.coeffs[1] * out[n - 1]
            for k in range(2, n + 1):
                s = s + self.coeffs[k] * out[n - k]
            out.append(-(r0 * s))
        return XSeries(self.ctx, self.cap, tuple(out), valid=self.valid)

    def exp(self) -> "XSeries":
        """Formal exponential; requires zero constant term (keeps Q exact)."""
        if not scalar_is_zero(self.coeffs[0]):
            raise ValueError("exp needs zero constant term")
        out = [self.ctx.one()]
        for n in range(1, self.valid + 1):
            s = None
            for k in range(1, n + 1):
                t = (k * self.coeffs[k]) * out[n - k]
                s = t if s is None else s + t
            out.append(s * Rational(1, n))
        return XSeries(self.ctx, self.cap, tuple(out), valid=self.valid)

    def log(self) -> "XSeries":
        """Formal logarithm; requires constant term 1."""
        if not scalar_is_zero(self.coeffs[0] - 1):
            raise ValueError("log needs constant term 1")
        out = [self.ctx.zero()]
        for n in range(1, self.valid + 1):
            s = self.coeffs[n]
            for k in range(1, n):
                s = s - Rational(k, n) * (out[k] * self.coeffs[n - k])
            out.append(s)
        return XSeries(self.ctx, self.cap, tuple(out), valid=self.valid)

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other):
        """Equality through the common valid order."""
        if isinstance(other, _SCALARS):
            other = XSeries.constant(self.ctx, self.cap, other)
        elif not isinstance(other, XSeries):
            return NotImplemented
        v = self._join(other)
        return all(
            scalar_is_zero(self.coeffs[j] - other.coeffs[j]) for j in range(v + 1)
        )

    __hash__ = None  # unhashable: equality is order-relative

    def render(self) -> str:
        """The coefficients as ``[c0, c1, ...]``, each one as a scalar."""
        return "[" + ", ".join(render_scalar(v) for v in self.coeffs) + "]"

    def __repr__(self):
        return f"XSeries(valid={self.valid}, coeffs={list(self.coeffs)})"


# ---------------------------------------------------------------------------
# integer kernel
#
# The kernel writes series over one common denominator as codes
# (valid, mask, nums) and bit j of ``mask`` says whether coefficient j is
# an HPoly.  In numeric mode ``nums`` is the list of the valid + 1 integer
# numerators.  In formal mode it is one dict for the whole series: the key
# j * S + (e - lo) of x^j hbar^e maps to its nonzero numerator, where
# [lo, hi] is the window and S = hi - lo + 1, and no key lies past the
# valid order.  So a sum or a rescaling is one dict operation, a scaling
# by c hbar^e adds e to every key, and a product adds the keys of each
# pair of entries (and ``lo``).  ``codes`` encodes series and ``series``
# decodes one; ``constant`` is the code of a constant series.
# ``encode_scalars`` writes scalars over one common denominator and
# ``encode_powers`` writes scalars num/den hbar^j, given as integer
# triples (num, den, j), as it would, without forming them: the Miwa
# factors, the weights of the extraction and the rows of the bases
# s_lam(t/hbar) and t^hbar_lam (``symfun``).  There j may be negative
# (exactly: a numeric hbar = p/q gives q^-j / p^-j, and hbar = 0 raises
# ``HbarValueError``), and j = None stands for the rational num/den
# itself: in formal mode the scalar is an HPoly iff j is not None, so
# (n, d, 0) is the HPoly n/d hbar^0.  ``check_rows`` raises the window
# error that forming such scalars in formal hbar would raise; at a
# numeric hbar ``encode_powers`` has raised all there is to raise.
#
# ``product`` is ``XSeries.__mul__`` on two codes, and ``Coded`` wraps a
# code and its denominator for the rings of ``linalg.det`` and
# ``symfun.h_apply``.  A product of two
# polynomials (``tpoly`` resident polynomials) writes their codes as
# ``operands`` once, adds each pair's product into an accumulator
# (``accumulate``) and reads each accumulator back as a code (``finish``):
# in formal mode that is a convolution of the sparse entries, in numeric
# mode one integer product of Kronecker-packed series.  There a valid order
# is the minimum over the products added, and a coefficient is an HPoly iff
# one of the products had an HPoly factor at or below it, as with
# HPoly * Rational.  ``add``, ``rescale`` (times an int), ``scale``
# (times the code of a scalar, as ``XSeries.scale``; ``scale_each`` takes
# one code times each of many scalars) and ``diff`` (as
# ``XSeries.diff``) keep the denominator, and ``content`` / ``divide``
# take out a common factor; the sums of ``tpoly`` (the assemblies' linear
# combinations among them) are ``scale_each`` and ``add``.  Each operation
# follows the rational one it stands for in values, valid order,
# coefficient types and ``HbarWindowError``.
#
# In formal mode the code of a scalar and the window rule are ``hscalar``'s
# (``scalar_codes``, ``check_window``).  A product's operands hold their
# entries in key order, so that ``accumulate`` runs one flat double loop
# over the pairs of entries, which stops each inner pass at the first
# entry past the pair's valid order.  The window is checked pair by pair
# of HPoly coefficients only where the exponent spans of the whole
# operands leave it.


class _NumericInts:
    """Numeric hbar: a coefficient is one integer numerator; the mask is
    always 0."""

    def __init__(self, ctx: HContext, cap: int):
        self.ctx = ctx
        self.cap = cap

    @staticmethod
    def encode_scalars(values):
        values = tuple(values)
        den = common_denominator(values)
        return den, [v.numerator * (den // v.denominator) for v in values]

    def encode_powers(self, factors):
        """``encode_scalars`` of the scalars num/den hbar^j given as
        (num, den, j), without forming them (block comment above).  Each
        power of hbar is formed once, and a negative one at hbar = 0
        raises the ``HbarValueError`` of ``HContext.hbar_pow``."""
        p, q = self.ctx.value.numerator, self.ctx.value.denominator
        powers: dict = {}
        scaled = []
        for n, d, j in factors:
            if j:
                f = powers.get(j)
                if f is None:
                    if j > 0:
                        f = (p ** j, q ** j)
                    elif p:
                        f = (q ** -j, p ** -j)
                    else:
                        self.ctx.hbar_pow(j)  # raises: hbar^j at hbar = 0
                    powers[j] = f
                n, d = n * f[0], d * f[1]
                g = gcd(n, d)
                if g > 1:
                    n, d = n // g, d // g
            scaled.append((n, d))
        den = lcm(*(d for _, d in scaled))
        return den, [n * (den // d) for n, d in scaled]

    @staticmethod
    def check_rows(rows):
        """Nothing to raise: forming the scalars of ``rows`` at a numeric
        hbar fails only for a negative power at hbar = 0, and its caller
        (``tpoly.linear_combination``) has run ``encode_powers``, which
        raises that error, on all the rows first."""

    @staticmethod
    def codes(series):
        series = tuple(series)
        den = 1
        for s in series:
            den = common_denominator(s.coeffs, den)
        return den, [(s.valid, 0, [c.numerator * (den // c.denominator)
                                   for c in s.coeffs]) for s in series]

    def series(self, den, a):
        v, _, nums = a
        return XSeries(self.ctx, self.cap,
                       [Rational(n, den) if n else ZERO for n in nums[: v + 1]],
                       valid=v)

    def constant(self, s):
        return (self.cap, 0, [s] + [0] * self.cap)

    @staticmethod
    def product(a, b):
        """The schoolbook product of two codes, zeros skipped."""
        v = min(a[0], b[0])
        out = [0] * (v + 1)
        na, nb = a[2], b[2]
        for i in range(v + 1):
            x = na[i]
            if x:
                for k in range(v + 1 - i):
                    y = nb[k]
                    if y:
                        out[i + k] += x * y
        return (v, 0, out)

    @staticmethod
    def operands(codes1, codes2):
        """The codes of a product's two operands as Kronecker operands
        (valid, K, B): K holds the numerators in fields of B bits, the
        sign carried into the next field, so that K_a * K_b holds the
        convolution.  B bounds every numerator of a sum of products on one
        key: at most min(len) pairs meet there, each a sum of at most
        valid + 1 products."""
        def bits(codes):
            return max(map(abs, chain.from_iterable(c[2] for c in codes)),
                       default=0).bit_length()
        v = max((c[0] for c in codes1), default=0)
        n = min(len(codes1), len(codes2))
        B = bits(codes1) + bits(codes2) + (v + 1).bit_length() + n.bit_length() + 1

        def pack(c):
            K = 0
            for x in reversed(c[2]):
                K = (K << B) + x
            return (c[0], K, B)
        return [pack(c) for c in codes1], [pack(c) for c in codes2]

    @staticmethod
    def accumulate(out, key, a, b):
        """Add the product of two Kronecker operands into out[key]."""
        v = a[0] if a[0] < b[0] else b[0]
        acc = out.get(key)
        if acc is None:
            out[key] = [v, a[1] * b[1], a[2]]
        else:
            if v < acc[0]:
                acc[0] = v
            acc[1] += a[1] * b[1]

    @staticmethod
    def finish(acc):
        """The code of an accumulated sum of products: its first valid + 1
        fields, read as signed numerators."""
        v, K, B = acc
        mask, half, full = (1 << B) - 1, 1 << (B - 1), 1 << B
        nums = []
        for _ in range(v + 1):
            d = K & mask
            if d >= half:
                d -= full
            nums.append(d)
            K = (K - d) >> B
        return (v, 0, nums)

    @staticmethod
    def add(a, b):
        """A code holds valid + 1 numerators, so the shorter list ends the
        sum at the lower valid order."""
        return (min(a[0], b[0]), 0, list(map(operator.add, a[2], b[2])))

    @staticmethod
    def rescale(a, f):
        return (a[0], 0, [x * f for x in a[2]])

    scale = rescale

    @staticmethod
    def scale_each(a, factors):
        v, _, nums = a
        return [(v, 0, [x * f for x in nums]) for f in factors]

    @staticmethod
    def content(codes, den):
        """The gcd of ``den`` and every numerator of ``codes``."""
        return gcd(den, *chain.from_iterable(c[2] for c in codes))

    @staticmethod
    def divide(a, g):
        return (a[0], 0, [x // g for x in a[2]])

    @staticmethod
    def diff(a):
        v, _, nums = a
        if v == 0:
            raise OrderExhaustedError("cannot differentiate: valid order 0")
        return (v - 1, 0, [j * nums[j] for j in range(1, v + 1)])

    @staticmethod
    def is_zero(a):
        return not any(a[2])


class _SymbolicInts:
    """Formal hbar: a code is (valid, mask, d), d one dict from the key
    j * S + (e - lo) of x^j hbar^e to its numerator (block comment above).

    Every stored exponent lies in the window, so the keys of a product of
    two entries add up to the key of their product plus ``lo``, as long as
    the product's exponent is in the window too: it is when one factor is
    a rational (exponent 0, which every window holds), and a pair of HPoly
    coefficients is window-checked before any of it is accumulated.  In a
    product the HPoly coefficients keep their exponent spans for that
    check, so that every pair the rational product would multiply, through
    the pair's own common valid order, raises ``HbarWindowError`` as that
    product would: its extreme exponents never cancel."""

    def __init__(self, ctx: HContext, cap: int):
        self.ctx = ctx
        self.cap = cap
        self.lo = ctx.lo
        self.S = ctx.hi - ctx.lo + 1

    encode_scalars = staticmethod(scalar_codes)

    @staticmethod
    def encode_powers(factors):
        """``encode_scalars`` of the scalars num/den hbar^j given as
        (num, den, j), without forming them: an HPoly unless j is None."""
        factors = list(factors)
        den = lcm(*(d for _, d, _ in factors))
        return den, [({j: n * (den // d)}, (j, j), True) if j is not None else
                     ({0: n * (den // d)}, None, False) for n, d, j in factors]

    def check_rows(self, rows):
        """Raise the ``HbarWindowError`` that forming the terms of ``rows``
        (key, num, den, j) as scalars in turn would raise: the first
        hbar^j outside the window."""
        lo, hi = self.ctx.lo, self.ctx.hi
        for *_, j in rows:
            if j is not None and (j < lo or j > hi):
                raise window_error(self.ctx, j)

    def codes(self, series):
        series = tuple(series)
        ctx, S, lo = self.ctx, self.S, self.lo
        values = [c for s in series for c in s.coeffs]
        for c in values:
            if isinstance(c, HPoly) and c.ctx is not ctx and c.ctx != ctx:
                raise ValueError("mixed hbar contexts")
        den, scodes = scalar_codes(values)
        scodes = iter(scodes)
        out = []
        for s in series:
            mask, d = 0, {}
            for j in range(s.valid + 1):
                nums, _, is_hpoly = next(scodes)
                if is_hpoly:
                    mask |= 1 << j
                base = j * S - lo
                for e, n in nums.items():
                    d[base + e] = n
            out.append((s.valid, mask, d))
        return den, out

    def series(self, den, a):
        v, mask, d = a
        ctx, S, lo = self.ctx, self.S, self.lo
        rows = [{} for _ in range(v + 1)]
        for k, n in d.items():
            j, r = divmod(k, S)
            rows[j][r + lo] = n
        coeffs = []
        for j, nums in enumerate(rows):
            if mask >> j & 1:
                coeffs.append(HPoly(ctx, reduce_terms(nums, den), _clean=True))
            else:
                n = nums.get(0, 0)
                coeffs.append(Rational(n, den) if n else ZERO)
        return XSeries(ctx, self.cap, coeffs, valid=v)

    def constant(self, s):
        nums, _, is_hpoly = s
        lo = self.lo
        return (self.cap, int(is_hpoly), {e - lo: n for e, n in nums.items()})

    def product(self, a, b):
        """The product of two codes, as one accumulated pair."""
        out: dict = {}
        self.accumulate(out, None, self.operand(a), self.operand(b))
        return self.finish(out[None])

    def operand(self, a):
        """A code as a product operand (valid, first, items, span, a):
        ``first`` is the index of the first HPoly coefficient (valid + 1 if
        there is none), ``items`` the entries in key order and ``span`` the
        least and the greatest exponent of an HPoly entry (None if there is
        none)."""
        v, mask, d = a
        if not mask:
            return (v, v + 1, sorted(d.items()), None, a)
        first = (mask & -mask).bit_length() - 1
        S = self.S
        if mask == (1 << (v + 1)) - 1:
            rs = list(map(S.__rmod__, d))
        else:
            rs = [k % S for k in d if mask >> (k // S) & 1]
        span = (min(rs) + self.lo, max(rs) + self.lo) if rs else None
        return (v, first, sorted(d.items()), span, a)

    def operands(self, codes1, codes2):
        operand = self.operand
        return [operand(c) for c in codes1], [operand(c) for c in codes2]

    def _spans(self, a):
        """(index, least, greatest exponent) of each nonzero HPoly
        coefficient of a code, in index order."""
        v, mask, d = a
        S, lo = self.S, self.lo
        spans: dict = {}
        for k in d:
            j, r = divmod(k, S)
            if mask >> j & 1:
                span = spans.get(j)
                spans[j] = (r, r) if span is None else (
                    min(span[0], r), max(span[1], r))
        return [(j, spans[j][0] + lo, spans[j][1] + lo) for j in sorted(spans)]

    def _check_pairs(self, a, b, reach):
        """Raise the ``HbarWindowError`` of the first pair of HPoly
        coefficients, in index order, that leaves the window through the
        pair's common valid order ``reach``."""
        ctx = self.ctx
        lo, hi = ctx.lo, ctx.hi
        spans_b = self._spans(b)
        for i, a_lo, a_hi in self._spans(a):
            if i > reach:
                break
            for k, b_lo, b_hi in spans_b:
                if i + k > reach:
                    break
                if a_lo + b_lo < lo or a_hi + b_hi > hi:
                    check_window(ctx, a_lo + b_lo, a_hi + b_hi)

    def accumulate(self, out, key, a, b):
        """Add the product of two operands into out[key], an accumulator
        [valid, first, d] whose dict may hold zeros and keys past its
        valid order."""
        va, fa, ea, sa, ca = a
        vb, fb, eb, sb, cb = b
        reach = va if va < vb else vb
        first = fa if fa < fb else fb
        acc = out.get(key)
        if acc is None:
            out[key] = acc = [reach, first, {}]
        else:
            if reach < acc[0]:
                acc[0] = reach
            if first < acc[1]:
                acc[1] = first
        S, lo = self.S, self.lo
        if sa is not None and sb is not None and (
                sa[0] + sb[0] < lo or sa[1] + sb[1] > self.ctx.hi):
            self._check_pairs(ca, cb, reach)
        d = acc[2]
        top = (acc[0] + 1) * S
        for ka, x in ea:
            # the entries of b whose x-power keeps the pair's within top
            lim = top - ka + ka % S
            if lim <= 0:
                break
            ka += lo
            for kb, y in eb:
                if kb >= lim:
                    break
                k = ka + kb
                d[k] = d.get(k, 0) + x * y

    def finish(self, acc):
        v, first, d = acc
        mask = ((1 << (v + 1)) - 1) >> first << first
        top = (v + 1) * self.S
        return (v, mask, {k: n for k, n in d.items() if n and k < top})

    def add(self, a, b):
        v = a[0] if a[0] < b[0] else b[0]
        da, db = a[2], b[2]
        mask = (a[1] | b[1]) & ((1 << (v + 1)) - 1)
        top = (v + 1) * self.S
        if a[0] > v:
            da = {k: x for k, x in da.items() if k < top}
        elif db:
            da = dict(da)
        for k, y in db.items():
            if k < top:
                n = da.get(k, 0) + y
                if n:
                    da[k] = n
                else:
                    del da[k]
        return (v, mask, da)

    @staticmethod
    def rescale(a, f):
        return (a[0], a[1], {k: x * f for k, x in a[2].items()})

    @staticmethod
    def content(codes, den):
        g = den
        for c in codes:
            if g == 1:
                break
            g = gcd(g, *c[2].values())
        return g

    @staticmethod
    def divide(a, g):
        return (a[0], a[1], {k: x // g for k, x in a[2].items()})

    def scale(self, a, s):
        """``scale_each`` by the one scalar with code ``s``."""
        return self.scale_each(a, (s,))[0]

    def scale_each(self, a, scalars):
        """``XSeries.scale`` of the code ``a`` by each scalar code of
        ``scalars`` in turn: each nonzero coefficient meets the scalar's
        window check in index order.  A scalar c hbar^e shifts every key by
        e.  The code's least and greatest exponent are read once, where a
        scalar first needs them."""
        v, mask, d = a
        ctx, S, lo = self.ctx, self.S, self.lo
        least = most = None
        out = []
        for snums, span, is_hpoly in scalars:
            if span is not None and d:
                # every exponent lies in the window, so only a negative s_lo
                # can leave it at the low end and only a positive s_hi at
                # the high end
                s_lo, s_hi = span
                if s_lo < 0 and least is None:
                    least = min(map(S.__rmod__, d)) + lo
                if s_hi > 0 and most is None:
                    most = max(map(S.__rmod__, d)) + lo
                if (s_lo < 0 and least + s_lo < ctx.lo
                        or s_hi > 0 and most + s_hi > ctx.hi):
                    for _, c_lo, c_hi in self._spans((v, -1, d)):
                        check_window(ctx, c_lo + s_lo, c_hi + s_hi)
            m = (1 << (v + 1)) - 1 if is_hpoly else mask
            if len(snums) == 1:
                ((e, y),) = snums.items()
                out.append((v, m, {k + e: x * y for k, x in d.items()} if e
                            else {k: x * y for k, x in d.items()}))
                continue
            acc: dict = {}
            for e, y in snums.items():
                for k, x in d.items():
                    k += e
                    acc[k] = acc.get(k, 0) + x * y
            out.append((v, m, {k: n for k, n in acc.items() if n}))
        return out

    def diff(self, a):
        v, mask, d = a
        if v == 0:
            raise OrderExhaustedError("cannot differentiate: valid order 0")
        S = self.S
        return (v - 1, mask >> 1, {k - S: k // S * x for k, x in d.items()
                                   if k >= S})

    @staticmethod
    def is_zero(a):
        return not a[2]


def int_kernel(ctx: HContext, cap: int):
    """The integer kernel for series with this context and x cap."""
    return _NumericInts(ctx, cap) if ctx.is_numeric else _SymbolicInts(ctx, cap)


class Coded:
    """An x-series as a code of ``kernel`` over its own denominator
    ``den``, a ring element for ``linalg.det`` and ``symfun.h_apply``:
    sums (over the lcm of the denominators), negation, products, and
    multiples by ints and rationals, which go into the denominator as far
    as they divide it.  ``series`` decodes it."""

    __slots__ = ("kernel", "den", "code")

    def __init__(self, kernel, den: int, code):
        self.kernel, self.den, self.code = kernel, den, code

    def __add__(self, other):
        kernel, da, db = self.kernel, self.den, other.den
        a, b = self.code, other.code
        if da != db:
            den = lcm(da, db)
            a, b = kernel.rescale(a, den // da), kernel.rescale(b, den // db)
            da = den
        return Coded(kernel, da, kernel.add(a, b))

    def __neg__(self):
        return Coded(self.kernel, self.den, self.kernel.rescale(self.code, -1))

    def __mul__(self, other):
        kernel = self.kernel
        if isinstance(other, Coded):
            return Coded(kernel, self.den * other.den,
                         kernel.product(self.code, other.code))
        num, den = other.numerator, self.den * other.denominator
        g = gcd(num, den)
        code = self.code if num == g else kernel.rescale(self.code, num // g)
        return Coded(kernel, den // g, code)

    def series(self) -> XSeries:
        return self.kernel.series(self.den, self.code)


class Jets(dict):
    """Series s -> data[s] as codes of ``int_kernel``, over one denominator
    ``den``, under the key (s, 0); the code of the l-th x-derivative is
    formed at the first look-up of (s, l) and kept.  ``monomial`` keeps the
    products of jets the same way."""

    def __init__(self, data: dict, like: XSeries | None = None):
        like = next(iter(data.values()), None) if like is None else like
        if like is None or any(s.ctx != like.ctx or s.cap != like.cap
                               for s in data.values()):
            raise ValueError("need series of one hbar context and x cap")
        self.kernel = int_kernel(like.ctx, like.cap)
        self.den, codes = self.kernel.codes(data.values())
        super().__init__(((s, 0), c) for s, c in zip(data, codes))
        one = self.kernel.encode_scalars((1,))[1][0]
        self.products = {(): self.kernel.constant(one)}

    def __missing__(self, key):
        s, l = key
        if l == 0:
            raise KeyError(f"no series supplied for source f_{s}")
        code = self[key] = self.kernel.diff(self[s, l - 1])
        return code

    def monomial(self, gens: tuple):
        """The code of 1 * jet(gens[0]) * jet(gens[1]) * ..., over
        den ** len(gens), multiplied in that order.  Each product of a
        prefix is formed once, at the first monomial that needs it, and
        kept."""
        products = self.products
        code = products.get(gens)
        if code is None:
            code = products[gens] = self.kernel.product(
                self.monomial(gens[:-1]), self[gens[-1]])
        return code
