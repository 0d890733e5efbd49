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
a series in one code: each coefficient becomes an integer numerator
(numeric hbar) or a dict from hbar exponent to integer numerator (formal
hbar) over the lcm of the denominators, and a bitmask marks the HPoly
coefficients.  The numerators are convolved as plain ints and each output
coefficient is reduced once, so the results are the same canonical
rationals that term-by-term rational arithmetic gives.  A product of two
series encodes both, multiplies and decodes.  Products of ``TPoly`` values
with x-series coefficients, their linear combinations and the residual
checks work on the same codes (``tpoly.resident``); there a product of
numeric codes packs each series into one integer (Kronecker substitution),
so one integer product convolves two series.
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import HbarkpError
from .hscalar import (
    HContext, HPoly, check_window, mul_add, reduce_terms, render_scalar,
    scalar_codes, scalar_inv, scalar_is_zero,
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
# (valid, mask, nums): ``nums`` holds the valid + 1 numerators (ints, or
# dicts hbar exponent -> nonzero int) and bit j of ``mask`` says whether
# coefficient j is an HPoly.  ``codes`` encodes series and ``series``
# decodes one; ``constant`` is the code of a constant series.
# ``encode_scalars`` writes scalars over one common denominator and
# ``encode_powers`` writes scalars num/den hbar^j (the Miwa factors) as it
# would.
#
# ``product`` is ``XSeries.__mul__`` on two codes.  A product of two
# polynomials (``tpoly`` resident polynomials) writes their codes as
# ``operands`` once, adds each pair's product into an accumulator
# (``accumulate``) and reads each accumulator back as a code (``finish``):
# in formal mode that is a convolution of the sparse entries, in numeric
# mode one integer product of Kronecker-packed series.  There a valid order
# is the minimum over the products added, and a coefficient is an HPoly iff
# one of the products had an HPoly factor at or below it, as with
# HPoly * Rational.  ``add_scaled`` adds a code times a scalar into an
# accumulator of ``tpoly.linear_combination``, which ``series`` decodes;
# there a coefficient is an HPoly iff the coefficient or the scalar of one
# of the terms behind it was, as with ``XSeries.scale``.  ``add``,
# ``rescale`` (times an int), ``scale`` (times the code of a scalar, as
# ``XSeries.scale``) and ``diff`` (as ``XSeries.diff``) keep the
# denominator, and ``content`` / ``divide`` take out a common factor.  Each
# operation follows the rational one it stands for in values, valid order,
# coefficient types and ``HbarWindowError``.
#
# In formal mode the code of a scalar, the window rule and the dict
# multiply-accumulate are ``hscalar``'s (``scalar_codes``, ``check_window``,
# ``mul_add``).  ``accumulate`` keeps its innermost loop inline: it runs
# once per pair of x-coefficients of every product.


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
        (num, den, j), without forming them."""
        vn, vd = self.ctx.value.numerator, self.ctx.value.denominator
        factors = [(n * vn ** j, d * vd ** j) for n, d, j in factors]
        den = lcm(*(d for _, d in factors))
        return den, [n * (den // d) for n, d in factors]

    @staticmethod
    def check_scaled(series, scalars):
        """A numeric hbar has no window to leave."""

    @staticmethod
    def add_scaled(out, key, a, s):
        """Add the code ``a`` times the scalar code ``s`` into out[key]."""
        acc = out.get(key)
        if acc is None:
            out[key] = (a[0], 0, [x * s for x in a[2]])
        else:
            out[key] = (min(acc[0], a[0]), 0,
                        [y + x * s for y, x in zip(acc[2], a[2])])

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
            return max((abs(x).bit_length() for c in codes for x in c[2]),
                       default=0)
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
        v = min(a[0], b[0])
        return (v, 0, [x + y for x, y in zip(a[2][: v + 1], b[2])])

    @staticmethod
    def rescale(a, f):
        return (a[0], 0, [x * f for x in a[2]])

    scale = rescale

    @staticmethod
    def content(codes, den):
        """The gcd of ``den`` and every numerator of ``codes``."""
        return gcd(den, *(x for c in codes for x in c[2]))

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
    """Formal hbar: a coefficient is a dict hbar exponent -> numerator.

    In a product a nonzero HPoly entry carries its exponent span, so that
    every pair of HPoly coefficients the rational product would multiply,
    through the pair's own common valid order, raises ``HbarWindowError``
    as that product would: its extreme exponents never cancel."""

    def __init__(self, ctx: HContext, cap: int):
        self.ctx = ctx
        self.cap = cap

    encode_scalars = staticmethod(scalar_codes)

    @staticmethod
    def encode_powers(factors):
        """``encode_scalars`` of the scalars num/den hbar^j given as
        (num, den, j), without forming them: an HPoly unless j is 0."""
        factors = list(factors)
        den = lcm(*(d for _, d, _ in factors))
        return den, [({j: n * (den // d)}, (j, j), True) if j else
                     ({0: n * (den // d)}, None, False) for n, d, j in factors]

    def check_scaled(self, series, scalars):
        """Raise the ``HbarWindowError`` that ``series.scale(s)`` for each
        of ``scalars`` in turn would raise (``hscalar.check_window``)."""
        spans = [(min(c.terms), max(c.terms)) for c in series.coeffs
                 if isinstance(c, HPoly) and c.terms]
        for s in scalars:
            if not spans or not isinstance(s, HPoly) or not s.terms:
                continue
            s_lo, s_hi = min(s.terms), max(s.terms)
            for c_lo, c_hi in spans:
                check_window(self.ctx, c_lo + s_lo, c_hi + s_hi)

    def add_scaled(self, out, key, a, s):
        """Add the code ``a`` times the scalar code ``s`` into out[key], an
        accumulator [valid, mask, nums] whose dicts may hold zeros."""
        v, mask, nums = a
        acc = out.get(key)
        if acc is None:
            out[key] = acc = [v, 0, [{} for _ in range(v + 1)]]
        elif v < acc[0]:
            acc[0] = v
        v, buf = acc[0], acc[2]
        snums, _, s_is_hpoly = s
        acc[1] |= (1 << (v + 1)) - 1 if s_is_hpoly else mask
        for i in range(v + 1):
            if nums[i]:
                mul_add(buf[i], nums[i], snums)
        if v == self.cap and not any(n for b in buf for n in b.values()):
            # The term-by-term sum drops a monomial whose coefficient
            # cancels to a zero of full valid order, and the next term
            # starts it afresh, with that term's coefficient types.
            acc[1] = 0

    def codes(self, series):
        series = tuple(series)
        ctx = self.ctx
        values = [c for s in series for c in s.coeffs]
        for c in values:
            if isinstance(c, HPoly) and c.ctx is not ctx and c.ctx != ctx:
                raise ValueError("mixed hbar contexts")
        den, scodes = scalar_codes(values)
        scodes = iter(scodes)
        out = []
        for s in series:
            mask, nums = 0, []
            for j in range(s.valid + 1):
                d, _, is_hpoly = next(scodes)
                if is_hpoly:
                    mask |= 1 << j
                nums.append(d or _EMPTY)
            out.append((s.valid, mask, nums))
        return den, out

    def series(self, den, a):
        v, mask, nums = a
        ctx = self.ctx
        coeffs = []
        for j in range(v + 1):
            if mask >> j & 1:
                coeffs.append(HPoly(ctx, reduce_terms(nums[j], den), _clean=True))
            else:
                n = nums[j].get(0, 0)
                coeffs.append(Rational(n, den) if n else ZERO)
        return XSeries(ctx, self.cap, coeffs, valid=v)

    def constant(self, s):
        nums, _, is_hpoly = s
        return (self.cap, int(is_hpoly), [nums] + [_EMPTY] * self.cap)

    def product(self, a, b):
        """The product of two codes, as one accumulated pair."""
        out: dict = {}
        self.accumulate(out, None, self.operand(a), self.operand(b))
        return self.finish(out[None])

    @staticmethod
    def operand(a):
        """A code as a product operand (valid, first, entries): ``first``
        is the index of the first HPoly coefficient (valid + 1 if there is
        none) and ``entries`` lists (index, nums, span or None) of the
        nonzero coefficients in index order."""
        v, mask, nums = a
        first = (mask & -mask).bit_length() - 1 if mask else v + 1
        return (v, first, [(i, d, (min(d), max(d)) if mask >> i & 1 else None)
                           for i, d in enumerate(nums) if d])

    def operands(self, codes1, codes2):
        operand = self.operand
        return [operand(c) for c in codes1], [operand(c) for c in codes2]

    def accumulate(self, out, key, a, b):
        """Add the product of two operands into out[key], an accumulator
        [valid, first, nums]."""
        reach = min(a[0], b[0])
        first = min(a[1], b[1])
        acc = out.get(key)
        if acc is None:
            out[key] = acc = [reach, first, [{} for _ in range(reach + 1)]]
        else:
            if reach < acc[0]:
                acc[0] = reach
            if first < acc[1]:
                acc[1] = first
        buf, v = acc[2], acc[0]
        lo, hi = self.ctx.lo, self.ctx.hi
        eb = b[2]
        for i, ta, sa in a[2]:
            if i > reach:
                break
            for k, tb, sb in eb:
                j = i + k
                if j > reach:
                    break
                if sa is not None and sb is not None and (
                        sa[0] + sb[0] < lo or sa[1] + sb[1] > hi):
                    check_window(self.ctx, sa[0] + sb[0], sa[1] + sb[1])
                if j > v:
                    continue
                nums = buf[j]
                for e1, x in ta.items():
                    for e2, y in tb.items():
                        e = e1 + e2
                        nums[e] = nums.get(e, 0) + x * y

    @staticmethod
    def finish(acc):
        v, first, buf = acc
        mask = ((1 << (v + 1)) - 1) >> first << first
        return (v, mask, [{e: n for e, n in d.items() if n} if d else _EMPTY
                          for d in buf[: v + 1]])

    @staticmethod
    def add(a, b):
        v = min(a[0], b[0])
        nums = []
        for da, db in zip(a[2][: v + 1], b[2]):
            if not db:
                nums.append(da)
            elif not da:
                nums.append(db)
            else:
                d = dict(da)
                for e, y in db.items():
                    n = d.get(e, 0) + y
                    if n:
                        d[e] = n
                    else:
                        del d[e]
                nums.append(d)
        return (v, (a[1] | b[1]) & ((1 << (v + 1)) - 1), nums)

    @staticmethod
    def rescale(a, f):
        return (a[0], a[1], [{e: x * f for e, x in d.items()} if d else _EMPTY
                             for d in a[2]])

    @staticmethod
    def content(codes, den):
        return gcd(den, *(x for c in codes for d in c[2] for x in d.values()))

    @staticmethod
    def divide(a, g):
        return (a[0], a[1], [{e: x // g for e, x in d.items()} if d else _EMPTY
                             for d in a[2]])

    def scale(self, a, s):
        """``XSeries.scale`` by the scalar with code ``s``: each nonzero
        coefficient meets the scalar's window check in index order."""
        v, mask, nums = a
        snums, span, is_hpoly = s
        if is_hpoly:
            mask = (1 << (v + 1)) - 1
        if span is not None:
            ctx = self.ctx
            s_lo, s_hi = span
            for d in nums:
                if d and (min(d) + s_lo < ctx.lo or max(d) + s_hi > ctx.hi):
                    check_window(ctx, min(d) + s_lo, max(d) + s_hi)
        if len(snums) == 1:
            ((e0, y),) = snums.items()
            if e0:
                return (v, mask, [{e + e0: x * y for e, x in d.items()}
                                  if d else _EMPTY for d in nums])
            return (v, mask, [{e: x * y for e, x in d.items()} if d else _EMPTY
                              for d in nums])
        out = []
        for d in nums:
            acc: dict = {}
            mul_add(acc, d, snums)
            out.append({e: n for e, n in acc.items() if n})
        return (v, mask, out)

    @staticmethod
    def diff(a):
        v, mask, nums = a
        if v == 0:
            raise OrderExhaustedError("cannot differentiate: valid order 0")
        return (v - 1, mask >> 1, [{e: j * x for e, x in nums[j].items()}
                                   if nums[j] else _EMPTY for j in range(1, v + 1)])

    @staticmethod
    def is_zero(a):
        return not any(a[2])


# The shared empty numerator dict of a zero coefficient; codes never
# mutate the dicts they hold.
_EMPTY: dict = {}


def int_kernel(ctx: HContext, cap: int):
    """The integer kernel for series with this context and x cap."""
    return _NumericInts(ctx, cap) if ctx.is_numeric else _SymbolicInts(ctx, cap)


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
