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

Products run on the integer kernel at the end of this module: every
coefficient of an operand becomes an integer numerator (numeric hbar) or a
dict from hbar exponent to integer numerator (formal hbar) over the lcm of
the operand's denominators.  The numerators are convolved as plain ints and
each output coefficient is reduced once, so the results are the same
canonical rationals that term-by-term rational arithmetic gives.
``TPoly`` products feed the same kernel with one denominator per operand.
The residual checks keep whole polynomials on the kernel's codes
(``tpoly.resident``); there a product of numeric codes packs each series
into one integer (Kronecker substitution), so one integer product
convolves two series.
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
        da, (a,) = kernel.encode((self,))
        db, (b,) = kernel.encode((other,))
        out: dict = {}
        kernel.add_product(out, None, a, b)
        return kernel.decode(da * db, out[None])

    __rmul__ = __mul__

    def scale(self, s) -> "XSeries":
        return XSeries(
            self.ctx, self.cap, tuple(c * s for c in self.coeffs), valid=self.valid
        )

    def pow_int(self, n: int) -> "XSeries":
        if n < 0:
            return self.inverse().pow_int(-n)
        out = XSeries.one(self.ctx, self.cap)
        # keep the base's valid order even for n = 0 consumers
        out = XSeries(self.ctx, self.cap, out.coeffs[: self.valid + 1], valid=self.valid)
        for _ in range(n):
            out = out * self
        return out

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

    def diff_n(self, n: int) -> "XSeries":
        out = self
        for _ in range(n):
            out = out.diff()
        return out

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
# integer kernel for products
#
# ``encode`` writes series over one common denominator as codes
# (valid, first, entries[, flags]): ``first`` is the index of the first HPoly
# coefficient (valid + 1 if there is none), ``entries`` lists the nonzero
# coefficients in index order and, in formal mode, ``flags`` says of each
# coefficient whether it is an HPoly.  ``add_product`` adds the product of
# two codes into an accumulator [valid, first, buffer] of integer
# numerators, and ``decode`` reduces an accumulator to an XSeries: its valid
# order is the minimum over the products added, and a coefficient is an
# HPoly iff one of the products had an HPoly factor at or below it, as with
# HPoly * Rational.
#
# Linear combinations of series with scalar weights (``tpoly.
# linear_combination``) use the same codes: ``encode_scalars`` writes the
# weights over one common denominator, ``add_scaled`` adds a code times a
# weight into an accumulator [valid, types, buffer] and ``decode_scaled``
# reduces it.  There a coefficient is an HPoly iff the coefficient or the
# weight of one of the terms behind it was, as with ``XSeries.scale``.
#
# The residual checks (``tpoly`` resident polynomials) keep whole
# polynomials on integer codes from the encoded input to the final scan.
# Their code of one series is (valid, mask, nums): ``nums`` holds the valid
# + 1 numerators (ints, or dicts hbar exponent -> nonzero int) and bit j of
# ``mask`` says whether coefficient j is an HPoly.  ``codes`` encodes
# series, ``series`` decodes one, ``constant`` is the code of a constant
# series and ``encode_powers`` writes scalars num/den hbar^j (the Miwa
# factors) as ``encode_scalars`` would write them.  ``add``, ``rescale``
# (times an int), ``scale`` (times the code of a scalar, as
# ``XSeries.scale``) and ``diff`` (as ``XSeries.diff``) keep the
# denominator, and ``content`` / ``divide`` take out a common factor.
# A product of two polynomials writes their codes as ``operands`` once,
# adds each pair's product into an accumulator (``accumulate``) and reads
# each accumulator back as a code (``finish``): in formal mode that is
# ``add_product`` on the sparse entries, in numeric mode one integer
# product of Kronecker-packed series.  Each operation follows the rational
# one it stands for in values, valid order, coefficient types and
# ``HbarWindowError``.
#
# In formal mode the code of a scalar, the window rule and the dict
# multiply-accumulate are ``hscalar``'s (``scalar_codes``, ``check_window``,
# ``mul_add``).  ``add_product`` keeps its innermost loop inline: it runs
# once per pair of x-coefficients of every product.


class _NumericInts:
    """Numeric hbar: a coefficient is one integer numerator."""

    def __init__(self, ctx: HContext, cap: int):
        self.ctx = ctx
        self.cap = cap

    @staticmethod
    def encode(series):
        series = tuple(series)
        den = 1
        for s in series:
            den = common_denominator(s.coeffs, den)
        codes = []
        for s in series:
            entries = [(i, c.numerator * (den // c.denominator))
                       for i, c in enumerate(s.coeffs) if c]
            codes.append((s.valid, s.valid + 1, entries))
        return den, codes

    def add_product(self, out, key, a, b):
        acc = _accumulator(out, key, a, b, _int_buffer)
        buf, v = acc[2], acc[0]
        eb = b[2]
        for i, x in a[2]:
            if i > v:
                break
            room = v - i
            for k, y in eb:
                if k > room:
                    break
                buf[i + k] += x * y

    def decode(self, den, acc):
        v, _, buf = acc
        return XSeries(self.ctx, self.cap,
                       [Rational(n, den) if n else ZERO for n in buf[: v + 1]],
                       valid=v)

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
        acc = _scaled_accumulator(out, key, a, _int_buffer)
        buf, v = acc[2], acc[0]
        for i, x in a[2]:
            if i > v:
                break
            buf[i] += x * s

    decode_scaled = decode

    # -- resident codes (valid, mask, nums); mask is always 0 here --------

    @classmethod
    def codes(cls, series):
        den, codes = cls.encode(series)
        out = []
        for v, _, entries in codes:
            nums = [0] * (v + 1)
            for i, x in entries:
                nums[i] = x
            out.append((v, 0, nums))
        return den, out

    def series(self, den, a):
        return self.decode(den, (a[0], None, a[2]))

    def constant(self, s):
        return (self.cap, 0, [s] + [0] * self.cap)

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

    A nonzero HPoly entry carries its exponent span, so that every pair of
    HPoly coefficients the rational product would multiply, through the
    pair's own common valid order, raises ``HbarWindowError`` as that
    product would: its extreme exponents never cancel."""

    def __init__(self, ctx: HContext, cap: int):
        self.ctx = ctx
        self.cap = cap

    def encode(self, series):
        series = tuple(series)
        ctx = self.ctx
        values = [c for s in series for c in s.coeffs]
        for c in values:
            if isinstance(c, HPoly) and c.ctx is not ctx and c.ctx != ctx:
                raise ValueError("mixed hbar contexts")
        den, scodes = scalar_codes(values)
        scodes = iter(scodes)
        codes = []
        for s in series:
            first = s.valid + 1
            entries = []
            flags = []
            for i in range(len(s.coeffs)):
                nums, span, is_hpoly = next(scodes)
                flags.append(is_hpoly)
                if is_hpoly and i < first:
                    first = i
                if nums:
                    entries.append((i, nums, span))
            codes.append((s.valid, first, entries, flags))
        return den, codes

    def add_product(self, out, key, a, b):
        acc = _accumulator(out, key, a, b, _dict_buffer)
        buf, v = acc[2], acc[0]
        reach = min(a[0], b[0])
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

    def decode(self, den, acc):
        v, first, buf = acc
        return self._decode(den, v, buf, [j >= first for j in range(v + 1)])

    def _decode(self, den, v, buf, types):
        ctx = self.ctx
        coeffs = []
        for j in range(v + 1):
            if types[j]:
                coeffs.append(HPoly(ctx, reduce_terms(buf[j], den), _clean=True))
            else:
                n = buf[j].get(0, 0)
                coeffs.append(Rational(n, den) if n else ZERO)
        return XSeries(ctx, self.cap, coeffs, valid=v)

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
        acc = _scaled_accumulator(out, key, a, _dict_buffer)
        v, types, buf = acc
        nums, _, s_is_hpoly = s
        flags = a[3]
        for j in range(v + 1):
            if s_is_hpoly or flags[j]:
                types[j] = True
        for i, ta, _ in a[2]:
            if i > v:
                break
            mul_add(buf[i], ta, nums)
        if v == self.cap and not any(n for b in buf for n in b.values()):
            # The term-by-term sum drops a monomial whose coefficient
            # cancels to a zero of full valid order, and the next term
            # starts it afresh, with that term's coefficient types.
            acc[1] = [False] * (v + 1)

    def decode_scaled(self, den, acc):
        v, types, buf = acc
        return self._decode(den, v, buf, types)

    # -- resident codes (valid, mask, nums) ---------------------------------

    def codes(self, series):
        den, codes = self.encode(series)
        out = []
        for v, _, entries, flags in codes:
            nums = [_EMPTY] * (v + 1)
            for i, d, _ in entries:
                nums[i] = d
            out.append((v, sum(1 << j for j, f in enumerate(flags) if f), nums))
        return den, out

    def series(self, den, a):
        v, mask, nums = a
        return self._decode(den, v, nums, [mask >> j & 1 for j in range(v + 1)])

    def constant(self, s):
        nums, _, is_hpoly = s
        return (self.cap, int(is_hpoly), [nums] + [_EMPTY] * self.cap)

    @staticmethod
    def operand(a):
        v, mask, nums = a
        first = (mask & -mask).bit_length() - 1 if mask else v + 1
        return (v, first, [(i, d, (min(d), max(d)) if mask >> i & 1 else None)
                           for i, d in enumerate(nums) if d])

    def operands(self, codes1, codes2):
        operand = self.operand
        return [operand(c) for c in codes1], [operand(c) for c in codes2]

    accumulate = add_product

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


def _int_buffer(v):
    return [0] * (v + 1)


def _dict_buffer(v):
    return [{} for _ in range(v + 1)]


def _accumulator(out, key, a, b, new_buffer):
    """The accumulator out[key], made or updated for one more product a * b."""
    v = min(a[0], b[0])
    first = min(a[1], b[1])
    acc = out.get(key)
    if acc is None:
        out[key] = acc = [v, first, new_buffer(v)]
    else:
        if v < acc[0]:
            acc[0] = v
        if first < acc[1]:
            acc[1] = first
    return acc


def _scaled_accumulator(out, key, a, new_buffer):
    """The accumulator out[key] of a linear combination, made or updated
    for one more term with code ``a``."""
    v = a[0]
    acc = out.get(key)
    if acc is None:
        out[key] = acc = [v, [False] * (v + 1), new_buffer(v)]
    elif v < acc[0]:
        acc[0] = v
    return acc


def int_kernel(ctx: HContext, cap: int):
    """The integer product kernel for series with this context and x cap."""
    return _NumericInts(ctx, cap) if ctx.is_numeric else _SymbolicInts(ctx, cap)
