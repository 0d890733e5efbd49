"""Sparse polynomials in the KP times t_1, t_2, ... with optional z-slots.

A monomial is a pair of exponent tuples: one for the times (t_k exponent
a_k contributes k*a_k to the weight) and one for the slot variables
zeta_1..zeta_m, each slot standing for one expansion variable z_i^{-1}.
Storage is graded-truncated by three caps: monomials above the weight cap,
above the per-slot z-degree cap, or above the total-degree cap (t-weight
plus the sum of the zeta exponents; ``None``, the default, means no cap)
are dropped.  That is sound for graded series because multiplication only
raises all three degrees, so a dropped monomial never feeds a kept one.

Coefficients may be scalars (rationals / hbar-Laurent polynomials) or
``XSeries`` values (for assembled tau/F objects that still depend on x).
Zero scalar coefficients are never stored; zero ``XSeries`` coefficients
are kept when their valid order is below the cap, because "zero so far"
at low valid order is information that min-combining must not lose.

All three caps are explicit constructor parameters, never ambient state,
and instances are immutable.  Sums, negation, scaling, coefficient maps
and rendering are ``sparse``'s shared term arithmetic, with ``_droppable``
as the zero test.  Every product enumerates its pairs one way
(``_product_pairs``): monomial keys packed into ints (``_Packing``), both
operands sorted by the degree that the outer cap bounds, so the cap ends
the inner loop and a capped product costs only what it keeps.

``resident`` writes a polynomial whose coefficients are x-series on the
integer codes of ``xseries.int_kernel``, one denominator for the whole
polynomial; its private ``_Resident`` form keeps every result on those
codes until ``decode`` reduces each coefficient to canonical rationals
once.  When every coefficient of both operands is an x-series of one
context and cap, ``TPoly.__mul__`` is that resident product; scalar and
mixed coefficients are multiplied pair by pair over the same pairs.  The
exponential, the logarithm and the Miwa shift have only the resident
form, and the residual checks keep their whole computation resident;
``linear_combination`` accumulates the same codes.
"""

from __future__ import annotations

from functools import cache
from math import factorial, lcm
from operator import itemgetter, mul, neg

from .errors import HbarkpError
from .hscalar import HContext, HPoly, scalar_is_zero, scalar_inv
from .rational import Rational
from .sparse import add_terms, coeff_text, map_terms, render_terms
from .xseries import XSeries, int_kernel

_SCALARS = (int, Rational, HPoly)


class CapError(HbarkpError, ValueError):
    """A construction requires more weight / z-degree than the caps allow."""


def _trim(exps) -> tuple:
    exps = list(exps)
    while exps and exps[-1] == 0:
        exps.pop()
    return tuple(exps)


def texp_of(parts) -> tuple:
    """The t-exponents of t_{p1} t_{p2} ... for a list of parts."""
    texp = [0] * max(parts, default=0)
    for p in parts:
        texp[p - 1] += 1
    return tuple(texp)


def weight_of(texp: tuple) -> int:
    return sum((k + 1) * a for k, a in enumerate(texp))


def degree_of(key: tuple) -> int:
    """Total degree of a monomial key: t-weight plus the zeta exponents."""
    texp, zexp = key
    return weight_of(texp) + sum(zexp)


def _droppable(c) -> bool:
    if isinstance(c, XSeries):
        return c.valid == c.cap and c.is_zero()
    return scalar_is_zero(c)


def _coeff_is_zero(c) -> bool:
    if isinstance(c, XSeries):
        return c.is_zero()
    return scalar_is_zero(c)


def _coeff_text(c) -> str:
    if isinstance(c, XSeries):
        return c.render()
    return coeff_text(c)


def _monomial_text(key: tuple) -> str:
    texp, zexp = key
    vars_ = []
    for name, exps in (("t", texp), ("zeta", zexp)):
        for i, a in enumerate(exps):
            if a:
                vars_.append(f"{name}{i + 1}" if a == 1 else f"{name}{i + 1}^{a}")
    return "*".join(vars_) or "1"


def _series_only(*polys) -> bool:
    """Whether the polynomials have coefficients and each is an XSeries of
    the polynomials' context, all of one x cap."""
    cap = None
    for poly in polys:
        ctx = poly.ctx
        for c in poly.terms.values():
            if type(c) is not XSeries or (c.ctx is not ctx and c.ctx != ctx):
                return False
            if cap is None:
                cap = c.cap
            elif c.cap != cap:
                return False
    return cap is not None


def _diff_terms(terms: dict, k: int, times) -> dict:
    """The terms of the t_k-derivative; ``times(c, a)`` is the coefficient
    ``c`` times the exponent ``a`` of t_k."""
    out = {}
    i = k - 1
    for (texp, zexp), c in terms.items():
        if i >= len(texp) or texp[i] == 0:
            continue
        a = texp[i]
        nt = list(texp)
        nt[i] = a - 1
        out[(_trim(nt), zexp)] = times(c, a)
    return out


def linear_combination(pairs, ctx: HContext, weight_cap: int, z_cap: int = 0,
                       nslots: int = 0) -> "TPoly":
    """The sum of ``basis.scale(coeff)`` over ``pairs``, as ``TPoly.zero(ctx,
    weight_cap, z_cap, nslots)`` plus each term in turn would give it.

    Each ``basis`` has scalar coefficients and that shape; each ``coeff``
    is an XSeries of ``ctx``, all with one x cap.  The series and the basis
    scalars are each written once over one common denominator
    (``xseries.int_kernel``), every monomial's code accumulates the codes
    times the scalars (``add_scaled``), and each is reduced once.  The
    result is the term-by-term sum: values, valid orders, coefficient
    types, kept monomials, and the ``HbarWindowError`` of the first
    product, in the order of the pairs, of their monomials and of the
    x-powers, that leaves the window (``pairs`` may be lazy: a basis is
    made only after the products of the pairs before it are checked).
    """
    kernel = None
    bases, series = [], []
    for basis, coeff in pairs:
        if kernel is None:
            kernel = int_kernel(ctx, coeff.cap)
        if coeff.cap != kernel.cap or coeff.ctx != ctx:
            raise ValueError("mixed hbar contexts or x caps")
        kernel.check_scaled(coeff, basis.terms.values())
        bases.append(basis)
        series.append(coeff)
    if kernel is None:
        return TPoly.zero(ctx, weight_cap, z_cap, nslots)
    den_c, codes = kernel.codes(series)
    den_b, scalars = kernel.encode_scalars(
        c for basis in bases for c in basis.terms.values())
    scalars = iter(scalars)
    out: dict = {}
    for basis, coeff, code in zip(bases, series, codes):
        # A zero series of full valid order gives terms that TPoly.scale
        # drops (a TPoly stores no zero scalar).
        dropped = coeff.valid == coeff.cap and kernel.is_zero(code)
        for key in basis.terms:
            s = next(scalars)
            if not dropped:
                kernel.add_scaled(out, key, code, s)
    den = den_c * den_b
    terms = {}
    for key, acc in out.items():
        c = kernel.series(den, acc)
        if not _droppable(c):
            terms[key] = c
    return TPoly(ctx, weight_cap, z_cap, nslots, terms, _clean=True)


class TPoly:
    __slots__ = ("ctx", "weight_cap", "z_cap", "nslots", "degree_cap", "terms")

    def __init__(self, ctx: HContext, weight_cap: int, z_cap: int = 0,
                 nslots: int = 0, terms: dict | None = None, _clean=False,
                 degree_cap: int | None = None):
        self.ctx = ctx
        self.weight_cap = weight_cap
        self.z_cap = z_cap
        self.nslots = nslots
        self.degree_cap = degree_cap
        if terms is None:
            terms = {}
        if _clean:
            self.terms = terms
            return
        clean = {}
        for (texp, zexp), c in terms.items():
            texp = _trim(texp)
            zexp = _trim(zexp)
            if len(zexp) > nslots:
                raise CapError("more z-slots than declared")
            w = weight_of(texp)
            if w > weight_cap or any(d > z_cap for d in zexp):
                continue
            if degree_cap is not None and w + sum(zexp) > degree_cap:
                continue
            if _droppable(c):
                continue
            clean[(texp, zexp)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------------

    def _like(self, terms, _clean=False) -> "TPoly":
        return TPoly(self.ctx, self.weight_cap, self.z_cap, self.nslots,
                     terms, _clean=_clean, degree_cap=self.degree_cap)

    def _constant_like(self, value) -> "TPoly":
        return self._like({((), ()): value})

    @staticmethod
    def zero(ctx, weight_cap, z_cap=0, nslots=0, degree_cap=None) -> "TPoly":
        return TPoly(ctx, weight_cap, z_cap, nslots, {}, _clean=True,
                     degree_cap=degree_cap)

    @staticmethod
    def one(ctx, weight_cap, z_cap=0, nslots=0) -> "TPoly":
        return TPoly.constant(ctx, weight_cap, Rational(1), z_cap, nslots)

    @staticmethod
    def constant(ctx, weight_cap, value, z_cap=0, nslots=0) -> "TPoly":
        return TPoly(ctx, weight_cap, z_cap, nslots, {((), ()): value})

    @staticmethod
    def var_t(ctx, weight_cap, k: int, z_cap=0, nslots=0) -> "TPoly":
        """The time variable t_k (k >= 1)."""
        if k < 1:
            raise ValueError("times are indexed from 1")
        if k > weight_cap:
            raise CapError(f"t_{k} exceeds weight cap {weight_cap}")
        texp = (0,) * (k - 1) + (1,)
        return TPoly(ctx, weight_cap, z_cap, nslots, {(texp, ()): Rational(1)})

    @staticmethod
    def var_zeta(ctx, weight_cap, slot: int, z_cap, nslots, power: int = 1,
                 degree_cap=None) -> "TPoly":
        """zeta_slot^power, the slot variable standing for z_slot^{-1}."""
        if not (0 <= slot < nslots):
            raise ValueError("slot out of range")
        if power > z_cap:
            raise CapError("zeta power exceeds z cap")
        zexp = (0,) * slot + (power,)
        return TPoly(ctx, weight_cap, z_cap, nslots, {((), zexp): Rational(1)},
                     degree_cap=degree_cap)

    # -- structure ----------------------------------------------------------

    def _same_shape(self, other: "TPoly"):
        if (self.ctx, self.weight_cap, self.z_cap, self.nslots,
                self.degree_cap) != (other.ctx, other.weight_cap, other.z_cap,
                                     other.nslots, other.degree_cap):
            raise ValueError("incompatible polynomial shapes (ctx/caps/slots)")

    def with_slots(self, nslots: int, z_cap: int,
                   degree_cap: int | None = None) -> "TPoly":
        """Re-embed with a new slot configuration (existing slots must fit)
        and a new total-degree cap, dropping the monomials above it."""
        terms = {}
        for key, c in self.terms.items():
            zexp = key[1]
            if len(zexp) > nslots or any(d > z_cap for d in zexp):
                raise CapError("existing z monomials do not fit new slots")
            if degree_cap is None or degree_of(key) <= degree_cap:
                terms[key] = c
        return TPoly(self.ctx, self.weight_cap, z_cap, nslots, terms,
                     _clean=True, degree_cap=degree_cap)

    def coeff(self, parts=(), zexp=()):
        """Coefficient of the monomial t_{parts} * zeta^zexp (0 if absent)."""
        key = (texp_of(parts), _trim(zexp))
        return self.terms.get(key, self.ctx.zero())

    def constant_coeff(self):
        return self.terms.get(((), ()), self.ctx.zero())

    def monomials(self):
        return sorted(self.terms)

    def max_weight(self) -> int:
        return max((weight_of(t) for (t, _) in self.terms), default=0)

    def is_zero(self) -> bool:
        return all(_coeff_is_zero(c) for c in self.terms.values())

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            if other == 0:
                return self
            other = self._constant_like(other)
        elif not isinstance(other, TPoly):
            return NotImplemented
        self._same_shape(other)
        return self._like(add_terms(self.terms, other.terms, _droppable),
                          _clean=True)

    __radd__ = __add__

    def __neg__(self):
        return self.map_coeffs(neg)

    def __sub__(self, other):
        if isinstance(other, _SCALARS):
            return self.__add__(-Rational(other))
        return self.__add__(-other)

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self.scale(other)
        if isinstance(other, XSeries):
            return self.scale(other)
        if not isinstance(other, TPoly):
            return NotImplemented
        self._same_shape(other)
        if _series_only(self, other):
            return (resident(self) * resident(other)).decode()
        out: dict = {}
        pack, pairs = _product_pairs(self, self.terms, other.terms)
        for p, c1, c2 in pairs:
            c = c1 * c2
            out[p] = out[p] + c if p in out else c
        key = pack.key
        return self._like({key(p): c for p, c in out.items()
                           if not _droppable(c)}, _clean=True)

    __rmul__ = __mul__

    def scale(self, s) -> "TPoly":
        """Multiply every coefficient by a scalar or an XSeries."""
        if isinstance(s, _SCALARS) and scalar_is_zero(s):
            return self._like({}, _clean=True)
        return self.map_coeffs(lambda c: c * s)

    def pow_int(self, n: int) -> "TPoly":
        out = self._constant_like(Rational(1))
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, _SCALARS):
            other = self._constant_like(other)
        elif not isinstance(other, TPoly):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    # -- calculus and substitutions ------------------------------------------

    def diff_t(self, k: int) -> "TPoly":
        """Partial derivative with respect to t_k."""
        return self._like(_diff_terms(self.terms, k, mul), _clean=True)

    def diff_parts(self, parts) -> "TPoly":
        out = self
        for p in parts:
            out = out.diff_t(p)
        return out

    def map_coeffs(self, fn) -> "TPoly":
        return self._like(map_terms(self.terms, fn, _droppable), _clean=True)

    def zeta_coefficient(self, slot: int, power: int) -> "TPoly":
        """Coefficient of zeta_slot^power (slot exponent removed)."""
        out = {}
        for (texp, zexp), c in self.terms.items():
            d = zexp[slot] if slot < len(zexp) else 0
            if d != power:
                continue
            nz = list(zexp)
            if slot < len(nz):
                nz[slot] = 0
            out[(texp, _trim(nz))] = c
        return self._like(out, _clean=True)

    def restrict_weight(self, bound: int) -> "TPoly":
        """Keep monomials with t-weight + total z-degree <= bound."""
        out = {k: c for k, c in self.terms.items() if degree_of(k) <= bound}
        return self._like(out, _clean=True)

    # -- exp / log ----------------------------------------------------------

    def exp(self) -> "TPoly":
        """Graded exponential; requires no constant monomial.  Runs on
        integer codes (``resident``), where scalars among x-series, and the
        constant 1 of an x-series result, are constant series."""
        return resident(self).exp().decode()

    def log_unit(self) -> "TPoly":
        """Graded logarithm; the constant coefficient must be invertible.
        Runs on integer codes (``resident``)."""
        return resident(self).log_unit().decode()

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        return render_terms(
            (_coeff_text(self.terms[key]), _monomial_text(key))
            for key in sorted(self.terms, key=lambda k: (degree_of(k), k)))

    def __repr__(self):
        return f"TPoly({self.render()})"


# ---------------------------------------------------------------------------
# resident polynomials: the residual checks on integer codes
#
# A ``_Resident`` is a TPoly whose coefficients stay integer codes
# (valid, mask, nums) of ``xseries.int_kernel``, the one code of an
# x-series, over one denominator for the whole polynomial, so a chain of
# sums, scalings, products and Miwa shifts reduces nothing until
# ``decode``.  Sums, scalings, t-derivatives and products mirror their
# TPoly twins step by step, in the same order of monomials, pairs and
# x-powers: the decoded result has the same values, valid orders,
# coefficient types and kept monomials, and the first ``HbarWindowError``
# is the same one.  ``exp``, ``log_unit`` and ``substitute`` (the Miwa
# shift) have no twin: ``TPoly.exp``, ``TPoly.log_unit`` and
# ``hcalc.miwa_shift`` run them here.  ``signed_relabellings`` sums copies
# of one polynomial with their slots renamed, as the residuals of the
# checks that are symmetric in the slots need.
# The coefficients are x-series of one cap; a polynomial with scalar
# coefficients is held as x-series of cap 0 and decodes to scalars again.


def resident(poly: TPoly) -> "_Resident":
    """``poly`` on integer codes over one denominator.

    Its coefficients must be x-series of one context and cap, or scalars;
    scalars among x-series are taken as constant series."""
    values = list(poly.terms.values())
    series = [c for c in values if isinstance(c, XSeries)]
    scalar = not series
    cap = 0 if scalar else series[0].cap
    ctx = poly.ctx
    for c in series:
        if c.cap != cap or c.ctx != ctx:
            raise ValueError("mixed hbar contexts or x caps")
    values = [c if isinstance(c, XSeries) else XSeries.constant(ctx, cap, c)
              for c in values]
    kernel = int_kernel(ctx, cap)
    den, codes = kernel.codes(values)
    return _Resident(poly, kernel, scalar, den, dict(zip(poly.terms, codes)))


class _Packing:
    """Monomial keys of one shape as ints, so that adding two ints adds
    their exponents: t_1..t_W, then the slots, each a field of ``width``
    bits.  The top bit of a slot field is a guard: with ``offset`` added, a
    sum of two in-cap keys sets a guard bit iff a slot exceeds the z cap.
    A sum within the weight cap never carries out of a t field.  The maps
    between keys and ints keep every key met, at most the monomials within
    the caps."""

    def __init__(self, W: int, Z: int, nslots: int):
        f = self.width = max(W, Z, 1).bit_length() + 1
        self.W = W
        base = f * W
        self.guard = sum(1 << (base + f * s + f - 1) for s in range(nslots))
        self.offset = sum(((1 << (f - 1)) - 1 - Z) << (base + f * s)
                          for s in range(nslots))
        self.rows: dict = {}   # key -> (int, weight, total degree)
        self.keys: dict = {}   # int -> key

    def row(self, key):
        """(int, weight, total degree) of a key."""
        row = self.rows.get(key)
        if row is None:
            texp, zexp = key
            f, p = self.width, 0
            for i, a in enumerate(texp):
                p |= a << (f * i)
            for s, d in enumerate(zexp):
                p |= d << (f * (self.W + s))
            w = weight_of(texp)
            row = self.rows[key] = (p, w, w + sum(zexp))
            self.keys[p] = key
        return row

    def key(self, p: int):
        """The key of an int."""
        key = self.keys.get(p)
        if key is None:
            f, W = self.width, self.W
            mask = (1 << f) - 1
            n = (p.bit_length() + f - 1) // f
            fields = [(p >> (f * i)) & mask for i in range(max(n, W))]
            texp, zexp = key = (_trim(fields[:W]), _trim(fields[W:]))
            w = weight_of(texp)
            self.rows[key] = (p, w, w + sum(zexp))
            self.keys[p] = key
        return key

    def items(self, terms: dict, by_degree: bool) -> list:
        """(sort degree, weight, int, coeff) rows, stably sorted by the total
        degree if ``by_degree``, else by the weight."""
        row = self.row
        items = []
        for key, c in terms.items():
            p, w, d = row(key)
            items.append((d if by_degree else w, w, p, c))
        items.sort(key=itemgetter(0))
        return items

    def pairs(self, items1, items2, W: int, limit: int):
        """(int key, c1, c2) for the pairs of rows within the caps, in order.
        The first partner whose sort degree passes ``limit`` ends the inner
        loop; a partner over the weight cap alone is skipped."""
        offset, guard = self.offset, self.guard
        for s1, w1, p1, c1 in items1:
            budget = limit - s1
            w_budget = W - w1
            for s2, w2, p2, c2 in items2:
                if s2 > budget:
                    break
                if w2 > w_budget:
                    continue
                p = p1 + p2
                if (p + offset) & guard:
                    continue
                yield p, c1, c2


@cache
def _packing(W: int, Z: int, nslots: int) -> _Packing:
    return _Packing(W, Z, nslots)


def _product_pairs(shape, terms1: dict, terms2: dict):
    """(packing, pairs): the ``_Packing`` of the caps of ``shape`` and its
    ``pairs`` of ``terms1`` by ``terms2``, sorted by the degree that the
    outer cap bounds (total degree under a total-degree cap)."""
    W, D = shape.weight_cap, shape.degree_cap
    pack = _packing(W, shape.z_cap, shape.nslots)
    by_degree = D is not None
    return pack, pack.pairs(pack.items(terms1, by_degree),
                            pack.items(terms2, by_degree),
                            W, W if D is None else D)


class _Resident:
    """A TPoly on integer codes; see the block comment above."""

    __slots__ = ("ctx", "weight_cap", "z_cap", "nslots", "degree_cap",
                 "kernel", "scalar", "den", "terms")

    def __init__(self, shape, kernel, scalar: bool, den: int, terms: dict):
        self.ctx = shape.ctx
        self.weight_cap = shape.weight_cap
        self.z_cap = shape.z_cap
        self.nslots = shape.nslots
        self.degree_cap = shape.degree_cap
        self.kernel = kernel
        self.scalar = scalar
        self.den = den
        self.terms = terms

    def _like(self, terms: dict, den: int) -> "_Resident":
        return _Resident(self, self.kernel, self.scalar, den, terms)

    def _clean(self, terms: dict, den: int) -> "_Resident":
        """The polynomial of ``terms`` over ``den`` without the codes TPoly
        drops (zero series of full valid order, or zero scalars), and with
        the common factor of the numerators and ``den`` divided out."""
        kernel = self.kernel
        cap, is_zero = kernel.cap, kernel.is_zero
        terms = {k: c for k, c in terms.items() if c[0] != cap or not is_zero(c)}
        g = kernel.content(terms.values(), den)
        if g > 1:
            divide = kernel.divide
            terms = {k: divide(c, g) for k, c in terms.items()}
            den //= g
        return self._like(terms, den)

    def _same_shape(self, other):
        TPoly._same_shape(self, other)

    def _joined(self, other: "_Resident"):
        """The pair on one kernel: an empty polynomial, which cannot tell
        scalars from x-series, takes the other's.  Else they must agree."""
        self._same_shape(other)
        if (self.scalar, self.kernel.cap) == (other.scalar, other.kernel.cap):
            return self, other
        if not self.terms:
            return other._like({}, self.den), other
        if not other.terms:
            return self, self._like({}, other.den)
        raise ValueError("mixed x caps, or scalar and x-series coefficients")

    def _scalar_code(self, s):
        """(den, code) of one scalar."""
        den, (code,) = self.kernel.encode_scalars((s,))
        return den, code

    def _constant_like(self, value) -> "_Resident":
        den, s = self._scalar_code(value)
        return self._like({((), ()): self.kernel.constant(s)}, den)

    def coefficient(self, key):
        """The coefficient of one monomial, reduced, as ``decode`` gives it."""
        c = self.kernel.series(self.den, self.terms[key])
        return c.coeffs[0] if self.scalar else c

    def decode(self) -> TPoly:
        """The TPoly this stands for, each coefficient reduced once."""
        terms = {k: self.coefficient(k) for k in self.terms}
        return TPoly(self.ctx, self.weight_cap, self.z_cap, self.nslots, terms,
                     _clean=True, degree_cap=self.degree_cap)

    # -- sums ---------------------------------------------------------------

    def __add__(self, other):
        """A scalar is added as a constant series, which sums with a series
        as the scalar does; TPoly would store a scalar on a monomial that
        has no coefficient yet."""
        if isinstance(other, _SCALARS):
            if other == 0:
                return self
            other = self._constant_like(other)
        elif not isinstance(other, _Resident):
            return NotImplemented
        self, other = self._joined(other)
        rescale = self.kernel.rescale
        den = self.den if self.den == other.den else lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        out = (dict(self.terms) if fa == 1 else
               {k: rescale(c, fa) for k, c in self.terms.items()})
        self._accumulate(out, other.terms.items() if fb == 1 else
                         ((k, rescale(c, fb)) for k, c in other.terms.items()))
        return self._like(out, den)

    def _accumulate(self, out: dict, items) -> None:
        """Add each (key, code) of ``items`` into ``out`` in turn, as the
        TPoly sum does: a sum that cancels to a code TPoly drops is deleted,
        and a later code starts that monomial afresh."""
        kernel = self.kernel
        add, is_zero, cap = kernel.add, kernel.is_zero, kernel.cap
        for key, c in items:
            if key in out:
                s = add(out[key], c)
                if s[0] == cap and is_zero(s):
                    del out[key]
                else:
                    out[key] = s
            else:
                out[key] = c

    __radd__ = __add__

    def __neg__(self):
        rescale = self.kernel.rescale
        return self._like({k: rescale(c, -1) for k, c in self.terms.items()},
                          self.den)

    def __sub__(self, other):
        if isinstance(other, _SCALARS):
            return self.__add__(-Rational(other))
        return self.__add__(-other)

    # -- products -----------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self.scale(other)
        if isinstance(other, TPoly):
            return self._times_scalars(other, left=False)
        if not isinstance(other, _Resident):
            return NotImplemented
        self, other = self._joined(other)
        kernel = self.kernel
        ops1, ops2 = kernel.operands(self.terms.values(), other.terms.values())
        pack, pairs = _product_pairs(self, dict(zip(self.terms, ops1)),
                                     dict(zip(other.terms, ops2)))
        out: dict = {}
        accumulate = kernel.accumulate
        for p, a, b in pairs:
            accumulate(out, p, a, b)
        finish, key = kernel.finish, pack.key
        return self._clean({key(p): finish(acc) for p, acc in out.items()},
                           self.den * other.den)

    def __rmul__(self, other):
        if isinstance(other, TPoly):
            return self._times_scalars(other, left=True)
        return self.__mul__(other)

    def _times_scalars(self, poly: TPoly, left: bool) -> "_Resident":
        """The product with a TPoly of scalar coefficients, ``poly`` on the
        left if ``left``: each pair scales a series (``XSeries.scale``)."""
        self._same_shape(poly)
        if any(isinstance(c, XSeries) for c in poly.terms.values()):
            raise TypeError("a resident polynomial multiplies only "
                            "scalar-coefficient polynomials")
        kernel = self.kernel
        den, scodes = kernel.encode_scalars(poly.terms.values())
        theirs = dict(zip(poly.terms, scodes))
        pack, pairs = _product_pairs(self, theirs if left else self.terms,
                                     self.terms if left else theirs)
        scale, add = kernel.scale, kernel.add
        out: dict = {}
        for p, c1, c2 in pairs:
            c = scale(c2, c1) if left else scale(c1, c2)
            out[p] = add(out[p], c) if p in out else c
        key = pack.key
        return self._clean({key(p): c for p, c in out.items()}, self.den * den)

    def scale(self, s) -> "_Resident":
        """``TPoly.scale`` by a scalar."""
        if scalar_is_zero(s):
            return self._like({}, self.den)
        den, code = self._scalar_code(s)
        scale = self.kernel.scale
        return self._like({k: scale(c, code) for k, c in self.terms.items()},
                          self.den * den)

    def _renamed_keys(self, perm) -> list:
        """The keys in order, slot s of each renamed to perm[s]."""
        nslots = self.nslots
        renamed: dict = {}
        keys = []
        for texp, zexp in self.terms:
            z = renamed.get(zexp)
            if z is None:
                slots = [0] * nslots
                for s, d in enumerate(zexp):
                    slots[perm[s]] = d
                z = renamed[zexp] = _trim(slots)
            keys.append((texp, z))
        return keys

    def relabelled(self, perm) -> "_Resident":
        """perm·self: slot s renamed to perm[s].  Every cap is the same in
        each slot, so a renamed monomial is within the caps."""
        return self._like(dict(zip(self._renamed_keys(perm),
                                   self.terms.values())), self.den)

    def signed_relabellings(self, perms) -> "_Resident":
        """The sum of sgn(perm) perm·self over ``perms`` (``relabelled``),
        as the TPoly sum of those polynomials in turn gives it.  The terms
        go into one accumulator (``_accumulate``)."""
        negated = None
        out: dict = {}
        for perm in perms:
            odd = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:]) % 2
            if odd and negated is None:
                rescale = self.kernel.rescale
                negated = [rescale(c, -1) for c in self.terms.values()]
            self._accumulate(out, zip(self._renamed_keys(perm), negated if odd
                                      else self.terms.values()))
        return self._like(out, self.den)

    # -- calculus and substitutions ------------------------------------------

    def diff_t(self, k: int) -> "_Resident":
        """Partial derivative with respect to t_k."""
        return self._like(_diff_terms(self.terms, k, self.kernel.rescale),
                          self.den)

    def diff_x(self) -> "_Resident":
        """The x-derivative of every coefficient (``XSeries.diff``)."""
        if self.scalar and self.terms:
            raise TypeError("scalar coefficients have no x-derivative")
        diff = self.kernel.diff
        return self._like({k: diff(c) for k, c in self.terms.items()}, self.den)

    def substitute(self, expand, check) -> "_Resident":
        """Each monomial replaced by a sum of monomials: ``expand(key)`` is
        (rows, top), a row (key, num, den, j) standing for num/den hbar^j
        (no factor at all when j is 0), and ``check(top)`` raises before
        the monomial's rows are formed.  Rows on one key are summed in
        order; zero series of full valid order are dropped at the end."""
        kernel = self.kernel
        rows = [(c, expand(key)) for key, c in self.terms.items()]
        den, factors = kernel.encode_powers(
            row[1:] for _, (outs, _) in rows for row in outs)
        factors = iter(factors)
        scale, add = kernel.scale, kernel.add
        out: dict = {}
        for c, (outs, top) in rows:
            check(top)
            for key, *_ in outs:
                p = scale(c, next(factors))
                out[key] = add(out[key], p) if key in out else p
        return self._clean(out, self.den * den)

    # -- exp / log ----------------------------------------------------------

    def _degree_bound(self) -> int:
        """Largest total degree a stored monomial can have: the exp and log
        series stop at the first empty power, at most this many steps plus
        one on.  A zero x-series kept for its valid order on the constant
        monomial never empties them: from there on each power is zero and
        carries only valid orders that an earlier power brought in."""
        bound = self.weight_cap + self.nslots * self.z_cap
        return bound if self.degree_cap is None else min(bound, self.degree_cap)

    def _power_series(self, acc: "_Resident", weight) -> "_Resident":
        """acc plus weight(n) self^n for n = 1, 2, ... until a power is empty.
        The first power is 1 * self, which keeps every coefficient and orders
        the monomials as the product loop visits them."""
        pack = _packing(self.weight_cap, self.z_cap, self.nslots)
        key = pack.key
        power = self._like(
            {key(p): c for _, _, p, c in
             pack.items(self.terms, self.degree_cap is not None)}, self.den)
        for n in range(1, self._degree_bound() + 2):
            if n > 1:
                power = power * self
            if not power.terms:
                break
            acc = acc + power.scale(weight(n))
        return acc

    def exp(self) -> "_Resident":
        """The graded exponential.  Its constant 1 is held as a constant
        series, which sums as the scalar 1 does."""
        c0 = self.terms.get(((), ()))
        if c0 is not None and not self.kernel.is_zero(c0):
            raise ValueError("exp needs zero constant monomial")
        return self._power_series(self._constant_like(Rational(1)),
                                  lambda n: Rational(1, factorial(n)))

    def log_unit(self) -> "_Resident":
        """The graded logarithm log c0 + log(1 + rest), rest = self / c0 - 1,
        for an invertible constant coefficient c0.  A scalar c0 must be 1;
        that is checked last, after the series of rest."""
        kernel = self.kernel
        code = self.terms.get(((), ()))
        c0 = self.ctx.zero() if code is None else kernel.series(self.den, code)
        if self.scalar and code is not None:
            c0 = c0.coeffs[0]
        if isinstance(c0, XSeries):
            den, (inv,) = kernel.codes((c0.inverse(),))
            log_c0 = c0.log()
            rest = self._clean({k: kernel.product(c, inv)
                                for k, c in self.terms.items()}, self.den * den)
        else:
            rest = self.scale(scalar_inv(c0))
        acc = (rest - 1)._power_series(self._like({}, 1),
                                       lambda n: Rational((-1) ** (n + 1), n))
        if isinstance(c0, XSeries):
            den, (code,) = kernel.codes((log_c0,))
            acc = acc + self._clean({((), ()): code}, den)
        elif not scalar_is_zero(c0 - 1):
            raise ValueError("scalar constant coefficient must be 1 for log")
        return acc
