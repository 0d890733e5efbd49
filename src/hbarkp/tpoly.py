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
as the zero test; the product keeps its own loop.  Products enforce the
total-degree cap inside the pair loop, so a capped product costs only
what it keeps.  When every
coefficient of both operands is an ``XSeries``, a product encodes each
operand once as integer numerators over the lcm of its denominators and
accumulates each output monomial's numerators in one integer buffer
(``xseries.int_kernel``); each coefficient is reduced to canonical
rationals once, at the end.
"""

from __future__ import annotations

from math import factorial
from operator import itemgetter, neg

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


def _series_kernel(*operands):
    """The integer product kernel when every coefficient of the operands is
    an XSeries of one context and x cap, else None.  Mixed coefficients go
    through their own products, which raise on mixed contexts or caps."""
    ref = None
    for terms in operands:
        for c in terms.values():
            if type(c) is not XSeries:
                return None
            if ref is None:
                ref = c
            elif c.cap != ref.cap or (c.ctx is not ref.ctx and c.ctx != ref.ctx):
                return None
    return None if ref is None else int_kernel(ref.ctx, ref.cap)


def _encoded(kernel, terms: dict):
    """(den, terms with each XSeries replaced by its integer code)."""
    den, codes = kernel.encode(terms.values())
    return den, dict(zip(terms, codes))


def _graded_items(terms: dict, by_degree: bool) -> list:
    """(sort degree, weight, texp, zexp, coeff) rows in ascending sort degree;
    the sort degree is the total degree if ``by_degree``, else the weight."""
    items = []
    for (t, z), c in terms.items():
        w = weight_of(t)
        items.append((w + sum(z) if by_degree else w, w, t, z, c))
    items.sort(key=itemgetter(0))
    return items


def linear_combination(pairs, ctx: HContext, weight_cap: int, z_cap: int = 0,
                       nslots: int = 0) -> "TPoly":
    """The sum of ``basis.scale(coeff)`` over ``pairs``, as ``TPoly.zero(ctx,
    weight_cap, z_cap, nslots)`` plus each term in turn would give it.

    Each ``basis`` has scalar coefficients and that shape; each ``coeff``
    is an XSeries of ``ctx``, all with one x cap.  The series and the basis
    scalars are each written once over one common denominator
    (``xseries.int_kernel``), every monomial's x-coefficients accumulate
    integer numerators, and each is reduced once.  The result is the
    term-by-term sum: values, valid orders, coefficient types, kept
    monomials, and the ``HbarWindowError`` of the first product, in the
    order of the pairs, of their monomials and of the x-powers, that leaves
    the window (``pairs`` may be lazy: a basis is made only after the
    products of the pairs before it are checked).
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
    den_c, codes = kernel.encode(series)
    den_b, scalars = kernel.encode_scalars(
        c for basis in bases for c in basis.terms.values())
    scalars = iter(scalars)
    out: dict = {}
    for basis, coeff, code in zip(bases, series, codes):
        # A zero series of full valid order gives terms that TPoly.scale
        # drops (a TPoly stores no zero scalar).
        dropped = coeff.valid == coeff.cap and not code[2]
        for key in basis.terms:
            s = next(scalars)
            if not dropped:
                kernel.add_scaled(out, key, code, s)
    den = den_c * den_b
    terms = {}
    for key, acc in out.items():
        c = kernel.decode_scaled(den, acc)
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

    def monomial_times(self, parts) -> "TPoly":
        """Product t_{p1} t_{p2} ... for a part list (used by basis builders)."""
        texp = texp_of(parts)
        if weight_of(texp) > self.weight_cap:
            raise CapError("monomial exceeds weight cap")
        return self._like({(texp, ()): Rational(1)})

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

    def derivative_at_zero(self, parts):
        """``self.diff_parts(parts).constant_coeff()``, read off without
        differentiating: the coefficient of t_{parts} times the factorials
        of the multiplicities of the parts."""
        sigma = 1
        for p in set(parts):
            sigma *= factorial(parts.count(p))
        return self.coeff(parts) * sigma

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
        W, Z, D = self.weight_cap, self.z_cap, self.degree_cap
        # Both operands are sorted by the degree that the outer cap bounds
        # (total degree under a total-degree cap, else t-weight), so the
        # first partner over that cap ends the inner loop; a partner over
        # the weight cap alone is skipped.
        limit = W if D is None else D
        terms1, terms2 = self.terms, other.terms
        kernel = _series_kernel(terms1, terms2)
        if kernel is not None:
            den1, terms1 = _encoded(kernel, terms1)
            den2, terms2 = _encoded(kernel, terms2)
        items1 = _graded_items(terms1, D is not None)
        items2 = _graded_items(terms2, D is not None)
        out: dict = {}
        for s1, w1, t1, z1, c1 in items1:
            budget = limit - s1
            w_budget = W - w1
            for s2, w2, t2, z2, c2 in items2:
                if s2 > budget:
                    break
                if w2 > w_budget:
                    continue
                if z1 and z2:
                    n = max(len(z1), len(z2))
                    za = z1 + (0,) * (n - len(z1))
                    zb = z2 + (0,) * (n - len(z2))
                    zk = tuple(a + b for a, b in zip(za, zb))
                    if any(d > Z for d in zk):
                        continue
                    zk = _trim(zk)
                else:
                    zk = z1 or z2
                n = max(len(t1), len(t2))
                ta = t1 + (0,) * (n - len(t1))
                tb = t2 + (0,) * (n - len(t2))
                key = (tuple(a + b for a, b in zip(ta, tb)), zk)
                if kernel is not None:
                    kernel.add_product(out, key, c1, c2)
                    continue
                p = c1 * c2
                if key in out:
                    out[key] = out[key] + p
                else:
                    out[key] = p
        if kernel is not None:
            den = den1 * den2
            out = {k: kernel.decode(den, acc) for k, acc in out.items()}
        clean = {k: c for k, c in out.items() if not _droppable(c)}
        return self._like(clean, _clean=True)

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
        out = {}
        i = k - 1
        for (texp, zexp), c in self.terms.items():
            if i >= len(texp) or texp[i] == 0:
                continue
            a = texp[i]
            nt = list(texp)
            nt[i] = a - 1
            out[(_trim(nt), zexp)] = a * c
        return self._like(out, _clean=True)

    def diff_parts(self, parts) -> "TPoly":
        out = self
        for p in parts:
            out = out.diff_t(p)
        return out

    def times_over_hbar(self) -> "TPoly":
        """Substitute t_k -> t_k / hbar (coefficient picks up hbar^-deg)."""
        out = {}
        for (texp, zexp), c in self.terms.items():
            n = sum(texp)
            out[(texp, zexp)] = c * self.ctx.hbar_pow(-n) if n else c
        return self._like(out, _clean=True)

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

    def _degree_bound(self) -> int:
        """Largest total degree a stored monomial can have.

        The exp and log series stop once the powers of their argument are
        empty, which takes at most this many steps plus one.  An argument
        whose constant monomial is a zero x-series kept for its valid order
        never empties them: from there on each power is zero and carries
        only valid orders that an earlier power already brought in."""
        bound = self.weight_cap + self.nslots * self.z_cap
        return bound if self.degree_cap is None else min(bound, self.degree_cap)

    def exp(self) -> "TPoly":
        """Graded exponential; requires no constant monomial."""
        if ((), ()) in self.terms and not _coeff_is_zero(self.terms[((), ())]):
            raise ValueError("exp needs zero constant monomial")
        acc = self._constant_like(Rational(1))
        term = acc
        for n in range(1, self._degree_bound() + 2):
            term = (term * self).scale(Rational(1, n))
            if not term.terms:
                break
            acc = acc + term
        return acc

    def log_unit(self) -> "TPoly":
        """Graded logarithm; the constant coefficient must be invertible."""
        c0 = self.constant_coeff()
        if isinstance(c0, XSeries):
            c0_inv = c0.inverse()
            log_c0 = c0.log()
        else:
            c0_inv = scalar_inv(c0)
            log_c0 = None
        rest = self.scale(c0_inv) - 1
        acc = self._like({}, _clean=True)
        term = self._constant_like(Rational(1))
        for n in range(1, self._degree_bound() + 2):
            term = term * rest
            if not term.terms:
                break
            acc = acc + term.scale(Rational((-1) ** (n + 1), n))
        if isinstance(c0, XSeries):
            acc = acc + self._constant_like(log_c0)
        elif not scalar_is_zero(c0 - 1):
            raise ValueError("scalar constant coefficient must be 1 for log")
        return acc

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        return render_terms(
            (_coeff_text(self.terms[key]), _monomial_text(key))
            for key in sorted(self.terms, key=lambda k: (degree_of(k), k)))

    def __repr__(self):
        return f"TPoly({self.render()})"
