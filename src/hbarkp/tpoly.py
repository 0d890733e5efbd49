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
(``_product_pairs``): monomials packed into ints (``_Packing``) that carry
their weight and total degree, both operands sorted by the degree that
the outer cap bounds, so the cap ends the inner loop and a capped product
costs only what it keeps.

``TPoly`` is the reference ring, keyed by (texp, zexp) tuples: its product
multiplies the coefficients pair by pair, whatever they are.  ``resident``
writes a polynomial whose coefficients are x-series on the integer codes
of ``xseries.int_kernel``, one denominator for the whole polynomial, and
whose monomials are the ints of its shape's packing; its private
``_Resident`` form keeps every result on those codes and ints until
``decode`` reduces each coefficient to canonical rationals once and reads
each key back as a tuple.  Products, zeta shifts, derivatives, sums,
relabellings and the Miwa shift all read and write ints; tuples come back
only in ``decode`` and ``coefficient``.  The two meet only there: a
resident polynomial takes no ``TPoly`` operand.  The exponential, the
logarithm and the Miwa shift have only the resident form, and the
residual checks keep their whole computation resident;
``linear_combination`` sums scaled codes with the residents' sum
(``_accumulate``).
"""

from __future__ import annotations

from functools import cache
from math import factorial, lcm
from operator import itemgetter, neg

from .errors import HbarkpError
from .hscalar import HContext, HPoly, check_power, scalar_is_zero, scalar_inv
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


def linear_combination(pairs, ctx: HContext, weight_cap: int) -> "TPoly":
    """The sum over ``pairs`` (rows, coeff) of the basis polynomial of
    ``rows`` scaled by ``coeff``, as ``TPoly.zero(ctx, weight_cap)`` plus
    each term in turn would give it.

    A basis is given by integer rows (key, num, den, j), num != 0, one per
    monomial ``key`` of the shape, each the scalar num/den hbar^j (j None:
    the rational num/den; in formal hbar an HPoly iff j is not None), as
    ``symfun.schur_rows`` and ``symfun.t_hbar_rows`` hold them.  Each
    ``coeff`` is an XSeries of ``ctx``, all with one x cap; a pair that
    breaks this raises before anything is encoded.  The series are written
    once over one common denominator, and the rows once through
    ``encode_powers`` over another (``xseries.int_kernel``).  Pair by
    pair, the rows are formed (``check_rows``), and the code times each
    row's scalar (``scale_each``) goes into one accumulator as the TPoly sum
    adds it (``_accumulate``); each monomial is reduced once.  The result
    is the term-by-term sum of the scalars' polynomials: values, valid
    orders, coefficient types, kept monomials in their order, and the
    first error in the order of the pairs, of their rows and of the
    x-powers.
    """
    pairs = list(pairs)
    if not pairs:
        return TPoly.zero(ctx, weight_cap)
    cap = pairs[0][1].cap
    if any(coeff.cap != cap or coeff.ctx != ctx for _, coeff in pairs):
        raise ValueError("mixed hbar contexts or x caps")
    kernel = int_kernel(ctx, cap)
    den_c, codes = kernel.codes(coeff for _, coeff in pairs)
    den_b, scalars = kernel.encode_powers(
        row[1:] for rows, _ in pairs for row in rows)
    scale_each, is_zero = kernel.scale_each, kernel.is_zero
    out: dict = {}
    at = 0
    for (rows, coeff), code in zip(pairs, codes):
        kernel.check_rows(rows)
        n = at + len(rows)
        # A zero series of full valid order gives terms that TPoly.scale
        # drops (a TPoly stores no zero scalar), and so does a scalar that
        # is zero (a positive power of hbar = 0).
        kept = [(row[0], s) for row, s in zip(rows, scalars[at:n]) if s != 0]
        if kept and (coeff.valid != cap or not is_zero(code)):
            keys, factors = zip(*kept)
            _accumulate(kernel, out, zip(keys, scale_each(code, factors)))
        at = n
    series, den = kernel.series, den_c * den_b
    return TPoly(ctx, weight_cap,
                 terms={key: series(den, c) for key, c in out.items()},
                 _clean=True)


def _accumulate(kernel, out: dict, items) -> None:
    """Add each (key, code) of ``items`` into ``out`` in turn, as the TPoly
    sum does: a sum that cancels to a code TPoly drops is deleted, and a
    later code starts that monomial afresh, at the end."""
    add, is_zero, cap = kernel.add, kernel.is_zero, kernel.cap
    for key, c in items:
        old = out.get(key)
        if old is None:
            out[key] = c
        else:
            s = add(old, c)
            if s[0] == cap and is_zero(s):
                del out[key]
            else:
                out[key] = s


class TPoly:
    # ``_ladders`` is unset until ``verify`` keeps the poly's Miwa shifts
    # there on first use, {z cap: shift ladder}
    __slots__ = ("ctx", "weight_cap", "z_cap", "nslots", "degree_cap", "terms",
                 "_ladders")

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
        if isinstance(other, (int, Rational)):
            other = Rational(other)
        return self.__add__(-other)

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self.scale(other)
        if isinstance(other, XSeries):
            return self.scale(other)
        if not isinstance(other, TPoly):
            return NotImplemented
        self._same_shape(other)
        pack = _packing(self.weight_cap, self.z_cap, self.nslots)
        ints = [{pack.pack(k): c for k, c in poly.terms.items()}
                for poly in (self, other)]
        out: dict = {}
        for p, c1, c2 in _product_pairs(self, *ints):
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
            out[(_trim(nt), zexp)] = c * a
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
# A ``_Resident`` is a polynomial whose coefficients stay integer codes
# (valid, mask, nums) of ``xseries.int_kernel``, the one code of an
# x-series, over one denominator for the whole polynomial, keyed by the
# ints of its ``_Packing``, so a chain of sums, scalings, products, zeta
# shifts and Miwa shifts reduces nothing and decodes no key until
# ``decode``.  Each operation is tested against the ``TPoly``
# reference (``tests/test_resident.py``): it meets the monomials, pairs
# and x-powers in the reference's order, so the decoded result has the
# same values, valid orders, coefficient types and kept monomials, and
# the first ``HbarWindowError`` is the same one.  ``times_zeta`` is the
# product with a polynomial in the zetas alone, with int coefficients:
# the checks' prefactors.  ``TPoly.exp``, ``TPoly.log_unit`` and
# ``hcalc.miwa_shift`` run on ``exp``, ``log_unit`` and ``substitute``
# (the Miwa shift's rows) here.  ``signed_relabellings``
# sums copies of one polynomial with their slots renamed, as the residuals
# of the checks that are symmetric in the slots need, and ``with_slots``
# re-embeds a polynomial in more slots, as the checks read their shared
# Miwa shifts.
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
    pack = _packing(poly.weight_cap, poly.z_cap, poly.nslots)
    return _Resident(poly, pack, kernel, scalar, den,
                     dict(zip(map(pack.pack, poly.terms), codes)))


class _Packing:
    """Monomial keys of one shape as ints, so that adding two ints
    multiplies their monomials: t_1..t_W, then the slots, then the weight,
    each a field of ``width`` bits, and the total degree above them all.
    The top bit of a slot field and of the weight field is a guard: with
    ``offset`` added, a sum of two in-cap keys sets a guard bit iff a slot
    exceeds the z cap or the weight the weight cap, and no field of such a
    sum carries into the next.  So the weight and the total degree of an
    int are read off it, and a pair within the caps is one addition and
    one test.  ``pack`` writes a key (texp, zexp) as its int and ``key``
    reads the key back."""

    def __init__(self, W: int, Z: int, nslots: int):
        f = self.width = max(W, Z, 1).bit_length() + 1
        self.W, self.Z, self.nslots = W, Z, nslots
        self.mask = (1 << f) - 1
        self.zshift = f * W
        self.zmask = ((1 << (f * nslots)) - 1) << self.zshift
        self.wshift = f * (W + nslots)
        self.dshift = self.wshift + f
        fields = [(self.zshift + f * s, Z) for s in range(nslots)]
        fields.append((self.wshift, W))
        self.guard = sum(1 << (at + f - 1) for at, _ in fields)
        self.offset = sum(((1 << (f - 1)) - 1 - cap) << at for at, cap in fields)
        self.renamings: dict = {}

    def pack(self, key) -> int:
        """The int of a key within the caps."""
        texp, zexp = key
        f, p, w = self.width, 0, 0
        for i, a in enumerate(texp):
            p |= a << (f * i)
            w += (i + 1) * a
        at = self.zshift
        for s, d in enumerate(zexp):
            p |= d << (at + f * s)
        return p | (w << self.wshift) | ((w + sum(zexp)) << self.dshift)

    def key(self, p: int):
        """The key (texp, zexp) of an int."""
        f, mask, at = self.width, self.mask, self.zshift
        return (_trim([(p >> (f * i)) & mask for i in range(self.W)]),
                _trim([(p >> (at + f * s)) & mask for s in range(self.nslots)]))

    def items(self, terms: dict, by_degree: bool) -> list:
        """(sort degree, int, coeff) rows, stably sorted by the total degree
        if ``by_degree``, else by the weight."""
        if by_degree:
            at = self.dshift
            items = [(p >> at, p, c) for p, c in terms.items()]
        else:
            at, mask = self.wshift, self.mask
            items = [((p >> at) & mask, p, c) for p, c in terms.items()]
        items.sort(key=itemgetter(0))
        return items

    def pairs(self, items1, items2, limit: int):
        """(int, c1, c2) for the pairs of rows within the caps, in order.
        The first partner whose sort degree passes ``limit`` ends the inner
        loop; a pair over the weight or the z cap alone is skipped."""
        offset, guard = self.offset, self.guard
        for s1, p1, c1 in items1:
            budget = limit - s1
            for s2, p2, c2 in items2:
                if s2 > budget:
                    break
                p = p1 + p2
                if (p + offset) & guard:
                    continue
                yield p, c1, c2

    def renaming(self, perm) -> "_Renaming":
        """The slot fields of an int renamed by ``perm`` (slot s to
        perm[s]), kept per slot part."""
        out = self.renamings.get(perm)
        if out is None:
            out = self.renamings[perm] = _Renaming(self, perm)
        return out


class _Renaming(dict):
    """Slot part of an int -> that part with slot s moved to perm[s]."""

    def __init__(self, pack: _Packing, perm):
        super().__init__()
        f, at = pack.width, pack.zshift
        self.mask = pack.mask
        self.moves = [(at + f * s, at + f * t) for s, t in enumerate(perm)]

    def __missing__(self, z: int) -> int:
        mask, out = self.mask, 0
        for source, target in self.moves:
            out |= ((z >> source) & mask) << target
        self[z] = out
        return out


@cache
def _packing(W: int, Z: int, nslots: int) -> _Packing:
    return _Packing(W, Z, nslots)


def _product_pairs(shape, terms1: dict, terms2: dict):
    """The ``_Packing.pairs`` of ``terms1`` by ``terms2``, both keyed by the
    ints of the packing of ``shape``'s caps, sorted by the degree that the
    outer cap bounds (total degree under a total-degree cap)."""
    W, D = shape.weight_cap, shape.degree_cap
    pack = _packing(W, shape.z_cap, shape.nslots)
    by_degree = D is not None
    return pack.pairs(pack.items(terms1, by_degree),
                      pack.items(terms2, by_degree), W if D is None else D)


class _Resident:
    """A TPoly on integer codes, keyed by the ints of ``pack``; see the
    block comment above."""

    __slots__ = ("ctx", "weight_cap", "z_cap", "nslots", "degree_cap",
                 "pack", "kernel", "scalar", "den", "terms", "__weakref__")

    def __init__(self, shape, pack: _Packing, kernel, scalar: bool, den: int,
                 terms: dict):
        self.ctx = shape.ctx
        self.weight_cap = shape.weight_cap
        self.z_cap = shape.z_cap
        self.nslots = shape.nslots
        self.degree_cap = shape.degree_cap
        self.pack = pack
        self.kernel = kernel
        self.scalar = scalar
        self.den = den
        self.terms = terms

    def _like(self, terms: dict, den: int) -> "_Resident":
        return _Resident(self, self.pack, self.kernel, self.scalar, den, terms)

    def _clean(self, terms: dict, den: int) -> "_Resident":
        """The polynomial of ``terms`` over ``den`` without the codes TPoly
        drops (zero series of full valid order, or zero scalars), and with
        the common factor of the numerators and ``den`` divided out."""
        kernel = self.kernel
        cap, is_zero = kernel.cap, kernel.is_zero
        terms = {p: c for p, c in terms.items() if c[0] != cap or not is_zero(c)}
        g = kernel.content(terms.values(), den)
        if g > 1:
            divide = kernel.divide
            terms = {p: divide(c, g) for p, c in terms.items()}
            den //= g
        return self._like(terms, den)

    def _joined(self, other: "_Resident"):
        """Refuse a pair of another shape or on another kernel, also where
        one of them is empty."""
        TPoly._same_shape(self, other)
        if (self.scalar, self.kernel.cap) != (other.scalar, other.kernel.cap):
            raise ValueError("mixed x caps, or scalar and x-series coefficients")

    def _scalar_code(self, s):
        """(den, code) of one scalar."""
        den, (code,) = self.kernel.encode_scalars((s,))
        return den, code

    def _constant_like(self, value) -> "_Resident":
        den, s = self._scalar_code(value)
        return self._like({0: self.kernel.constant(s)}, den)

    def _reduced(self, code):
        """One code reduced, as ``decode`` gives its coefficient."""
        c = self.kernel.series(self.den, code)
        return c.coeffs[0] if self.scalar else c

    def coefficient(self, key):
        """The coefficient of the monomial ``key`` (texp, zexp), reduced."""
        return self._reduced(self.terms[self.pack.pack(key)])

    def decode(self) -> TPoly:
        """The TPoly this stands for, each coefficient reduced once."""
        key, reduced = self.pack.key, self._reduced
        terms = {key(p): reduced(c) for p, c in self.terms.items()}
        return TPoly(self.ctx, self.weight_cap, self.z_cap, self.nslots, terms,
                     _clean=True, degree_cap=self.degree_cap)

    def with_slots(self, nslots: int, degree_cap: int | None) -> "_Resident":
        """Re-embed in ``nslots`` slots under the total-degree cap
        ``degree_cap``, dropping the monomials above it; every slot from
        ``nslots`` on must be zero.  An int keeps its t and slot fields,
        and its weight and degree fields move to the new packing's.  Where
        the ints stay as they are, the terms are shared, not copied."""
        pack = _packing(self.weight_cap, self.z_cap, nslots)
        at, to, dshift = self.pack.wshift, pack.wshift, self.pack.dshift
        terms = self.terms
        # the degree is the top field, so the largest int has the largest
        if at != to or (degree_cap is not None
                        and max(terms, default=0) >> dshift > degree_cap):
            low = (1 << at) - 1
            terms = {(p & low) | (p >> at << to): c for p, c in terms.items()
                     if degree_cap is None or p >> dshift <= degree_cap}
        out = _Resident(self, pack, self.kernel, self.scalar, self.den, terms)
        out.nslots, out.degree_cap = nslots, degree_cap
        return out

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
        self._joined(other)
        rescale = self.kernel.rescale
        den = self.den if self.den == other.den else lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        out = (dict(self.terms) if fa == 1 else
               {p: rescale(c, fa) for p, c in self.terms.items()})
        _accumulate(self.kernel, out, other.terms.items() if fb == 1 else
                    ((p, rescale(c, fb)) for p, c in other.terms.items()))
        return self._like(out, den)

    __radd__ = __add__

    def __neg__(self):
        rescale = self.kernel.rescale
        return self._like({p: rescale(c, -1) for p, c in self.terms.items()},
                          self.den)

    def __sub__(self, other):
        return self.__add__(-other)

    # -- products -----------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self.scale(other)
        if not isinstance(other, _Resident):
            return NotImplemented
        self._joined(other)
        kernel = self.kernel
        ops1, ops2 = kernel.operands(self.terms.values(), other.terms.values())
        pairs = _product_pairs(self, dict(zip(self.terms, ops1)),
                               dict(zip(other.terms, ops2)))
        out: dict = {}
        accumulate = kernel.accumulate
        for p, a, b in pairs:
            accumulate(out, p, a, b)
        finish = kernel.finish
        return self._clean({p: finish(acc) for p, acc in out.items()},
                           self.den * other.den)

    __rmul__ = __mul__

    def times_zeta(self, prefactor: dict) -> "_Resident":
        """The product with the zeta polynomial sum_e c_e zeta^e given as
        ``prefactor`` {e: nonzero int c_e}: each term shifts the keys by e
        and multiplies the codes by c_e, over the pairs of a product
        (``_product_pairs``, the prefactor on the left), which go into one
        accumulator.  A term with an exponent past the z cap is left out
        and never packed."""
        z_cap, pack = self.z_cap, self.pack
        theirs = {pack.pack(((), e)): c for e, c in prefactor.items()
                  if all(d <= z_cap for d in e)}
        rescale, add = self.kernel.rescale, self.kernel.add
        out: dict = {}
        for p, c, code in _product_pairs(self, theirs, self.terms):
            if c != 1:
                code = rescale(code, c)
            out[p] = add(out[p], code) if p in out else code
        return self._clean(out, self.den)

    def scale(self, s) -> "_Resident":
        """``TPoly.scale`` by a scalar."""
        if scalar_is_zero(s):
            return self._like({}, self.den)
        den, code = self._scalar_code(s)
        scale = self.kernel.scale
        return self._like({p: scale(c, code) for p, c in self.terms.items()},
                          self.den * den)

    def _renamed_keys(self, perm) -> list:
        """The ints in order, slot s of each renamed to perm[s]: its slot
        part replaced (``_Packing.renaming``)."""
        zmask, renamed = self.pack.zmask, self.pack.renaming(perm)
        return [p - z + renamed[z] for p in self.terms for z in (p & zmask,)]

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
            _accumulate(self.kernel, out, zip(self._renamed_keys(perm),
                                              negated if odd
                                              else self.terms.values()))
        return self._like(out, self.den)

    # -- calculus and substitutions ------------------------------------------

    def diff_t(self, k: int) -> "_Resident":
        """Partial derivative with respect to t_k: the t_k field of each
        int lowered by one, its weight and total degree by k."""
        pack = self.pack
        if k > pack.W:
            return self._like({}, self.den)
        at, mask = pack.width * (k - 1), pack.mask
        step = (1 << at) + (k << pack.wshift) + (k << pack.dshift)
        rescale = self.kernel.rescale
        return self._like({p - step: rescale(c, a)
                           for p, c in self.terms.items()
                           for a in ((p >> at) & mask,) if a}, self.den)

    def diff_x(self) -> "_Resident":
        """The x-derivative of every coefficient (``XSeries.diff``)."""
        if self.scalar and self.terms:
            raise TypeError("scalar coefficients have no x-derivative")
        diff = self.kernel.diff
        return self._like({p: diff(c) for p, c in self.terms.items()}, self.den)

    def substitute(self, expand) -> "_Resident":
        """Each monomial replaced by a sum of monomials: ``expand(p)`` of
        the int p is (rows, top), a row (int, num, den, j) standing for
        num/den hbar^j (no factor at all when j is None), each hbar^j formed
        one factor at a time and ``top`` the largest j.  Before the
        monomial's rows are formed, a ``top`` past a formal window raises
        (``hscalar.check_power``).  Rows on one int are summed in order;
        zero series of full valid order are dropped at the end."""
        ctx, kernel = self.ctx, self.kernel
        rows = [(c, expand(p)) for p, c in self.terms.items()]
        den, factors = kernel.encode_powers(
            row[1:] for _, (outs, _) in rows for row in outs)
        scale_each, add = kernel.scale_each, kernel.add
        out: dict = {}
        at = 0
        for c, (outs, top) in rows:
            check_power(ctx, top)
            n = at + len(outs)
            for (p, *_), q in zip(outs, scale_each(c, factors[at:n])):
                out[p] = add(out[p], q) if p in out else q
            at = n
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
        power = self._like(
            {p: c for _, p, c in
             self.pack.items(self.terms, self.degree_cap is not None)},
            self.den)
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
        c0 = self.terms.get(0)
        if c0 is not None and not self.kernel.is_zero(c0):
            raise ValueError("exp needs zero constant monomial")
        return self._power_series(self._constant_like(Rational(1)),
                                  lambda n: Rational(1, factorial(n)))

    def log_unit(self) -> "_Resident":
        """The graded logarithm log c0 + log(1 + rest), rest = self / c0 - 1,
        for an invertible constant coefficient c0.  A scalar c0 must be 1;
        that is checked last, after the series of rest."""
        kernel = self.kernel
        code = self.terms.get(0)
        c0 = self.ctx.zero() if code is None else self._reduced(code)
        if isinstance(c0, XSeries):
            den, (inv,) = kernel.codes((c0.inverse(),))
            log_c0 = c0.log()
            rest = self._clean({p: kernel.product(c, inv)
                                for p, c in self.terms.items()}, self.den * den)
        else:
            rest = self.scale(scalar_inv(c0))
        acc = (rest - 1)._power_series(self._like({}, 1),
                                       lambda n: Rational((-1) ** (n + 1), n))
        if isinstance(c0, XSeries):
            den, (code,) = kernel.codes((log_c0,))
            acc = acc + self._clean({0: code}, den)
        elif not scalar_is_zero(c0 - 1):
            raise ValueError("scalar constant coefficient must be 1 for log")
        return acc
