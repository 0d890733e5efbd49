"""Exact rational numbers.

Everything in this package is computed over Q (or Laurent polynomials in
hbar over Q); no floats ever.  gmpy2's mpq is used when available because
it is several times faster than fractions.Fraction; both types keep values
in canonical reduced form with positive denominator.
"""

from __future__ import annotations

from math import lcm

from .errors import HbarkpError

try:
    from gmpy2 import mpq as Rational
except ImportError:  # gmpy2 is the optional "fast" extra
    from fractions import Fraction as Rational


class ZeroDenominatorError(HbarkpError, ValueError):
    """Rational text with a zero denominator, such as "1/0"."""


def parse_rational(text: str):
    """Parse "p/q" or "p" into a rational.

    Anything but text, and text with a zero q, raises ``ValueError``, which
    the command line reports as malformed input."""
    if not isinstance(text, str):
        raise ValueError(f"a rational must be text such as \"p/q\": {text!r}")
    try:
        return Rational(text.strip())
    except ZeroDivisionError as exc:
        raise ZeroDenominatorError(f"zero denominator in {text!r}") from exc


def common_denominator(values, den=1):
    """The lcm of ``den`` and the denominators of the rationals ``values``.

    Only ``.denominator`` is read, so ints, ``Fraction`` and ``mpq`` all
    serve."""
    for r in values:
        d = r.denominator
        if den % d:
            den = lcm(den, d)
    return den


def format_rational(r) -> str:
    """Render as "p/q", or "p" when the denominator is 1."""
    return str(r)


ZERO = Rational(0)
