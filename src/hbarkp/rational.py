"""Exact rational numbers.

Everything in this package is computed over Q (or Laurent polynomials in
hbar over Q); no floats ever.  gmpy2's mpq is used when available because
it is several times faster than fractions.Fraction; both types keep values
in canonical reduced form with positive denominator.
"""

from __future__ import annotations

try:
    from gmpy2 import mpq as Rational
except ImportError:  # gmpy2 is the optional "fast" extra
    from fractions import Fraction as Rational


def parse_rational(text: str):
    """Parse "p/q" or "p" into a rational."""
    return Rational(text.strip())


def format_rational(r) -> str:
    """Render as "p/q", or "p" when the denominator is 1."""
    return str(r)


ZERO = Rational(0)
ONE = Rational(1)
