"""Exact computer algebra for the hbar-dependent KP hierarchy.

Builds formal tau-function and F-function solutions from initial data
over exact rationals, and verifies them against the Hirota bilinear /
differential Fay identities with zero-tolerance polynomial residuals.
"""

from .errors import HbarkpError
from .hscalar import HContext, HPoly, HbarValueError, HbarWindowError, default_window
from .partitions import Partition, dominance, partitions_of, partitions_upto
from .rational import Rational
from .tpoly import CapError, TPoly
from .xseries import OrderExhaustedError, XSeries

__all__ = [
    "HbarkpError",
    "HContext",
    "HPoly",
    "HbarValueError",
    "HbarWindowError",
    "default_window",
    "Partition",
    "dominance",
    "partitions_of",
    "partitions_upto",
    "Rational",
    "CapError",
    "TPoly",
    "OrderExhaustedError",
    "XSeries",
]
