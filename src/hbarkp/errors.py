"""The common base of the package's domain errors."""


class HbarkpError(Exception):
    """Bad input, caps or hbar arithmetic; the command line exits 2 on it.

    Each subclass also keeps its own standard base (``ValueError`` or
    ``ArithmeticError``), so ``except`` clauses written for those still
    match."""


class DataFormatError(HbarkpError, ValueError):
    """A document that does not hold what its command needs."""
