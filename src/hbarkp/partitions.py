"""Young diagrams: representation, enumeration, statistics, orderings."""

from __future__ import annotations

from functools import cache
from math import factorial


class Partition(tuple):
    """A partition as a weakly decreasing tuple of positive integers."""

    def __new__(cls, parts=()):
        parts = tuple(int(p) for p in parts)
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts must be weakly decreasing: {parts}")
        if parts and parts[-1] <= 0:
            raise ValueError(f"parts must be positive: {parts}")
        return super().__new__(cls, parts)

    @property
    def ell(self) -> int:
        """Number of rows."""
        return len(self)

    @property
    def weight(self) -> int:
        """Number of boxes |lambda|."""
        return sum(self)

    def multiplicities(self) -> dict[int, int]:
        m: dict[int, int] = {}
        for p in self:
            m[p] = m.get(p, 0) + 1
        return m

    @property
    def sigma(self) -> int:
        """Product of factorials of the part multiplicities."""
        out = 1
        for c in self.multiplicities().values():
            out *= factorial(c)
        return out

    @property
    def rho(self) -> int:
        """Product of the parts (1 for the empty diagram)."""
        out = 1
        for p in self:
            out *= p
        return out

    @property
    def zee(self) -> int:
        """The symmetry factor z = sigma * rho."""
        return self.sigma * self.rho

    def serialize(self) -> str:
        return ",".join(str(p) for p in self)

    @staticmethod
    def parse(text: str) -> "Partition":
        text = text.strip()
        if not text:
            return Partition()
        return Partition(int(p) for p in text.split(","))

    def __repr__(self):
        return f"Partition({tuple(self)})"


EMPTY = Partition()


@cache
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse lexicographic order.

    (n) comes first and (1^n) last; the order is total and refines the
    dominance order, so triangular matrices indexed this way stay
    triangular.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return (EMPTY,)
    # first part p, then each partition of n - p with no part above p;
    # built valid, so the constructor's checks are skipped
    return tuple(tuple.__new__(Partition, (p,) + rest)
                 for p in range(n, 0, -1)
                 for rest in partitions_of(n - p) if not rest or rest[0] <= p)


def partitions_upto(w: int, min_weight: int = 0):
    """All partitions with min_weight <= |lambda| <= w, grouped by weight."""
    for n in range(min_weight, w + 1):
        yield from partitions_of(n)


def compositions(total: int, parts: int, least: int = 1):
    """Ordered tuples of ``parts`` integers >= ``least`` summing to
    ``total``, in lexicographic order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        if total >= least:
            yield (total,)
        return
    for first in range(least, total - least * (parts - 1) + 1):
        for rest in compositions(total - first, parts - 1, least):
            yield (first,) + rest


GREATER = "greater"
LESS = "less"
EQUAL = "equal"
INCOMPARABLE = "incomparable"


def dominance(lam: Partition, mu: Partition) -> str:
    """Natural (dominance) partial order on partitions of the same number.

    Returns "greater" when every prefix sum of lam is >= that of mu,
    "less" for the reverse, "equal", or "incomparable".
    """
    if sum(lam) != sum(mu):
        raise ValueError("dominance compares partitions of the same number")
    if tuple(lam) == tuple(mu):
        return EQUAL
    ge = le = True
    sl = sm = 0
    for i in range(max(len(lam), len(mu))):
        sl += lam[i] if i < len(lam) else 0
        sm += mu[i] if i < len(mu) else 0
        if sl < sm:
            ge = False
        if sl > sm:
            le = False
    if ge:
        return GREATER
    if le:
        return LESS
    return INCOMPARABLE


def dominates(lam: Partition, mu: Partition) -> bool:
    return dominance(lam, mu) in (GREATER, EQUAL)
