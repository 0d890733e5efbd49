"""Universal combinatorial constants of the hierarchy.

* ``p_tilde(i, j, s)`` counts pairs of compositions (i_1..i_m), (j_1..j_m)
  of i and j with s_k = i_k + j_k - 1; it vanishes unless
  sum(s) = i + j - m.
* ``p_const`` attaches the sign/weight factor
  (-1)^{m+1} i j / (m s_1 ... s_m).
* ``k_count`` counts ordered set partitions (a multinomial).
* ``p_hbar`` extracts the coefficient of a derivative monomial from an
  L-operator word; the two-row base case must agree with ``p_const`` and
  vanish whenever any derivative order exceeds 1.
"""

from __future__ import annotations

from functools import cache
from math import factorial

from .hscalar import HContext
from .partitions import Partition, compositions
from .rational import Rational


@cache
def p_tilde(i: int, j: int, s: tuple) -> int:
    """Number of pairs of positive compositions of (i, j) fitting s."""
    m = len(s)
    if i < 1 or j < 1 or m < 1 or any(v < 1 for v in s):
        return 0
    if sum(s) != i + j - m:
        return 0
    # choose i_k in [1, s_k]; then j_k = s_k + 1 - i_k >= 1 automatically
    counts = {0: 1}
    for bound in s:
        nxt: dict = {}
        for tot, ways in counts.items():
            for pick in range(1, bound + 1):
                t = tot + pick
                if t > i:
                    continue
                nxt[t] = nxt.get(t, 0) + ways
        counts = nxt
    return counts.get(i, 0)


@cache
def p_const(i: int, j: int, s: tuple):
    """The rational constant (-1)^{m+1} i j / (m s_1...s_m) * p_tilde.

    Symmetric in (i, j)."""
    m = len(s)
    tilde = p_tilde(i, j, s)
    if tilde == 0:
        return Rational(0)
    denom = m
    for v in s:
        denom *= v
    return Rational((-1) ** (m + 1) * i * j, denom) * tilde


def k_count(l: int, parts: tuple) -> int:
    """Ordered set partitions of l elements into groups of the given sizes."""
    if any(p < 0 for p in parts):
        raise ValueError("group sizes must be nonnegative")
    if sum(parts) != l:
        raise ValueError("group sizes must sum to l")
    out = factorial(l)
    for p in parts:
        out //= factorial(p)
    return out


def p_hbar(lam, s: tuple, l: tuple, ctx: HContext):
    """Coefficient of d^{l_1} f_{s_1} ... d^{l_m} f_{s_m} in the word
    L_{lam_1} ... L_{lam_{r-1}} (f_{lam_r}).

    Needs at least two rows and positive paired (source, order) entries.
    Monomials that cannot occur in the word (sum(s_i + l_i) != |lam|, or
    some order above ell(lam) - 1) simply have coefficient 0; in
    particular with two rows any order > 1 gives 0.
    """
    from .lops import l_word

    lam = Partition(lam)
    if lam.ell < 2:
        raise ValueError("needs at least two rows")
    if len(s) != len(l) or len(s) < 1:
        raise ValueError("paired (source, order) tuples required")
    if any(v < 1 for v in s) or any(v < 1 for v in l):
        raise ValueError("sources and orders must be >= 1")
    if sum(s) + sum(l) != lam.weight:
        return ctx.zero()
    word = l_word(tuple(lam[:-1]), lam[-1], ctx)
    return word.coefficient(tuple(zip(s, l)))


def p_table(bound: int):
    """All nonzero constants with i, j <= bound, keyed by (i, j, s)."""
    out = {}
    for i in range(1, bound + 1):
        for j in range(1, bound + 1):
            total = i + j
            for m in range(1, total // 2 + 1):
                for s in compositions(total - m, m):
                    c = p_const(i, j, s)
                    if c != 0:
                        out[(i, j, s)] = c
    return out
