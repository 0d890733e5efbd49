"""Exact determinants and minors of small matrices.

``det`` works over any commutative ring whose elements support ``+``,
unary ``-`` and ``*`` (rationals, hbar-Laurent scalars, XSeries and
their integer codes ``xseries.Coded``, TPoly, differential operators...).
It never divides, so it is exact in every such ring, and it never
enumerates permutations: a Laplace expansion
along the rows shares each minor of the lower rows between all the
expansions that reach it, which costs at most n * 2^(n-1) ring products
for an n x n matrix instead of (n-1) * n!.  Determinants of many matrices
whose rows come from one labelled family can share those minors across
the matrices as well (``det``'s ``row_keys`` and ``memo``).
"""

from __future__ import annotations

from .rational import Rational


def _is_structural_zero(entry) -> bool:
    return isinstance(entry, int) and entry == 0


def det(rows, row_keys=None, memo=None):
    """Determinant by memoized Laplace expansion; 0x0 gives 1.

    Entries that are the int ``0`` are structural zeros: every term through
    them is skipped, and a determinant with no other term is ``Rational(0)``.
    Ring-valued zeros are multiplied like any other entry, so that for
    XSeries each one still bounds the result's valid order.

    Without ``memo`` the minors of the lower rows are kept for this call
    only.  Callers that take many determinants from one family of rows
    (the diagrams of one ``c_lambda`` table) pass ``row_keys``, a hashable
    label per row, and one ``memo`` dict for the whole family.  A label
    must fix its row: two rows with the same label have the same entry in
    every column, in every matrix of the family.  A minor of the lower
    rows is then kept under (labels of those rows, column tuple) and
    reused by every determinant that reaches it, the top-row minors of
    each matrix included.
    """
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise ValueError("matrix is not square")
    if n == 0:
        return Rational(1)
    # Minors of the lower rows, keyed by their (sorted) column tuple, or
    # by (row labels, column tuple) in a shared memo.  In a memo of its
    # own, the minors of the top row are used once each and are not kept.
    shared = memo is not None
    if shared != (row_keys is not None):
        raise ValueError("row_keys and memo go together")
    if shared:
        row_keys = tuple(row_keys)
        if len(row_keys) != n:
            raise ValueError("need one row key per row")
    else:
        memo = {}

    def expand(cols):
        """Minor on the last len(cols) rows and the columns ``cols``, or
        None when every one of its terms has a structural zero."""
        row = rows[n - len(cols)]
        if len(cols) == 1:
            entry = row[cols[0]]
            return None if _is_structural_zero(entry) else entry
        total = None
        labels = row_keys[n - len(cols) + 1:] if shared else None
        for pos, col in enumerate(cols):
            entry = row[col]
            if _is_structural_zero(entry):
                continue
            rest = cols[:pos] + cols[pos + 1:]
            key = rest if labels is None else (labels, rest)
            if key in memo:
                sub = memo[key]
            else:
                sub = expand(rest)
                if shared or len(cols) < n:
                    memo[key] = sub
            if sub is None:
                continue
            term = entry * sub
            if pos % 2:
                term = -term
            total = term if total is None else total + term
        return total

    d = expand(tuple(range(n)))
    # ``expand`` refers to itself through its closure: unbinding it breaks
    # that cycle, so the rows and the local minors are freed now rather
    # than left for the cycle collector.
    del expand
    return Rational(0) if d is None else d


def minor(rows, drop_rows, drop_cols):
    """Submatrix with the given (0-based) rows and columns removed."""
    dr = set(drop_rows)
    dc = set(drop_cols)
    return [
        [e for j, e in enumerate(row) if j not in dc]
        for i, row in enumerate(rows)
        if i not in dr
    ]

