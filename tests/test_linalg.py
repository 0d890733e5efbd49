"""The determinant: agreement with the permutation expansion, structural
zeros, XSeries valid orders, the number of ring products, and minors
shared across a family of matrices."""

from itertools import permutations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbarkp.linalg import det
from hbarkp.rational import Rational
from hbarkp.sampling import random_rational, random_xseries
from hbarkp.xseries import XSeries


def reference_det(rows):
    """Signed sum over all permutations, with sign from the inversion count."""
    n = len(rows)
    total = Rational(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        prod = Rational(-1) if inversions % 2 else Rational(1)
        for i in range(n):
            prod = prod * rows[i][perm[i]]
        total = total + prod
    return total


def random_matrix(rng, n, hole_share):
    return [[0 if rng.random() < hole_share else random_rational(rng)
             for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("n", range(7))
@pytest.mark.parametrize("hole_share", [0.0, 0.3, 0.6])
def test_det_matches_permutation_expansion(n, hole_share):
    rng = Random(1000 * n + int(10 * hole_share))
    for _ in range(4):
        rows = random_matrix(rng, n, hole_share)
        assert det(rows) == reference_det(rows)


def test_det_edge_cases():
    assert det([]) == 1
    assert det([[0]]) == 0
    assert det([[0, 0], [0, 0]]) == 0
    assert det([[Rational(2, 3)]]) == Rational(2, 3)
    # a zero pattern that kills every term: row 0 only meets column 0,
    # and so does row 1
    assert det([[1, 0, 0], [2, 0, 0], [3, 4, 5]]) == 0
    with pytest.raises(ValueError):
        det([[1, 2]])
    with pytest.raises(ValueError):
        det([[1, 2], [3]])


def test_det_xseries_valid_is_min_over_entries(num_ctx):
    rng = Random(5)
    cap = 5
    valids = [[5, 4, 3, 5], [2, 5, 4, 5], [5, 5, 5, 3], [4, 3, 5, 5]]
    rows = [[random_xseries(rng, num_ctx, cap, nonzero_const=True)
             for _ in range(4)] for _ in range(4)]
    rows = [[XSeries(num_ctx, cap, s.coeffs, valid=v) for s, v in zip(row, vrow)]
            for row, vrow in zip(rows, valids)]
    assert det(rows).valid == 2
    # a ring zero is not a structural zero: its valid order still bounds
    rows[3][2] = XSeries(num_ctx, cap, (), valid=1)
    d = det(rows)
    assert d.valid == 1
    # the constant term is the determinant of the constant terms
    assert d.coeff(0) == reference_det([[s.coeff(0) for s in row] for row in rows])


class Counted:
    """A rational that counts the products it takes part in."""

    products = 0

    def __init__(self, value):
        self.value = value

    def __mul__(self, other):
        Counted.products += 1
        return Counted(self.value * other.value)

    def __add__(self, other):
        return Counted(self.value + other.value)

    def __neg__(self):
        return Counted(-self.value)


def test_det_has_no_factorial_step():
    rng = Random(8)
    n = 8
    plain = [[random_rational(rng, nonzero=True) for _ in range(n)] for _ in range(n)]
    Counted.products = 0
    d = det([[Counted(e) for e in row] for row in plain])
    assert Counted.products <= n * 2 ** (n - 1)  # the expansion takes 7 * 8! = 282240
    assert d.value == det(plain)


# A family of labelled rows: row ``a`` of every matrix below is FAMILY[a]
# cut to the matrix's size, with int 0 holes (structural zeros) and
# Rational(0) entries (ring zeros) among the rationals.
entries = st.integers(-4, 5).map(lambda v: 0 if v == 5 else Rational(v))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(family=st.lists(st.lists(entries, min_size=5, max_size=5),
                       min_size=1, max_size=4),
       data=st.data())
def test_det_with_a_shared_memo_equals_det_alone(family, data):
    labels = st.integers(0, len(family) - 1)
    memo: dict = {}
    for _ in range(data.draw(st.integers(1, 6))):
        n = data.draw(st.integers(0, 5))
        keys = data.draw(st.lists(labels, min_size=n, max_size=n))
        rows = [family[a][:n] for a in keys]
        got = det(rows, keys, memo)
        want = det(rows)
        assert got == want == reference_det(rows)
        assert type(got) is type(want)


def test_det_memo_needs_row_keys():
    with pytest.raises(ValueError):
        det([[1]], memo={})
    with pytest.raises(ValueError):
        det([[1]], row_keys=["a"])
    with pytest.raises(ValueError):
        det([[1]], row_keys=["a", "b"], memo={})
