"""Diagram enumeration, statistics and orderings."""

import pytest

from hbarkp.partitions import (
    EQUAL,
    GREATER,
    INCOMPARABLE,
    LESS,
    Partition,
    dominance,
    dominates,
    partitions_of,
)


def brute_force_partitions(n):
    """Independent generator: filter all weakly decreasing positive tuples."""
    if n == 0:
        return {()}
    found = set()

    def rec(rem, prefix):
        if rem == 0:
            found.add(prefix)
            return
        start = prefix[-1] if prefix else rem
        for p in range(1, min(rem, start) + 1):
            rec(rem - p, prefix + (p,))

    rec(n, ())
    return found


def test_enumeration_order_small():
    assert [tuple(p) for p in partitions_of(3)] == [(3,), (2, 1), (1, 1, 1)]
    assert [tuple(p) for p in partitions_of(0)] == [()]
    assert [tuple(p) for p in partitions_of(4)] == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_enumeration_counts_match_brute_force():
    counts = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
    for n in range(13):
        ps = partitions_of(n)
        assert len(ps) == counts[n]
        assert set(map(tuple, ps)) == brute_force_partitions(n)
        assert len(set(ps)) == len(ps)


def test_reverse_lex_order_definition():
    # earlier diagram has the first positive difference
    for n in range(1, 9):
        ps = partitions_of(n)
        for i, lam in enumerate(ps):
            for mu in ps[i + 1:]:
                diffs = [
                    (lam[k] if k < len(lam) else 0) - (mu[k] if k < len(mu) else 0)
                    for k in range(max(len(lam), len(mu)))
                ]
                first = next(d for d in diffs if d != 0)
                assert first > 0


def test_stats_examples():
    s = Partition((2, 1))
    assert (s.sigma, s.rho, s.zee, s.ell) == (1, 2, 2, 2)
    s = Partition((1, 1))
    assert (s.sigma, s.rho, s.zee, s.ell) == (2, 1, 2, 2)
    s = Partition(())
    assert (s.sigma, s.rho, s.zee, s.ell, s.weight) == (1, 1, 1, 0, 0)
    s = Partition((3, 3, 2, 1, 1, 1))
    assert s.sigma == 2 * 1 * 6
    assert s.rho == 3 * 3 * 2
    assert s.weight == 11


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))


def test_dominance_examples():
    assert dominance(Partition((3,)), Partition((2, 1))) == GREATER
    assert dominance(Partition((2, 1)), Partition((2, 1))) == EQUAL
    assert dominance(Partition((2, 1)), Partition((3,))) == LESS
    # 3>=2, 4>=4, 5<6 -> incomparable
    assert dominance(Partition((3, 1, 1, 1)), Partition((2, 2, 2))) == INCOMPARABLE
    with pytest.raises(ValueError):
        dominance(Partition((2,)), Partition((3,)))


def test_dominance_partial_order_axioms():
    for n in range(1, 9):
        ps = partitions_of(n)
        for a in ps:
            assert dominates(a, a)
            for b in ps:
                if dominates(a, b) and dominates(b, a):
                    assert a == b
                for c in ps:
                    if dominates(a, b) and dominates(b, c):
                        assert dominates(a, c)


def test_reverse_lex_refines_dominance():
    for n in range(1, 9):
        ps = partitions_of(n)
        pos = {p: i for i, p in enumerate(ps)}
        for a in ps:
            for b in ps:
                if a != b and dominates(a, b):
                    assert pos[a] < pos[b]


def test_serialization():
    assert Partition((3, 1, 1)).serialize() == "3,1,1"
    assert Partition(()).serialize() == ""
    assert Partition.parse("3,1,1") == Partition((3, 1, 1))
    assert Partition.parse("") == Partition(())
