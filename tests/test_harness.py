"""Sweep engine: enumeration order, oracles, checkers, determinism."""

from __future__ import annotations

import random
from decimal import localcontext

import pytest

from psiclass.dvv import MemoCache, _encode, c_value, x_int
from psiclass.exact import Q, pi_value, rounded, to_decimal
from psiclass.harness import (
    check_c4_inequalities,
    check_cross_formulas,
    check_lemma3,
    check_omega11_identity,
    counterexample_suite,
    lemma7_check,
    sample_vectors,
    sweep_nesting,
    theta_sweep,
)
from psiclass.partitions import partition_count, partitions, primitive_vectors

from oracles import (
    partitions_reference,
    primitive_vectors_reference,
    theorem2_deviation_sweep,
    theorem2_family,
)


def test_partition_count_pentagonal():
    known = {0: 1, 1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 10: 42, 18: 385, 50: 204226}
    for n, want in known.items():
        assert partition_count(n) == want
    with pytest.raises(ValueError):
        partition_count(-1)


def test_partitions_against_count():
    for n in range(0, 15):
        assert sum(1 for _ in partitions(n)) == partition_count(n)
        # Summed over the number of parts, the fixed-length lists cover
        # every partition once.
        by_length = [p for k in range(n + 1) for p in partitions(n, parts=k)]
        assert len(by_length) == len(set(by_length)) == partition_count(n)


def test_partitions_exact_length():
    assert list(partitions(6, parts=3)) == [(4, 1, 1), (3, 2, 1), (2, 2, 2)]
    assert list(partitions(2, parts=3)) == []
    assert list(partitions(0, parts=0)) == [()]
    assert list(partitions(3, parts=0)) == []
    assert list(partitions(0, parts=2)) == []
    assert list(partitions(-1)) == list(partitions(-1, parts=1)) == []
    # By the definition: nonincreasing tuples of parts >= 1 summing to t,
    # in strictly decreasing order, each fixed-length list the filter of
    # the unrestricted one.
    for t in range(0, 16):
        every = list(partitions(t))
        assert every == sorted(set(every), reverse=True)
        for p in every:
            assert sum(p) == t and all(v >= 1 for v in p)
            assert list(p) == sorted(p, reverse=True)
        for n in range(0, t + 2):
            assert list(partitions(t, parts=n)) == [p for p in every if len(p) == n]
    # Against the recursive reference, in the same order, the empty cases
    # (parts > total) included.
    for t in range(0, 25):
        for n in (None, *range(0, t + 2)):
            want = list(partitions_reference(t, n))
            assert list(partitions(t, parts=n)) == want, (t, n)
    # Deeper than the recursive reference could go: it nests one frame per part.
    assert list(partitions(1500, parts=1500)) == [(1,) * 1500]
    assert next(partitions(1500, parts=1499)) == (2,) + (1,) * 1498


def test_primitive_vectors_count_and_order():
    for g in (2, 3, 4, 5):
        vecs = primitive_vectors(g)
        assert len(vecs) == partition_count(3 * g - 3)
        assert len(set(vecs)) == len(vecs)
        for d in vecs:
            assert list(d) == sorted(d)
            assert all(v >= 2 for v in d)
            assert sum(d) - len(d) == 3 * g - 3
    # Colex order on multiplicity vectors puts the all-2 class first and
    # the one-point class last.
    vecs = primitive_vectors(3)
    assert vecs[0] == (2,) * 6
    assert vecs[-1] == (7,)
    for g in range(2, 11):
        assert primitive_vectors(g) == primitive_vectors_reference(g), g
    with pytest.raises(ValueError):
        primitive_vectors(1)


def test_sweep_nesting_small():
    reports = sweep_nesting(3)
    assert [r.genus for r in reports] == [2, 3]
    r2 = reports[0]
    assert r2.min_vector == (4,) and r2.min_value == Q(35, 144)
    assert r2.max_vector == (2, 2, 2) and r2.max_value == Q(175, 648)
    assert r2.nesting_ok
    assert r2.count == 3
    r3 = reports[1]
    assert r3.min_value == Q(25025, 93312)
    assert r3.max_value == Q(546875, 1889568)
    assert len(r3.max_scaled_deviation.as_tuple().digits) <= 50


def test_sweep_deviation_is_the_maximum_over_every_class():
    # sweep_nesting converts only the least and the greatest C of a genus;
    # the maximum of g |C - 1/pi| over every class must print the same.
    # Its extremes are min/max over every index keyed by C, the first
    # index winning a tie.
    def extremes(g, cache=None):
        vectors = primitive_vectors(g)
        values = [c_value(d, cache) for d in vectors]
        lo = min(range(len(vectors)), key=values.__getitem__)
        hi = max(range(len(vectors)), key=values.__getitem__)
        return vectors[lo], values[lo], vectors[hi], values[hi]

    def reported(r):
        return r.min_vector, r.min_value, r.max_vector, r.max_value

    with localcontext() as ctx:
        ctx.prec = 60
        inv_pi = 1 / pi_value(60)
        for r in sweep_nesting(7):
            devs = [
                abs(to_decimal(c_value(d), 60) - inv_pi) * r.genus
                for d in primitive_vectors(r.genus)
            ]
            assert str(r.max_scaled_deviation) == str(rounded(max(devs), 50))
            assert reported(r) == extremes(r.genus)
    # No two classes of genus <= 8 share a C, so ties come from forged memo
    # entries: (2,3) tied with (4) or with (2,2,2), which hold other entry
    # counts, and (4,4) tied with (3,5), which share one.
    forged = [
        (2, {(2, 3): 8505}, (2, 3), (2, 2, 2)),
        (2, {(2, 3): 9450}, (4,), (2, 2, 2)),
        (3, {(3, 5): 1, (4, 4): 1}, (4, 4), (2,) * 6),
        (3, {(3, 5): 10**60, (4, 4): 10**60}, (7,), (4, 4)),
    ]
    for g, entries, low, high in forged:
        cache = MemoCache()
        for d in primitive_vectors(g):
            c_value(d, cache)
        for key, n in entries.items():
            cache.table[_encode(key)] = n
        r = sweep_nesting(g, cache)[-1]
        assert reported(r) == extremes(g, cache)
        assert (r.min_vector, r.max_vector) == (low, high), entries


def test_theta_values_and_feasibility():
    assert theta_sweep(3, 1) == Q(35, 144)
    assert theta_sweep(1, 1) == Q(1, 6)  # only d = (1)
    with pytest.raises(ValueError, match="empty feasible set"):
        theta_sweep(4, 1)  # parity
    with pytest.raises(ValueError, match="empty feasible set"):
        theta_sweep(2, 4)  # X < n
    with pytest.raises(ValueError):
        theta_sweep(0, 1)


def test_theta_monotone_in_both_indices():
    for X in range(3, 10):
        for n in range(2, X + 1):
            if (3 * X - n) % 2 or (3 * X - n) // 2 < n:
                continue
            if (3 * (X - 1) - (n - 1)) % 2 == 0 and (3 * (X - 1) - (n - 1)) // 2 >= (
                n - 1
            ) >= 1:
                assert theta_sweep(X, n) >= theta_sweep(X - 1, n - 1), (X, n)


def test_cross_formulas_budgets():
    suites = check_cross_formulas("smoke")
    assert all(s.ok for s in suites)
    assert {s.name for s in suites} == {
        "two_point_bdy",
        "two_point_zograf",
        "three_point",
        "four_point",
        "n_point(n=5)",
    }
    # 3g two-point vectors per genus g = 1..3; the multisets of n entries
    # with sum 3g - 3 + n: 1 + 3 + 7 (n = 3, g <= 2), 1 + 5 + 11 (n = 4,
    # g <= 2) and 2 + 7 (n = 5, g <= 1).
    assert [s.count for s in suites] == [18, 18, 11, 17, 9]
    for name in ("none", "huge"):
        with pytest.raises(ValueError, match=f"unknown budget '{name}'"):
            check_cross_formulas(name)


def test_omega11_identity_examples():
    assert check_omega11_identity((4,))
    assert check_omega11_identity((1,))
    assert check_omega11_identity((2, 3))
    assert check_omega11_identity((0, 0, 3))
    assert check_omega11_identity((0, 2, 4))
    with pytest.raises(ValueError):
        check_omega11_identity((2,))  # not geometric


def test_omega11_identity_sampled():
    # The 16 vectors of the pool that the CLI's default sample of 50 never
    # reaches.
    tail = sample_vectors(66)[50:]
    assert len(tail) == 16
    for d in tail:
        assert check_omega11_identity(d), d


def test_c4_inequalities():
    for d in ((2, 2, 2), (4,), (1,), (0, 5), (2, 3)):
        assert check_c4_inequalities(d), d


def test_lemma3_weight_bound():
    for d in ((7,), (2, 2, 2), (2, 2, 3, 3), (4, 4), (2, 6), (10,)):
        assert check_lemma3(d), d
    with pytest.raises(ValueError):
        check_lemma3((0, 2, 4))  # zero entry: not primitive
    with pytest.raises(ValueError):
        check_lemma3((2, 2))  # not geometric


def test_counterexample_suite():
    rep = counterexample_suite()
    assert rep.ok
    assert [row[3] for row in rep.values] == [True] * 4
    assert [row[1] for row in rep.inequalities] == [True] * 4


def test_sample_vectors_deterministic():
    a = sample_vectors(50)
    b = sample_vectors(50)
    assert a == b
    assert len(set(a)) == 50
    assert all(x_int(d) is not None and x_int(d) <= 9 for d in a)


def test_sample_vectors_bounded_by_its_pool():
    # Entries 0..7, n <= 5 and X <= 9 admit 66 distinct vectors: all of them
    # can be drawn, one more is an error rather than an endless loop.
    full = sample_vectors(66)
    assert len(set(full)) == 66
    assert full[:50] == sample_vectors(50)
    with pytest.raises(ValueError, match="^sample must be between 0 and 66$"):
        sample_vectors(67)


def test_theorem2_family_membership():
    fam = list(theorem2_family(2, max_zeros=2))
    assert (4,) in fam
    assert (0, 5) in fam
    assert (0, 0, 6) in fam
    assert (0, 0, 2, 5) in fam
    for d in fam:
        zeros = sum(1 for v in d if v == 0)
        assert zeros <= 2
        assert all(v == 0 or v >= 2 for v in d)


def test_theorem2_deviation_sweep_small():
    dev, arg = theorem2_deviation_sweep(2, 2, digits=30)
    assert len(dev.as_tuple().digits) <= 30
    assert dev > 0
    assert arg in list(theorem2_family(2))


def test_lemma7_small():
    assert lemma7_check(8)


@pytest.mark.slow
def test_sweep_nesting_genus13():
    """Deep probe: the nesting still holds at genus 13 (17977 classes)."""
    reports = sweep_nesting(13)
    r = reports[-1]
    assert r.genus == 13
    assert r.count == partition_count(36) == 17977
    assert r.nesting_ok
    assert r.min_vector == (37,)
    assert r.max_vector == (2,) * 36
