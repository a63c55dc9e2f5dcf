"""Closed formulas against the recursion and against each other."""

from __future__ import annotations

import random
from math import prod

import pytest

from psiclass import closed
from psiclass.closed import (
    _common_den,
    _imul,
    _int_matrix,
    _perm_data,
    four_point,
    n_point,
    one_point_c,
    three_point,
    two_point_bdy,
    two_point_zograf,
)
from psiclass.dvv import c_value, gamma_norm, genus_of, intersection_number
from psiclass.exact import ONE, Q, ZERO

import oracles
from oracles import (
    _omega,
    a_value,
    four_point_reference,
    matrix_coeff,
    matrix_coeff_reference,
    n_point_reference,
    trace_product,
    trace_product_reference,
)


def _multisets(n, total, lo=0):
    if n == 1:
        if total >= lo:
            yield (total,)
        return
    for first in range(lo, total // n + 1):
        for rest in _multisets(n - 1, total - first, first):
            yield (first,) + rest


def test_matrix_entries_small_k():
    # Matrices are flat (a, b, c, d) tuples for [[a, b], [c, d]].
    # k = 1 (g = 1 in the 3g-2 family): diag(-1/2, 1/2)
    assert matrix_coeff(1) == (Q(-1, 2), ZERO, ZERO, Q(1, 2))
    # k = 3 (g = 1 in the 3g family): strictly upper, -q_1 = -5/8
    m = matrix_coeff(3)
    assert (m[0], m[2], m[3]) == (ZERO, ZERO, ZERO)
    assert m[1] == Q(-5, 8)
    # k = 2 (g = 1 in the 3g-1 family): strictly lower, r_1 = (7/5) q_1
    assert matrix_coeff(2)[2] == Q(7, 8)
    # k = -1: r_0 = -1; k <= -2: zero matrix
    assert matrix_coeff(-1)[2] == Q(-1)
    assert matrix_coeff(-2) == (ZERO, ZERO, ZERO, ZERO)


def test_matrix_entries_match_rational_closed_forms():
    for k in range(-3, 91):
        assert matrix_coeff(k) == matrix_coeff_reference(k), k


def test_trace_product_matches_plain_matrix_product():
    rng = random.Random(2024)
    nonzero = 0
    for i in range(200):
        if i % 2:
            ks = [rng.randint(-2, 24) for _ in range(rng.randint(1, 6))]
        else:
            # As many upper (k = 0 mod 3) as lower (k = 2 mod 3) factors,
            # which a nonzero trace needs, around diagonal ones.
            pairs, diag = rng.randint(0, 3), rng.randint(0, 3)
            ks = [3 * rng.randint(0, 8) for _ in range(pairs)]
            ks += [3 * rng.randint(0, 8) - 1 for _ in range(pairs)]
            ks += [3 * rng.randint(1, 8) - 2 for _ in range(diag or 1)]
            rng.shuffle(ks)
        ks = tuple(ks)
        want = trace_product_reference(ks)
        assert trace_product(ks) == want, ks
        nonzero += bool(want)
    assert nonzero >= 40


def test_matrices_traceless():
    for k in range(-1, 20):
        m = matrix_coeff(k)
        assert m[0] + m[3] == ZERO, k


def test_trace_cache_symmetries():
    rng = random.Random(555)
    for _ in range(40):
        ks = tuple(rng.randint(-1, 8) for _ in range(rng.randint(2, 5)))
        t = trace_product(ks)
        # cyclic invariance
        rot = ks[1:] + ks[:1]
        assert trace_product(rot) == t
        # reversal flips by the parity of entries = 1 mod 3
        sign = (-1) ** sum(1 for k in ks if k % 3 == 1)
        assert trace_product(tuple(reversed(ks))) == sign * t


def test_common_den_divisible_by_product_denominators():
    rng = random.Random(1991)
    for _ in range(500):
        ks = [rng.randint(-1, 40) for _ in range(rng.randint(1, 6))]
        den = prod(_int_matrix(k)[4] for k in ks)
        assert _common_den(len(ks), sum(ks)) % den == 0, ks


def _module_state():
    """Every container held at module level in closed, by name."""
    return {
        name: repr(value)
        for name, value in vars(closed).items()
        if isinstance(value, (dict, list, set))
    }


def test_closed_calls_leave_only_the_matrix_table():
    before = _module_state()
    two_point_bdy(7, 13)
    two_point_zograf(7, 13)
    three_point((1, 4, 10))
    four_point((1, 2, 3, 7))
    n_point((0, 1, 2, 2, 7))
    n_point((0, 2, 2, 3, 4, 4))
    after = _module_state()
    assert set(after) == set(before)
    changed = {name for name in after if after[name] != before[name]}
    assert changed <= {"_INT_MATS"}


def test_a_value_known():
    assert a_value((0, 2)) == Q(-7, 18)


def test_one_point_against_recursion():
    for g in range(1, 7):
        assert one_point_c(3 * g - 2) == c_value((3 * g - 2,)), g
    for g in range(1, 21):
        assert one_point_c(3 * g - 2) == gamma_norm(2 * g - 1)
    # Off the 3g-2 ladder there is no one-point class.
    assert one_point_c(3) == ZERO
    assert one_point_c(5) == ZERO


def test_two_point_formulas_against_recursion():
    for g in range(1, 5):
        for d1 in range(0, 3 * g):
            d2 = 3 * g - 1 - d1
            want_int = intersection_number((d1, d2))
            assert two_point_bdy(d1, d2) == want_int, (d1, d2)
            assert two_point_zograf(d1, d2) == c_value((d1, d2)), (d1, d2)


def test_two_point_argument_order():
    assert two_point_zograf(0, 5) == two_point_zograf(5, 0)
    assert two_point_bdy(1, 4) == two_point_bdy(4, 1)


def test_two_point_windows_run_over_the_smaller_entry(monkeypatch):
    # Each boundary term closes one trace and each Zograf term takes one
    # binomial, so the counts are the window sizes, min(d1, d2) + 1.  The
    # pair is geometric (5 + 12 = 2 mod 3), so neither formula returns early.
    calls = {"trace": 0, "comb": 0}
    trace_with, comb = closed._trace_with, closed.comb

    def counted_trace(m, k):
        calls["trace"] += 1
        return trace_with(m, k)

    def counted_comb(n, k):
        calls["comb"] += 1
        return comb(n, k)

    monkeypatch.setattr(closed, "_trace_with", counted_trace)
    monkeypatch.setattr(closed, "comb", counted_comb)
    seen = []
    for d in ((5, 12), (12, 5)):
        calls.update(trace=0, comb=0)
        two_point_bdy(*d)
        two_point_zograf(*d)
        seen.append((calls["trace"], calls["comb"]))
    assert seen[0] == seen[1] == (6, 6)


def test_closed_formulas_off_geometry():
    # A negative entry, or d1 + d2 not 2 mod 3, has no two-point class.
    for d in ((-1, 3), (2, -1), (1, 2), (0, 0), (3, 3)):
        assert two_point_bdy(*d) == ZERO, d
        assert two_point_zograf(*d) == ZERO == c_value(d), d
    with pytest.raises(ValueError, match="exactly three"):
        three_point((1, 2))
    with pytest.raises(ValueError, match="exactly four"):
        four_point((1, 2, 3))
    with pytest.raises(ValueError, match="at least one"):
        n_point(())


def test_three_point_against_recursion():
    for g in range(0, 4):
        for d in _multisets(3, 3 * g):
            assert three_point(d) == c_value(d), d


def test_four_point_against_recursion():
    for g in range(0, 3):
        for d in _multisets(4, 3 * g + 1):
            assert four_point(d) == c_value(d), d


# perfbench's `formulas` four-point inputs at seeds 1-5 and 601.
_BENCH_FOUR_POINT = (
    (4, 6, 20, 40),
    (2, 12, 16, 34),
    (9, 9, 12, 40),
    (5, 12, 13, 40),
    (3, 4, 23, 31),
    (4, 12, 14, 40),
)


def test_four_point_window_skips_only_zero_brackets():
    for total in range(0, 33):
        for d in _multisets(4, total):
            if max(d) <= 8:
                assert four_point(d) == four_point_reference(d), d
    for d in _BENCH_FOUR_POINT:
        assert four_point(d) == four_point_reference(d), d


def test_four_point_window_halves_bracket_evaluations(monkeypatch):
    # Each bracket evaluation calls max three times, in both loops.
    calls = 0

    def counting_max(*args):
        nonlocal calls
        calls += 1
        return max(*args)

    d = (3, 4, 23, 31)
    monkeypatch.setattr(oracles, "max", counting_max, raising=False)
    four_point_reference(d)
    assert calls == 3 * 4961
    calls = 0
    monkeypatch.setattr(closed, "max", counting_max, raising=False)
    four_point(d)
    assert calls % 3 == 0 and calls // 3 <= 4961 // 2


def test_n_point_against_recursion_n5():
    for g in range(0, 3):
        for d in _multisets(5, 3 * g + 2):
            assert n_point(d) == c_value(d), d


def test_n_point_agrees_with_low_n_formulas():
    for g in range(0, 4):
        for d in _multisets(3, 3 * g):
            assert n_point(d) == three_point(d), d
    for g in range(0, 3):
        for d in _multisets(4, 3 * g + 1):
            assert n_point(d) == four_point(d), d


def test_n_point_reference_agrees():
    """The window-free reference evaluator is slow but transparent; the
    pruned version must match it wherever both run."""
    for g in range(0, 2):
        for d in _multisets(5, 3 * g + 2):
            assert n_point_reference(d) == n_point(d), d
    for g in range(0, 3):
        for d in _multisets(3, 3 * g):
            assert n_point_reference(d) == n_point(d), d


def _geometric(rng, n, top):
    """A random n-vector with entries in 0..top, the last one moved up by
    at most 2 so that the genus is an integer."""
    d = [rng.randint(0, top) for _ in range(n)]
    d[-1] += (n - sum(d)) % 3
    rng.shuffle(d)
    return tuple(d)


def test_n_point_reference_agrees_on_random_vectors():
    """Random 3- and 4-point vectors, in shuffled order, through both the
    pruned sum and the window-free reference that weighs every trace by
    every permutation."""
    rng = random.Random(1107)
    for n, top, count in ((3, 9, 24), (4, 4, 10)):
        for _ in range(count):
            d = _geometric(rng, n, top)
            assert n_point(d) == n_point_reference(d), d


def test_n_point_against_recursion_n6_n7():
    # Every nondecreasing vector of genus <= 2: 40 with six points and 58
    # with seven; then one seven-point vector of genus 7.
    count = 0
    for n in (6, 7):
        for g in range(0, 3):
            for d in _multisets(n, 3 * g + n - 3):
                assert n_point(d) == c_value(d), d
                count += 1
    assert count == 98
    d = (1, 1, 2, 2, 3, 4, 12)
    assert genus_of(d) == 7
    assert n_point(d) == c_value(d)


def _prune_work(d):
    """(products, traces) that n_point should form on d, found from scratch.

    A matrix product for each prefix k_1..k_q inside n_point's window whose
    shorter prefixes have nonzero products and which some permutation
    survives: the min over S+ of its partial sums so far exceeds the max
    over S- and 0.  A trace for each full k under such prefixes whose
    weight, summed over the permutations by _omega, is nonzero.
    """
    ds = tuple(sorted(d))
    n = len(ds)
    s = sum(ds)
    budget = s - ds[-1] - 1
    perms = _perm_data(n)

    def survives(ks):
        for sigma, _, mask in perms:
            ps, lo, hi = 0, None, 0
            for q, k in enumerate(ks):
                ps += ds[sigma[q]] - k
                if mask[q]:
                    lo = ps if lo is None else min(lo, ps)
                else:
                    hi = max(hi, ps)
            if lo is None or lo > hi:
                return True
        return False

    products = traces = 0

    def walk(ks, mat):
        nonlocal products, traces
        if len(ks) == n - 1:
            full = ks + (s - sum(ks),)
            w = sum(sign * _omega(ds, sigma, mask, full) for sigma, sign, mask in perms)
            traces += w != 0
            return
        for k in range(-1, budget - sum(ks) + n - 1 - len(ks)):
            if survives(ks + (k,)):
                products += 1
                m = _imul(mat, _int_matrix(k))
                if any(m[:4]):
                    walk(ks + (k,), m)

    walk((), (1, 0, 0, 1, 1))
    return products, traces


def test_n_point_prunes_every_dead_permutation(monkeypatch):
    """The enumeration forms a product only where some permutation is still
    alive, and closes a trace only where the weight is nonzero; a looser
    prune forms more products with the same value."""
    work = {"products": 0, "traces": 0}
    imul, trace_with = closed._imul, closed._trace_with

    def counted_imul(m1, m2):
        work["products"] += 1
        return imul(m1, m2)

    def counted_trace(m, k):
        work["traces"] += 1
        return trace_with(m, k)

    monkeypatch.setattr(closed, "_imul", counted_imul)
    monkeypatch.setattr(closed, "_trace_with", counted_trace)
    for d in ((2, 2, 3, 3, 7), (0, 1, 2, 2, 3, 4)):
        work.update(products=0, traces=0)
        n_point(d)
        assert (work["products"], work["traces"]) == _prune_work(d), d


@pytest.mark.parametrize(
    "small, largest", [((2, 2, 3, 3), (4, 7, 10)), ((0, 1, 2, 2), (3, 6, 9))]
)
def test_n_point_table_does_not_read_the_largest_entry(monkeypatch, small, largest):
    """n_point hands close_terms the same term table at every largest
    entry, as three_point_terms and four_point_terms do, and each closing
    is the window-free reference value."""
    tables = []
    close_terms = closed.close_terms

    def recording_close(terms, smaller, dn):
        tables.append((list(terms), tuple(smaller)))
        return close_terms(terms, smaller, dn)

    monkeypatch.setattr(closed, "close_terms", recording_close)
    for dn in largest:
        d = small + (dn,)
        assert genus_of(d) is not None, d
        assert n_point(d) == n_point_reference(d), d
    assert len(tables) == len(largest)
    assert tables[0][0] and all(table == tables[0] for table in tables)
    assert tables[0][1] == small


def test_closed_formulas_on_permuted_input():
    assert three_point((0, 2, 4)) == three_point((4, 0, 2))
    assert four_point((0, 1, 2, 4)) == four_point((4, 2, 1, 0))


def test_six_point_spot_check():
    # One n = 6 point through the general formula, against the recursion.
    d = (0, 0, 0, 0, 1, 2)
    assert genus_of(d) == 0
    assert n_point(d) == c_value(d)
    d = (0, 0, 1, 1, 2, 2)
    assert n_point(d) == c_value(d)
