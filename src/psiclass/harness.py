"""Sweep engine and identity checkers built on the exact C-value core.

The vectors come from psiclass.partitions, in a fixed order, so every
report is byte-reproducible apart from its wall-clock ``seconds``.  All
comparisons are exact rational comparisons; the only decimals are the
reported deviation statistics, computed at a stated precision.
"""

from __future__ import annotations

import random
import time
from decimal import localcontext
from itertools import combinations_with_replacement
from math import factorial
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .closed import (
    four_point,
    n_point,
    three_point,
    two_point_bdy,
    two_point_zograf,
)
from .dvv import (
    MemoCache,
    _c_scale,
    c_value,
    canonical_tuple,
    genus_of,
    multiset_splits,
    n_value,
    x_int,
)
from .exact import (
    HPDecimal, Q, ZERO, odd_double_factorial, pi_interval, pi_value, rounded, to_decimal
)
from .partitions import partition_count, partitions, primitive_vectors

# ----------------------------------------------------------------------
# Nesting sweep (plus the deviation statistic of the uniform 1/pi law).
# ----------------------------------------------------------------------


class SweepReport(NamedTuple):
    genus: int
    count: int
    min_vector: Tuple[int, ...]
    min_value: object
    max_vector: Tuple[int, ...]
    max_value: object
    nesting_ok: bool
    max_scaled_deviation: HPDecimal  # max over d of g * |C(d) - 1/pi|
    seconds: float


def sweep_nesting(
    g_max: int, cache: Optional[MemoCache] = None
) -> List[SweepReport]:
    """For each genus 2..g_max, scan every primitive class and report the
    extremes, whether they sit at (3g-2) and (2,...,2), and the worst
    g*|C - 1/pi| to 50 digits."""
    if g_max < 2:
        raise ValueError("gmax must be at least 2")
    reports: List[SweepReport] = []
    work_prec = 60
    with localcontext() as ctx:
        ctx.prec = work_prec
        inv_pi = 1 / pi_value(work_prec).value
    for g in range(2, g_max + 1):
        t0 = time.perf_counter()
        vectors = primitive_vectors(g)
        # C = N / S: compare N_i S_j with N_j S_i, strictly, so the first
        # index holding an extreme wins a tie as min/max would.
        for i, d in enumerate(vectors):
            cur = (n_value(d, cache), _c_scale(g, 2 * g - 2 + len(d)), i)
            if i == 0:
                low = high = cur
            elif cur[0] * low[1] < low[0] * cur[1]:
                low = cur
            elif cur[0] * high[1] > high[0] * cur[1]:
                high = cur
        min_value, max_value = Q(*low[:2]), Q(*high[:2])
        min_vector, max_vector = vectors[low[2]], vectors[high[2]]
        # |v - 1/pi| g peaks at the least or the greatest v, and each
        # rounding below is monotone: only the two extremes are converted.
        with localcontext() as ctx:
            ctx.prec = work_prec
            ends = (min_value, max_value)
            worst = max(abs(to_decimal(v, work_prec).value - inv_pi) * g for v in ends)
        expect_min = (3 * g - 2,)
        expect_max = (2,) * (3 * g - 3)
        reports.append(
            SweepReport(
                genus=g,
                count=len(vectors),
                min_vector=min_vector,
                min_value=min_value,
                max_vector=max_vector,
                max_value=max_value,
                nesting_ok=(
                    min_vector == expect_min
                    and max_vector == expect_max
                    and len(vectors) == partition_count(3 * g - 3)
                ),
                max_scaled_deviation=rounded(worst, 50),
                seconds=time.perf_counter() - t0,
            )
        )
    return reports


def theta_sweep(X: int, n: int):
    """theta_{X,n} = max of C(d) over d in (Z>=1)^n with X(d) = X.

    The feasible set is the partitions of (3X - n)/2 into exactly n parts;
    it is empty unless X >= n >= 1 and X == n (mod 2).
    """
    if X < 1 or n < 1:
        raise ValueError("x and n must be at least 1")
    s2 = 3 * X - n
    if s2 % 2 != 0 or s2 // 2 < n:
        raise ValueError(
            "empty feasible set: n must be at most x and have the parity of x"
            f" (x={X}, n={n})"
        )
    return max(c_value(d) for d in partitions(s2 // 2, n))


# ----------------------------------------------------------------------
# Cross-formula equivalence drives.
# ----------------------------------------------------------------------


class SuiteResult(NamedTuple):
    name: str
    count: int
    ok: bool
    first_mismatch: Optional[tuple]


BUDGETS = {
    "smoke": (3, 2, 2, 1),
    "default": (8, 5, 4, 3),
}


def check_cross_formulas(budget: str = "default") -> List[SuiteResult]:
    """Compare every closed formula against the recursion up to the genera
    of the row of BUDGETS that ``budget`` names (any other name raises
    ValueError): BDY and Zograf on all two-point vectors, the 3-/4-point
    formulas, and the general n-point formula at n=5.  Returns one
    SuiteResult per suite, in that order."""
    if budget not in BUDGETS:
        raise ValueError(f"unknown budget {budget!r} (one of {sorted(BUDGETS)})")
    g2, g3, g4, g5 = BUDGETS[budget]
    suites: List[SuiteResult] = []

    def run(name, pairs_iter, closed_fn):
        count = 0
        mismatch = None
        for d in pairs_iter:
            got = closed_fn(d)
            want = c_value(d)
            count += 1
            if got != want:
                mismatch = (d, got, want)
                break
        suites.append(SuiteResult(name, count, mismatch is None, mismatch))

    def vectors(n: int, gmax: int) -> Iterator[Tuple[int, ...]]:
        # The nondecreasing n-vectors of genus g <= gmax have sum 3g - 3 + n:
        # each is a partition of 3g - 3 + 2n into n parts, each part less one.
        for g in range(0, gmax + 1):
            for p in partitions(3 * g - 3 + 2 * n, n):
                yield tuple(v - 1 for v in reversed(p))

    def pairs() -> Iterator[Tuple[int, int]]:
        for g in range(1, g2 + 1):
            for d1 in range(0, 3 * g):
                yield (d1, 3 * g - 1 - d1)

    run("two_point_bdy", pairs(), _bdy_as_c)
    run("two_point_zograf", pairs(), lambda d: two_point_zograf(*d))
    run("three_point", vectors(3, g3), three_point)
    run("four_point", vectors(4, g4), four_point)
    run("n_point(n=5)", vectors(5, g5), n_point)
    return suites


def _bdy_as_c(d: Tuple[int, int]):
    """two_point_bdy yields the raw integral; lift it to the C normalization
    through the same double-factorial bookkeeping used everywhere else."""
    d1, d2 = d
    g = (d1 + d2 + 1) // 3
    integral = two_point_bdy(d1, d2)
    pref = Q(4**g) * odd_double_factorial(2 * d1 + 1) * odd_double_factorial(
        2 * d2 + 1
    ) / (Q(3) ** (2 * g) * factorial(2 * g - 1))
    return integral * pref


# ----------------------------------------------------------------------
# Identity and inequality checkers.
# ----------------------------------------------------------------------


def check_omega11_identity(d: Sequence[int]) -> bool:
    """The KdV-jet identity tying C(d) to six extra 0-insertions:

        C(d) = C(0^6, d)
             + (3/2) sum_{I|J} W(0^3 I; 0^3 J) C(0^3,I) C(0^3,J)
             + 6     sum_{I|J} W(0^2 I; 0^4 J) C(0^2,I) C(0^4,J)
             + 3     sum_{I|J|K} W(0^2 I; 0^2 J; 0^2 K) prod C(0^2,.)

    over ordered splittings of d's entries, where each W is the product of
    (X(part)-1)! over the parts divided by (X(d)+1)!; parts with
    non-integer X are skipped (their C vanishes).
    """
    t = tuple(d)
    if genus_of(t) is None:
        raise ValueError("check_omega11_identity needs a geometric vector")
    X = x_int(t)
    assert X is not None
    denom = factorial(X + 1)
    rhs = c_value((0,) * 6 + t)
    for zeros, coeff in (((3, 3), Q(3, 2)), ((2, 4), Q(6)), ((2, 2, 2), Q(3))):
        acc = ZERO
        for split, ways in multiset_splits(t, len(zeros)):
            parts = [(0,) * z + part for z, part in zip(zeros, split)]
            xs = [x_int(part) for part in parts]
            if any(x is None or x < 1 for x in xs):
                continue  # before any c_value: the other parts stay out of the memo
            w = Q(ways)
            for x in xs:
                w *= factorial(x - 1)
            w /= denom
            for part in parts:
                w *= c_value(part)
            acc += w
        rhs += coeff * acc
    return c_value(t) == rhs


def check_c4_inequalities(d: Sequence[int]) -> bool:
    """C(4, d) >= C(0^12, d), exactly."""
    t = tuple(d)
    if genus_of(t) is None:
        raise ValueError("check_c4_inequalities needs a geometric vector")
    return c_value((4,) + t) >= c_value((0,) * 12 + t)


def check_lemma3(d: Sequence[int]) -> bool:
    """The quadratic-splitting weight bound at the largest entry:

        sum_{a+b = d_1 - 2} sum_{I|J}  (X1-1)! (X2-1)! / (6 (X-1)!)
            <= 2 / ((X-1)(X-2))

    for primitive d of genus >= 2, where X1 = X(a, d_I), X2 = X(b, d_J) run
    over ordered splittings of the non-pivot entries and non-integer parts
    are skipped.  Only the weights are summed: this is the engine's own
    quadratic-term envelope, independent of any C value.
    """
    t = canonical_tuple(d)
    g = genus_of(t)
    if g is None or g < 2 or any(v < 2 for v in t):
        raise ValueError("check_lemma3 needs a primitive vector of genus >= 2")
    X = x_int(t)
    assert X is not None and X >= 3
    pivot = t[-1]
    rest = t[:-1]
    denom = Q(6) * factorial(X - 1)
    acc = ZERO
    splits = multiset_splits(rest, 2)
    for a in range(0, pivot - 1):
        b = pivot - 2 - a
        for (I, J), ways in splits:
            x1 = x_int((a,) + I)
            x2 = x_int((b,) + J)
            if x1 is None or x2 is None or x1 < 1 or x2 < 1:
                continue
            acc += Q(ways) * factorial(x1 - 1) * factorial(x2 - 1) / denom
    return acc <= Q(2, (X - 1) * (X - 2))


def lemma7_check(x_max: int = 14) -> bool:
    """theta_{X,n} <= f(X, n) for every feasible (X, n) with X <= x_max.

    The comparison is made safe against pi rounding: with f = r/pi + s and
    r >= 0, it certifies theta <= r/pi_high + s, a lower bound for f.
    """
    from .asym import f_bound  # lazy: sweep-nesting and theta never load asym

    pi_lo, pi_hi = pi_interval(50)
    for X in range(1, x_max + 1):
        # theta_sweep's feasible n: 3X - n even and (3X - n)/2 >= n, that
        # is n == X (mod 2) and n <= X.
        for n in range(2 - X % 2, X + 1, 2):
            theta = theta_sweep(X, n)
            r, s = f_bound(X, n)
            if r < 0:
                raise ArithmeticError("f bound with negative pi part")
            if theta > r / pi_hi + s:
                return False
    return True


# ----------------------------------------------------------------------
# Frozen counterexamples from the nesting remarks.
# ----------------------------------------------------------------------


class CounterexampleReport(NamedTuple):
    values: List[tuple]  # (vector, value, frozen value, equal)
    inequalities: List[tuple]  # (statement, holds)

    @property
    def ok(self) -> bool:
        return all(row[3] for row in self.values) and all(
            row[1] for row in self.inequalities
        )


_COUNTEREXAMPLE_VALUES = (
    ((0,) * 6 + (10,), Q(1616615, 6718464)),
    ((0, 0, 6), Q(5005, 15552)),
    ((2,) * 5 + (8,), Q(727759375, 2448880128)),
    ((3,) * 4 + (5,), Q(419588015525, 1410554953728)),
)


def counterexample_suite() -> CounterexampleReport:
    """Zeros break the nesting: frozen rationals and the four strict
    inequalities around them."""
    values = []
    got: Dict[tuple, object] = {}
    for vec, want in _COUNTEREXAMPLE_VALUES:
        have = c_value(vec)
        got[vec] = have
        values.append((vec, have, want, have == want))
    inequalities = [
        ("C(0^6,10) < C(4)", got[(0,) * 6 + (10,)] < c_value((4,))),
        ("C(0^2,6) > C(2,2,2)", got[(0, 0, 6)] > c_value((2, 2, 2))),
        (
            "C(2^5,8) < C(3^4,5)",
            got[(2,) * 5 + (8,)] < got[(3,) * 4 + (5,)],
        ),
        ("C(4,4) < C(3,5)", c_value((4, 4)) < c_value((3, 5))),
    ]
    return CounterexampleReport(values, inequalities)


def sample_vectors(count: int) -> List[Tuple[int, ...]]:
    """Deterministic sample of distinct geometric vectors with X(d) <= 9,
    drawn as 1..5 entries in 0..7; count may not exceed the number of such
    vectors.  A larger count extends a smaller one's sample."""
    pool = set()
    for n in range(1, 6):
        for d in combinations_with_replacement(range(8), n):
            t = canonical_tuple(d)
            x = x_int(t)
            if genus_of(t) is not None and x is not None and 1 <= x <= 9:
                pool.add(t)
    if not 0 <= count <= len(pool):
        raise ValueError(f"sample must be between 0 and {len(pool)}")
    rng = random.Random(91117)
    out: List[Tuple[int, ...]] = []
    while len(out) < count:
        n = rng.randint(1, 5)
        t = canonical_tuple([rng.randint(0, 7) for _ in range(n)])
        if t in pool:
            pool.remove(t)
            out.append(t)
    return out
