"""Sweep engine and identity checkers built on the exact C-value core.

The vectors come from psiclass.partitions, in a fixed order, so every
report is byte-reproducible.  All comparisons are exact rational
comparisons; the only decimals are the reported deviation statistics,
computed at a stated precision.
"""

from __future__ import annotations

import random
import time
from decimal import Decimal, localcontext
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
    c_value,
    canonical_tuple,
    genus_of,
    multiset_splits,
    x_int,
)
from .exact import HPDecimal, Q, ZERO, odd_double_factorial, pi_value, to_decimal
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
    g_max: int,
    digits: int = 50,
    cache: Optional[MemoCache] = None,
) -> List[SweepReport]:
    """For each genus 2..g_max, scan every primitive class and report the
    extremes, whether they sit at (3g-2) and (2,...,2), and the worst
    g*|C - 1/pi| at the requested precision."""
    if g_max < 2:
        raise ValueError("sweep_nesting needs g_max >= 2")
    reports: List[SweepReport] = []
    work_prec = digits + 10
    with localcontext() as ctx:
        ctx.prec = work_prec
        inv_pi = 1 / pi_value(work_prec).value
    for g in range(2, g_max + 1):
        t0 = time.time()
        vectors = primitive_vectors(g)
        values = [c_value(d, cache) for d in vectors]
        min_i = min(range(len(vectors)), key=lambda i: values[i])
        max_i = max(range(len(vectors)), key=lambda i: values[i])
        worst = Decimal(0)
        with localcontext() as ctx:
            ctx.prec = work_prec
            for v in values:
                dev = abs(to_decimal(v, work_prec).value - inv_pi) * g
                if dev > worst:
                    worst = dev
        with localcontext() as ctx:
            ctx.prec = digits
            worst = +worst
        expect_min = (3 * g - 2,)
        expect_max = (2,) * (3 * g - 3)
        reports.append(
            SweepReport(
                genus=g,
                count=len(vectors),
                min_vector=vectors[min_i],
                min_value=values[min_i],
                max_vector=vectors[max_i],
                max_value=values[max_i],
                nesting_ok=(
                    vectors[min_i] == expect_min
                    and vectors[max_i] == expect_max
                    and len(vectors) == partition_count(3 * g - 3)
                ),
                max_scaled_deviation=HPDecimal(worst, digits),
                seconds=time.time() - t0,
            )
        )
    return reports


def theta_sweep(X: int, n: int):
    """theta_{X,n} = max of C(d) over d in (Z>=1)^n with X(d) = X.

    The feasible set is the partitions of (3X - n)/2 into exactly n parts;
    it is empty unless X >= n >= 1 and X == n (mod 2).
    """
    if X < 1 or n < 1:
        raise ValueError("theta_sweep needs X >= 1 and n >= 1")
    s2 = 3 * X - n
    if s2 % 2 != 0 or s2 // 2 < n:
        raise ValueError("empty feasible set")
    return max(c_value(d) for d in partitions(s2 // 2, n))


# ----------------------------------------------------------------------
# Cross-formula equivalence drives.
# ----------------------------------------------------------------------


class SuiteResult(NamedTuple):
    name: str
    count: int
    ok: bool
    first_mismatch: Optional[tuple]


class CrossFormulaReport(NamedTuple):
    suites: List[SuiteResult]

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.suites)


BUDGETS = {
    "none": (1, 1, 1, 0),
    "smoke": (3, 2, 2, 1),
    "default": (8, 5, 4, 3),
}


def check_cross_formulas(budget: str = "default") -> CrossFormulaReport:
    """Compare every closed formula against the recursion on its budgeted
    range: BDY and Zograf on all two-point vectors, the 3-/4-point formulas,
    and the general n-point formula at n=5."""
    if budget not in BUDGETS:
        raise ValueError(f"unknown budget {budget!r} (one of {sorted(BUDGETS)})")
    if budget == "none":
        return CrossFormulaReport([])
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

    run(
        "two_point_bdy",
        ((d1, 3 * g - 1 - d1) for g in range(1, g2 + 1) for d1 in range(0, 3 * g)),
        _bdy_as_c,
    )
    run(
        "two_point_zograf",
        ((d1, 3 * g - 1 - d1) for g in range(1, g2 + 1) for d1 in range(0, 3 * g)),
        lambda d: two_point_zograf(*d),
    )
    run("three_point", vectors(3, g3), three_point)
    run("four_point", vectors(4, g4), four_point)
    run("n_point(n=5)", vectors(5, g5), n_point)
    return CrossFormulaReport(suites)


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

    def quad(z1: int, z2: int, coeff):
        acc = ZERO
        for (I, J), ways in multiset_splits(t, 2):
            d1, d2 = (0,) * z1 + I, (0,) * z2 + J
            x1, x2 = x_int(d1), x_int(d2)
            if x1 is None or x2 is None or x1 < 1 or x2 < 1:
                continue
            term = (
                Q(ways)
                * factorial(x1 - 1)
                * factorial(x2 - 1)
                / denom
                * c_value(d1)
                * c_value(d2)
            )
            acc += term
        return coeff * acc

    rhs += quad(3, 3, Q(3, 2))
    rhs += quad(2, 4, Q(6))
    cubic = ZERO
    for split, ways in multiset_splits(t, 3):
        parts = [(0, 0) + part for part in split]
        xs = [x_int(part) for part in parts]
        if any(x is None or x < 1 for x in xs):
            continue
        w = Q(ways)
        for x in xs:
            w *= factorial(x - 1)
        w /= denom
        for part in parts:
            w *= c_value(part)
        cubic += w
    rhs += Q(3) * cubic
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


def lemma7_check(x_max: int = 14, digits: int = 50) -> bool:
    """theta_{X,n} <= f(X, n) for every feasible (X, n) with X <= x_max.

    The comparison is made safe against pi rounding: with f = r/pi + s and
    r >= 0, it certifies theta <= r/pi_high + s, a lower bound for f.
    """
    from .asym import f_bound
    from .exact import pi_interval

    pi_lo, pi_hi = pi_interval(digits)
    for X in range(1, x_max + 1):
        for n in range(1, X + 1):
            if (3 * X - n) % 2 != 0 or (3 * X - n) // 2 < n:
                continue
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
    values_ok: bool
    inequalities_ok: bool
    rows: List[tuple]

    @property
    def ok(self) -> bool:
        return self.values_ok and self.inequalities_ok


_COUNTEREXAMPLE_VALUES = (
    ((0,) * 6 + (10,), Q(1616615, 6718464)),
    ((0, 0, 6), Q(5005, 15552)),
    ((2,) * 5 + (8,), Q(727759375, 2448880128)),
    ((3,) * 4 + (5,), Q(419588015525, 1410554953728)),
)


def counterexample_suite() -> CounterexampleReport:
    """Zeros break the nesting: frozen rationals and the four strict
    inequalities around them."""
    rows = []
    values_ok = True
    got: Dict[tuple, object] = {}
    for vec, want in _COUNTEREXAMPLE_VALUES:
        have = c_value(vec)
        got[vec] = have
        rows.append((vec, have, want, have == want))
        values_ok = values_ok and have == want
    ineqs = (
        ("C(0^6,10) < C(4)", got[(0,) * 6 + (10,)] < c_value((4,))),
        ("C(0^2,6) > C(2,2,2)", got[(0, 0, 6)] > c_value((2, 2, 2))),
        (
            "C(2^5,8) < C(3^4,5)",
            got[(2,) * 5 + (8,)] < got[(3,) * 4 + (5,)],
        ),
        ("C(4,4) < C(3,5)", c_value((4, 4)) < c_value((3, 5))),
    )
    inequalities_ok = all(okv for _, okv in ineqs)
    rows.extend((name, okv) for name, okv in ineqs)
    return CounterexampleReport(values_ok, inequalities_ok, rows)


# ----------------------------------------------------------------------
# Deviation sweeps for the uniform product law.
# ----------------------------------------------------------------------


def theorem2_family(g: int, max_zeros: int = 6) -> Iterator[Tuple[int, ...]]:
    """Genus-g vectors made of k zeros (k <= max_zeros) plus parts >= 2.

    1-entries are dilaton-invariant for both C and the product bound, so
    this family covers the general statement without double counting.
    """
    for k in range(0, max_zeros + 1):
        # sum(d) = 3g - 3 + n with n = k + m parts, zeros contribute 0
        # parts >= 2: sum = 3g - 3 + k + m over m parts, each >= 2, i.e.
        # partitions of 3g - 3 + k into m parts after the shift by 1.
        m_total = 3 * g - 3 + k
        if m_total <= 0:
            continue
        for p in partitions(m_total):
            yield (0,) * k + tuple(v + 1 for v in reversed(p))


def theorem2_deviation_sweep(
    g_min: int = 2,
    g_max: int = 5,
    max_zeros: int = 6,
    digits: int = 50,
) -> Tuple[HPDecimal, Tuple[int, ...]]:
    """max over the family of g * |pi C(d) / product(d) - 1| plus argmax."""
    from .asym import theorem2_product

    work = digits + 10
    pi = pi_value(work)
    worst = Decimal(0)
    arg: Tuple[int, ...] = ()
    with localcontext() as ctx:
        ctx.prec = work
        for g in range(g_min, g_max + 1):
            for d in theorem2_family(g, max_zeros):
                prod = theorem2_product(d)
                c = c_value(d)
                dev = abs(
                    pi.value
                    * to_decimal(c, work).value
                    / to_decimal(prod, work).value
                    - 1
                ) * g
                if dev > worst:
                    worst, arg = dev, d
    with localcontext() as ctx:
        ctx.prec = digits
        worst = +worst
    return HPDecimal(worst, digits), arg


def sample_vectors(
    count: int, x_cap: int = 9, seed: int = 91117, n_cap: int = 5
) -> List[Tuple[int, ...]]:
    """Deterministic sample of geometric vectors with X(d) <= x_cap."""
    if count < 0:
        raise ValueError("sample_vectors needs count >= 0")
    rng = random.Random(seed)
    out: List[Tuple[int, ...]] = []
    seen = set()
    while len(out) < count:
        n = rng.randint(1, n_cap)
        d = tuple(sorted(rng.randint(0, 7) for _ in range(n)))
        t = canonical_tuple(d)
        g = genus_of(t)
        x = x_int(t)
        if g is None or x is None or not 1 <= x <= x_cap or t in seen:
            continue
        seen.add(t)
        out.append(t)
    return out
