"""Independent checks of the values a workload produced.

Each check recomputes a value along a route the workload did not take:
the closed 2x2-trace formulas for vectors with at most four entries, the
Painleve I bridge for the all-twos vector, the pentagonal partition count
for the enumeration, and a separate cold DVV evaluation for everything
else.  Conversions between normalizations are done here from their
definitions, with ``fractions.Fraction``, not through psiclass's own
converters.  Every function returns the ids of the operations that failed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List

from psiclass import closed, dvv, harness, painleve

import workloads


def frac(q) -> Fraction:
    return Fraction(int(q.numerator), int(q.denominator))


def _odd_df(m: int) -> int:
    return math.prod(range(m, 0, -2))


def closed_c(d) -> Fraction:
    """C(d) by the closed formulas (one to four entries)."""
    n = len(d)
    if n == 1:
        return frac(closed.one_point_c(d[0]))
    if n == 2:
        return frac(closed.two_point_zograf(*d))
    if n == 3:
        return frac(closed.three_point(d))
    if n == 4:
        return frac(closed.four_point(d))
    raise ValueError(f"no closed formula for {n} entries")


def twos_c(g: int) -> Fraction:
    """C(2^(3g-3)) from the Painleve coefficient c_g and the bridge factor."""
    factor = Fraction(
        2**g * 3 ** (3 * g - 2) * (5 * g - 3) * math.factorial(5 * g - 5),
        5 ** (3 * g - 3) * math.factorial(3 * g - 3),
    )
    return frac(painleve.painleve_coeff(g)) / factor


def intersection_from_c(d, c: Fraction) -> Fraction:
    """<tau_d> from C(d) by the defining normalization."""
    g, n = workloads.genus(d), len(d)
    num = c * 3 ** (2 * g - 2 + n) * math.factorial(2 * g - 3 + n)
    return num / (4**g * math.prod(_odd_df(2 * v + 1) for v in d))


class Oracle:
    """C(d) along an independent route, with one cold memo for the rest."""

    def __init__(self):
        self.cache = dvv.MemoCache()

    def c(self, d) -> Fraction:
        d = tuple(d)
        if len(d) <= 4:
            return closed_c(d)
        return frac(dvv.c_value(d, self.cache))

    def in_norm(self, d, norm: str) -> Fraction:
        c = self.c(d)
        if norm == "c":
            return c
        if norm == "g":
            n = len(d)
            return c / self.c((0,) * (n - 1) + (3 * workloads.genus(d) - 3 + n,))
        value = intersection_from_c(d, c)
        if norm == "u":
            value *= math.prod(_odd_df(2 * v + 1) for v in d)
        return value


def check_sweep(gmax: int, values: Dict[tuple, object], enumerated, reports) -> List[str]:
    bad = []
    for g in range(2, gmax + 1):
        ours = workloads.primitive_classes(g)
        if sorted(enumerated[g]) != ours or len(ours) != harness.partition_count(3 * g - 3):
            bad.append(f"primitive_vectors:{g}")
    for r in reports:
        g = r.genus
        ok = (
            r.nesting_ok
            and r.count == harness.partition_count(3 * g - 3)
            and tuple(r.min_vector) == (3 * g - 2,)
            and frac(r.min_value) == frac(closed.one_point_c(3 * g - 2))
            and tuple(r.max_vector) == (2,) * (3 * g - 3)
            and frac(r.max_value) == twos_c(g)
        )
        if not ok:
            bad.append(f"report:{g}")
    if [r.genus for r in reports] != list(range(2, gmax + 1)):
        bad.append("report:genera")
    for d, v in values.items():
        if len(d) <= 4 and frac(v) != closed_c(d):
            bad.append(f"c:{d}")
    return bad


def check_deep(values: Dict[tuple, object]) -> List[str]:
    bad = []
    for d, v in values.items():
        if len(d) <= 4:
            want = closed_c(d)
        elif set(d) == {2}:
            want = twos_c(workloads.genus(d))
        else:
            raise ValueError(f"deep vector {d} has no independent route")
        if frac(v) != want:
            bad.append(f"c:{d}")
    return bad


def check_formulas(inputs: dict, out: dict) -> List[str]:
    bad = []
    d1, d2 = inputs["two_point"]
    if frac(out["two_point_bdy"]) != intersection_from_c((d1, d2), frac(out["two_point_zograf"])):
        bad.append("two_point")
    # The n-point trace sum is the general formula the three- and four-point
    # ones specialize; check the timed values and a few small ones with it.
    for name, small in (("three_point", [(0, 2, 4), (2, 3, 4), (1, 5, 6)]),
                        ("four_point", [(0, 1, 2, 5), (2, 2, 3, 5), (2, 3, 4, 7)])):
        fn = getattr(closed, name)
        if frac(out[name]) != frac(closed.n_point(inputs[name])) or any(
            frac(fn(d)) != frac(closed.n_point(d)) for d in small
        ):
            bad.append(name)
    if frac(out["n_point"]) != frac(dvv.c_value(inputs["n_point"], dvv.MemoCache())):
        bad.append("n_point")
    gmax = inputs["painleve_genus"]
    if any(painleve.p1_residual(g) != 0 for g in list(range(1, 30)) + [gmax - 1]):
        bad.append("painleve_coeff")
    if not out["lemma6"][0]:
        bad.append("lemma6")
    return bad


def check_resume(inputs: dict, outputs: List[dict]) -> List[str]:
    """``outputs[i]`` is command i's parsed stdout (or None if it failed)."""
    oracle = Oracle()
    bad = []
    for i, (cmd, out) in enumerate(zip(inputs["commands"], outputs)):
        if out is None:
            bad.append(f"cmd:{i}")
            continue
        if cmd["kind"] == "table":
            want = workloads.primitive_classes(cmd["genus"])
            rows = out["rows"]
            ok = out["count"] == len(want) and sorted(
                tuple(map(int, r["d"].split(","))) for r in rows
            ) == want and all(
                Fraction(r["c"]) == oracle.c(tuple(map(int, r["d"].split(","))))
                for r in rows
            )
        else:
            ok = Fraction(out["value"]) == oracle.in_norm(cmd["d"], cmd["norm"])
        if not ok:
            bad.append(f"cmd:{i}")
    return bad
