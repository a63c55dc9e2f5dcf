"""Regenerate ``deep_catalogue.json``, the composition bands of ``deep``.

The cold cost of one DVV query at a fixed genus and entry count still
varies by about a factor of two with the composition, so a seed that drew
freely would move ``deep``'s wall time by more than a regression bound.
This script samples compositions of each band genus, times each cold in
its own memo in units of the reference loop (median of five), and keeps,
for each entry count, the ones whose cost is nearest the median.  ``deep``
then lets the seed choose among those.  Run from the repository root:

    PYTHONPATH=src python3 perfbench/catalogue.py > perfbench/deep_catalogue.json
"""

from __future__ import annotations

import json
import random
import statistics
import time

from psiclass import dvv

import workloads
from reference import reference_seconds

GENERA = (4, 10)  # the tiny and the full scale
ENTRY_COUNTS = (2, 3, 4)
SAMPLES = 30
KEEP = 6


def _cost(d: tuple) -> float:
    """Cold evaluation time of C(d) over the reference slice's time."""
    before = reference_seconds()
    t0 = time.perf_counter()
    dvv.c_value(d, dvv.MemoCache())
    elapsed = time.perf_counter() - t0
    return elapsed / ((before + reference_seconds()) / 2)


def main() -> None:
    rng = random.Random(20260317)
    bands = {str(g): band(rng, g) for g in GENERA}
    print(json.dumps({"bands": bands}, indent=1))


def band(rng: random.Random, genus: int) -> dict:
    out = {}
    for n in ENTRY_COUNTS:
        total = 3 * genus - 3 + n
        seen = {}
        for _ in range(10 * SAMPLES):
            if len(seen) == SAMPLES:
                break
            d = workloads.composition(rng, total, n, 0)
            if d in seen:
                continue
            seen[d] = statistics.median(_cost(d) for _ in range(5))
        median = statistics.median(seen.values())
        kept = sorted(seen, key=lambda d: (abs(seen[d] - median), d))[:KEEP]
        out[str(n)] = [{"d": list(d), "cost_ref": round(seen[d], 4)} for d in sorted(kept)]
    return out


if __name__ == "__main__":
    main()
