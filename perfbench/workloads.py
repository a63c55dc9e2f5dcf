"""Seeded inputs for the four workloads.

This module never imports psiclass: the inputs are built by the benchmark
alone, so the program under test receives only generated data, and the
enumeration of primitive classes here is independent of
``psiclass.harness``.  The same seed always gives the same inputs; a
different seed changes the entries but never the size profile (genus and
entry-count histograms, command mix), so that runs on different seeds
measure the same amount of work.
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter
from typing import Dict, Iterator, List, Tuple

WORKLOADS = ("sweep", "deep", "formulas", "resume")

_HERE = os.path.dirname(os.path.abspath(__file__))

# Every size knob, per scale.  "full" is what the benchmark measures;
# "tiny" exists for the self-tests' smoke runs.
SIZES: Dict[str, Dict[str, object]] = {
    "full": {
        "sweep_gmax": 8,
        "deep_one_point_genus": 12,
        "deep_twos_genus": 9,
        "deep_band_genus": 10,
        "deep_per_count": 2,
        "two_point_genus": (180, 189),
        "two_point_small_sum": 62,
        "three_point_genus": (30, 33),
        "three_point_small_sum": 44,
        "four_point_genus": (20, 23),
        "four_point_small_sum": 30,
        "n_point_genus": (12, 13),
        "n_point_small_sum": 18,
        "painleve_genus": 300,
        "lemma6_xmax": 100,
        "resume_memo_gmax": 8,
        "resume_commands": 24,
        "resume_table_genera": (6, 7),
    },
    "tiny": {
        "sweep_gmax": 4,
        "deep_one_point_genus": 4,
        "deep_twos_genus": 3,
        "deep_band_genus": 4,
        "deep_per_count": 1,
        "two_point_genus": (8, 9),
        "two_point_small_sum": 4,
        "three_point_genus": (5, 6),
        "three_point_small_sum": 6,
        "four_point_genus": (4, 5),
        "four_point_small_sum": 6,
        "n_point_genus": (6, 7),
        "n_point_small_sum": 8,
        "painleve_genus": 20,
        "lemma6_xmax": 60,
        "resume_memo_gmax": 4,
        "resume_commands": 8,
        "resume_table_genera": (3, 4),
    },
}


# ----------------------------------------------------------------------
# Primitive classes, enumerated here rather than through psiclass.
# ----------------------------------------------------------------------


def _partitions(total: int, cap: int) -> Iterator[Tuple[int, ...]]:
    if total == 0:
        yield ()
        return
    for first in range(min(total, cap), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def primitive_classes(g: int) -> List[Tuple[int, ...]]:
    """Every sorted vector of entries >= 2 with genus g (one per multiset)."""
    m = 3 * g - 3
    return sorted(tuple(sorted(p + 1 for p in part)) for part in _partitions(m, m))


def genus(d) -> int:
    return 1 + (sum(d) - len(d)) // 3


# ----------------------------------------------------------------------
# Workload inputs.
# ----------------------------------------------------------------------


def sweep_inputs(seed: int, scale: str) -> dict:
    """Every primitive class of genus 2..G, in seed-shuffled order."""
    gmax = SIZES[scale]["sweep_gmax"]
    vectors = [d for g in range(2, gmax + 1) for d in primitive_classes(g)]
    random.Random(seed).shuffle(vectors)
    return {"gmax": gmax, "vectors": vectors}


def load_catalogue() -> dict:
    with open(os.path.join(_HERE, "deep_catalogue.json"), encoding="utf-8") as fh:
        return json.load(fh)


def deep_inputs(seed: int, scale: str) -> dict:
    """The one-point and all-twos vectors plus seed-chosen compositions.

    Compositions come from ``deep_catalogue.json``: per entry count, the
    compositions of the band genus whose cold reachable memo sits near the
    median, so the seed varies the entries but not the work.
    """
    size = SIZES[scale]
    rng = random.Random(seed)
    band = load_catalogue()["bands"][str(size["deep_band_genus"])]
    vectors = [
        (3 * size["deep_one_point_genus"] - 2,),
        (2,) * (3 * size["deep_twos_genus"] - 3),
    ]
    for n in sorted(band, key=int):
        picks = rng.sample(band[n], size["deep_per_count"])
        vectors += [tuple(entry["d"]) for entry in picks]
    return {"vectors": vectors}


def composition(rng: random.Random, total: int, parts: int, low: int) -> Tuple[int, ...]:
    """A random sorted composition of ``total`` into parts >= ``low``."""
    spare = total - parts * low
    cuts = sorted(rng.randint(0, spare) for _ in range(parts - 1))
    bounds = (0,) + tuple(cuts) + (spare,)
    return tuple(sorted(low + b - a for a, b in zip(bounds, bounds[1:])))


def _with_largest(rng, small_sum: int, parts: int, genus_band, n: int) -> Tuple[int, ...]:
    """Smaller entries summing to ``small_sum``, the largest set by the genus."""
    small = composition(rng, small_sum, parts, 1)
    g = rng.randint(*genus_band)
    return small + (3 * g - 3 + n - small_sum,)


def formulas_inputs(seed: int, scale: str) -> dict:
    """Arguments of the seeded closed-formula calls; the rest are fixed.

    Each closed formula's cost is set by its smaller entries (they bound
    the trace window), so those are drawn with a fixed sum and only their
    split and the genus, within a narrow band, vary with the seed.  The
    bands keep the largest entry at least the smaller entries' sum.
    """
    size = SIZES[scale]
    rng = random.Random(seed)
    return {
        "two_point": _with_largest(
            rng, size["two_point_small_sum"], 1, size["two_point_genus"], 2
        ),
        "three_point": _with_largest(
            rng, size["three_point_small_sum"], 2, size["three_point_genus"], 3
        ),
        "four_point": _with_largest(
            rng, size["four_point_small_sum"], 3, size["four_point_genus"], 4
        ),
        "n_point": _with_largest(
            rng, size["n_point_small_sum"], 4, size["n_point_genus"], 5
        ),
        "painleve_genus": size["painleve_genus"],
        "lemma6_xmax": size["lemma6_xmax"],
    }


def resume_inputs(seed: int, scale: str) -> dict:
    """A CLI session against a memo file swept to genus G.

    The mix is a fixed template of (kind, genus, entry count) slots; the
    seed picks each slot's vector and the order of the commands:

    * ``hit``: ``compute`` of a class of genus <= G, served from the memo
      (one of them carries an extra 1-entry, the dilaton path);
    * ``norm``: the same with ``--norm int``, ``u`` or ``g``;
    * ``table``: ``table --genus g`` for g in the fixed genus list;
    * ``extend``: ``compute`` of a class of genus G + 1, which extends the
      memo and saves it again.
    """
    size = SIZES[scale]
    gm = size["resume_memo_gmax"]
    total = size["resume_commands"]
    rng = random.Random(seed)
    tables = list(size["resume_table_genera"])
    n_extend = total // 6
    n_norm = total // 4
    n_hit = total - len(tables) - n_extend - n_norm

    def pick(g: int, n: int) -> Tuple[int, ...]:
        return rng.choice([d for d in primitive_classes(g) if len(d) == n])

    def shape(i: int, g: int) -> Tuple[int, int]:
        # Genus cycles down from G; entry count cycles through 3..5, capped
        # by the most entries a primitive class of that genus can have.
        return g, min(3 + i % 3, 3 * g - 3)

    commands = []
    for i in range(n_hit):
        d = pick(*shape(i, gm - i % 3))
        if i == 0:
            d = d + (1,)
        commands.append({"kind": "hit", "d": d, "norm": "c"})
    norms = ("int", "u", "g")
    for i in range(n_norm):
        d = pick(*shape(i, gm - i % 2))
        commands.append({"kind": "norm", "d": d, "norm": norms[i % 3]})
    for g in tables:
        commands.append({"kind": "table", "genus": g})
    for i in range(n_extend):
        commands.append({"kind": "extend", "d": pick(*shape(i, gm + 1)), "norm": "c"})
    rng.shuffle(commands)
    return {"memo_gmax": gm, "commands": commands}


def make_inputs(workload: str, seed: int, scale: str = "full") -> dict:
    return {
        "sweep": sweep_inputs,
        "deep": deep_inputs,
        "formulas": formulas_inputs,
        "resume": resume_inputs,
    }[workload](seed, scale)


def size_profile(workload: str, inputs: dict) -> dict:
    """What must not depend on the seed: histograms of the work's size."""
    if workload in ("sweep", "deep"):
        vecs = inputs["vectors"]
        return {
            "genus": sorted(Counter(genus(d) for d in vecs).items()),
            "entries": sorted(Counter(len(d) for d in vecs).items()),
        }
    if workload == "formulas":
        # The genus of each call varies within its band; the entry count
        # and the smaller entries' sum, which set the cost, do not.
        return {
            name: (len(inputs[name]), sum(sorted(inputs[name])[:-1]))
            for name in ("two_point", "three_point", "four_point", "n_point")
        } | {"fixed": (inputs["painleve_genus"], inputs["lemma6_xmax"])}
    cmds = inputs["commands"]
    return {
        "memo_gmax": inputs["memo_gmax"],
        "mix": sorted(Counter(c["kind"] for c in cmds).items()),
        "norms": sorted(Counter(c.get("norm") for c in cmds).items(), key=str),
        "genus": sorted(
            Counter(c["genus"] if c["kind"] == "table" else genus(c["d"]) for c in cmds).items()
        ),
        "entries": sorted(Counter(len(c["d"]) for c in cmds if "d" in c).items()),
    }
