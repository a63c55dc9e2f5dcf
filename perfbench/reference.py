"""A fixed pure-Python yardstick for how fast the host runs right now.

The benchmark's host is a small shared virtual machine whose speed drifts
by a factor of up to 1.7 within seconds, with the work held fixed.  So the
timed phase of every repetition stops its clock about every 0.1 s, between
two operations, and runs one slice of this loop.  The phase's wall time
(slices excluded) divided by the mean slice time is ``wall_ref``: the
program's time in units of a loop that ran on the same host at the same
moments.  The loop never calls psiclass, so a change to the program cannot
move it; its mix (rationals of about 90 bits, sorted tuples as dict keys)
follows what the DVV recursion does.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

ITERATIONS = 1_000

# The slice time taken as the host's nominal speed: about the median slice
# time over the baseline runs.  Set-up is reported in seconds at this
# speed (see run.py); being a constant, it cancels when two commits are
# compared.
NOMINAL_SLICE_S = 0.0115


def reference_seconds() -> float:
    """Wall time of one slice of the fixed loop (about 15 ms)."""
    rng = random.Random(20260317)
    memo = {}
    acc = Fraction(0)
    mask = (1 << 120) - 1
    t0 = time.perf_counter()
    for i in range(1, ITERATIONS):
        key = tuple(sorted(rng.randrange(8) for _ in range(6)))
        a = Fraction(rng.getrandbits(90) + 1, rng.getrandbits(90) + 1)
        b = memo.get(key)
        if b is None:
            memo[key] = a
        else:
            acc += a * b / (i + 1)
            acc = Fraction(acc.numerator & mask, (acc.denominator & mask) + 1)
    return time.perf_counter() - t0
