"""Integer partitions: the primitive classes of each genus and their count.

Subtracting 1 from every entry of a primitive vector (all entries >= 2) of
genus g gives a partition of 3g-3, so one generator serves the nesting
sweep and the zero-insertion family; with a fixed number of parts it also
gives the theta extremes and the n-point vectors of the cross-formula
drives.  The count is cross-checked against the pentagonal-number
recurrence, which never touches the generator's code path.  Standard
library only, so a command that lists the primitive classes loads nothing
else.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple


def partition_count(n: int) -> int:
    """p(n) by Euler's pentagonal-number recurrence (independent of the
    enumerator below, so it can serve as its oracle).

    >>> [partition_count(n) for n in range(8)]
    [1, 1, 2, 3, 5, 7, 11, 15]
    """
    if n < 0:
        raise ValueError("partition_count needs n >= 0")
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= m:
                total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p[n]


def partitions(
    total: int, parts: Optional[int] = None, max_part: Optional[int] = None
) -> Iterator[Tuple[int, ...]]:
    """Partitions of ``total`` as nonincreasing tuples of parts >= 1, in
    decreasing lexicographic order; ``parts`` fixes their number and
    ``max_part`` caps the largest.

    >>> list(partitions(6, parts=3))
    [(4, 1, 1), (3, 2, 1), (2, 2, 2)]
    """
    if total == 0 or parts == 0:
        if total == 0 and not parts:
            yield ()
        return
    if max_part is None or max_part > total:
        max_part = total
    lo, rest = 1, None
    if parts is not None:
        # The largest part is at least the mean and leaves room for
        # parts - 1 further parts of size >= 1.
        lo, rest = -(-total // parts), parts - 1
        max_part = min(max_part, total - rest)
    for first in range(max_part, lo - 1, -1):
        for tail in partitions(total - first, rest, first):
            yield (first,) + tail


def _colex_key(parts: Tuple[int, ...], span: int) -> Tuple[int, ...]:
    mult = [0] * (span + 1)
    for v in parts:
        mult[v] += 1
    return tuple(reversed(mult))


def primitive_vectors(g: int) -> List[Tuple[int, ...]]:
    """All primitive d (entries >= 2) of genus g, one per multiset, in
    colexicographic order of multiplicity vectors.

    The bijection: subtracting 1 from every entry of a primitive genus-g
    vector gives a partition of 3g-3, so the list has p(3g-3) members.
    """
    if g < 2:
        raise ValueError("genus must be at least 2")
    m = 3 * g - 3
    parts_list = [tuple(v + 1 for v in reversed(p)) for p in partitions(m)]
    parts_list.sort(key=lambda t: _colex_key(t, m + 1))
    return parts_list
