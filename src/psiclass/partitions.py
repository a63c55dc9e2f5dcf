"""Integer partitions: the primitive classes of each genus and their count.

Subtracting 1 from every entry of a primitive vector (all entries >= 2) of
genus g gives a partition of 3g-3, so one generator serves the nesting
sweep and the zero-insertion family; with a fixed number of parts it also
gives the theta extremes and the n-point vectors of the cross-formula
drives.  The generator is iterative, in decreasing lexicographic order.
Colex order of the primitive classes' multiplicity vectors is the reverse
of that order, so primitive_vectors needs no sort.  The count is
cross-checked against the pentagonal-number recurrence, which never
touches the generator's code path.  Standard library only, so a command
that lists the primitive classes loads nothing else.
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


def partitions(total: int, parts: Optional[int] = None) -> Iterator[Tuple[int, ...]]:
    """Partitions of ``total`` as nonincreasing tuples of parts >= 1, in
    decreasing lexicographic order; ``parts`` fixes their number.

    The generator steps one list from each partition to the next, so it
    needs no stack however many parts a partition has.

    >>> list(partitions(6, parts=3))
    [(4, 1, 1), (3, 2, 1), (2, 2, 2)]
    """
    if total <= 0 or parts == 0:
        if total == 0 and not parts:
            yield ()
        return
    if parts is None:
        lam, left, v = [], total, total
        while True:
            # Fill greedily: parts of v, then what is left.
            q, r = divmod(left, v)
            lam += [v] * q
            if r:
                lam.append(r)
            yield tuple(lam)
            # Lower the rightmost part above 1; what follows it is refilled.
            ones = lam.count(1)
            if ones == len(lam):
                return
            del lam[len(lam) - ones :]
            v = lam[-1] = lam[-1] - 1
            left = ones + 1
    if not 0 < parts <= total:
        return
    lam, left, k, v = [], total, parts, total
    while True:
        # The lexicographically largest fill of k parts of at most v:
        # parts of v, one part between, then ones.
        q, r = divmod(left - k, v - 1) if v > 1 else (0, 0)
        lam += [v] * q
        if q < k:
            lam.append(r + 1)
            lam += [1] * (k - q - 1)
        yield tuple(lam)
        # Lower the rightmost part whose k followers can take up the unit
        # it gives up without exceeding its new size; they are refilled.
        left, i = 1, parts - 1
        while True:
            left += lam[i]
            i -= 1
            if i < 0:
                return
            v = lam[i] - 1
            k = parts - 1 - i
            if left <= k * v:
                break
        lam[i] = v
        del lam[i + 1 :]


def primitive_vectors(g: int) -> List[Tuple[int, ...]]:
    """All primitive d (entries >= 2) of genus g, one per multiset, in
    colexicographic order of multiplicity vectors.

    The bijection: subtracting 1 from every entry of a primitive genus-g
    vector gives a partition of 3g-3, so the list has p(3g-3) members.
    Colex order of multiplicities is increasing lex order of the partitions
    as nonincreasing tuples, the reverse of ``partitions``' order: no sort.
    """
    if g < 2:
        raise ValueError("genus must be at least 2")
    vectors = [tuple([v + 1 for v in reversed(p)]) for p in partitions(3 * g - 3)]
    vectors.reverse()
    return vectors
