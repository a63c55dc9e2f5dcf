"""The recursion engine for normalized psi-class intersection numbers.

The central object is ``C(d)``, a normalization of the intersection number
of psi-classes with exponent vector ``d = (d_1, ..., d_n)``:

    C(d) = 2^(2g) * prod_j (2 d_j + 1)!! / (3^(2g-2+n) * (2g-3+n)!) * I(d)

where ``I(d)`` is the integral of psi_1^{d_1}...psi_n^{d_n} over the moduli
space of genus-g stable curves with n markings, ``g = g(d) = 1 + (|d|-n)/3``.
``C`` stays O(1) in magnitude at large genus, which keeps the recursion's
intermediate values small.  Values are computed by the Dijkgraaf-Verlinde-
Verlinde (DVV) recursion written in C-form: expanding on a pivot entry d_1,

    C(d) = sum_{j>=2} (2 d_j + 1) / (3(X-1)) * C(..., d_j + d_1 - 1, ...)
         + sum_{a+b=d_1-2} [ 2/(3(X-1)) * C(a, b, rest)
              + sum_{I disjoint-union J = rest}
                (X(a,d_I)-1)! (X(b,d_J)-1)! / (6 (X-1)!) * C(a,d_I) C(b,d_J) ]

with X = X(d) = (1/3) sum (2 d_j + 1) = 2g - 2 + n, ordered pairs (a, b),
ordered subset splits, and base cases C(0,0,0) = 1/3, C(1) = 1/6.  Vectors
whose genus is not a non-negative integer have C = 0.

The pivot is chosen for speed: 1-entries are removed up front (the dilaton
specialization C(1, d) = C(d) is built into the canonical key), a 0-entry is
pivoted when present (the string specialization, which has no quadratic sum),
and otherwise the maximal entry is used.  Any pivot yields the same value.

Subset splits are enumerated per distinct sub-multiset with binomial
multiplicities rather than over raw index subsets, which is the same sum
term-for-term but exponentially cheaper on vectors with many repeats.
``multiset_splits`` is that enumerator; the identity checks in ``harness``
iterate it too.
"""

from __future__ import annotations

import math
import os
import sys
from itertools import product as _iproduct
from typing import Iterator, Optional, Sequence, Tuple

from .exact import Q, ZERO, odd_double_factorial, parse_rat, rat_str

DVec = Sequence[int]

_C_ZERO_ZERO_ZERO = Q(1, 3)
_C_ONE = Q(1, 6)


def x_of(d: DVec):
    """X(d) = (1/3) sum (2 d_j + 1), as an exact rational (= 2g - 2 + n)."""
    return Q(2 * sum(d) + len(d), 3)


def x_int(d: DVec) -> Optional[int]:
    """X(d) when integral, else None (integrality of X and of g coincide)."""
    t = 2 * sum(d) + len(d)
    return t // 3 if t % 3 == 0 else None


def genus_of(d: DVec) -> Optional[int]:
    """g(d) = 1 + (|d| - n)/3 when a non-negative integer, else None."""
    t = sum(d) - len(d)
    if t % 3 != 0:
        return None
    g = 1 + t // 3
    return g if g >= 0 else None


def canonical_tuple(d: DVec) -> tuple:
    """Sorted entries with 1-entries (dilaton) stripped.

    Stripping keeps at least one entry and is skipped entirely for n = 1,
    so the base case (1,) maps to itself: (3,1,2) -> (2,3), (1,1) -> (1,).
    """
    t = tuple(sorted(d))
    if len(t) >= 2 and t and t[-1] >= 1:
        stripped = tuple(v for v in t if v != 1)
        t = stripped if stripped else (1,)
    return t


class MemoCache:
    """Table from canonical tuples to exact C-values."""

    VERSION_LINE = "dvvcache v1"

    def __init__(self):
        self.table: dict = {}

    def __len__(self) -> int:
        return len(self.table)


_DEFAULT_CACHE = MemoCache()


def default_cache() -> MemoCache:
    """The process-wide memo shared by callers that do not pass their own."""
    return _DEFAULT_CACHE


def cache_save(cache: MemoCache, destination) -> None:
    """Write the cache as text: header line, then ``d_csv = p/q`` per entry.

    A path destination is replaced atomically: the table goes to a temporary
    file in the same directory, which is renamed over the target only once
    it is complete, so a failed save leaves the previous file as it was.
    """
    if not isinstance(destination, (str, bytes)):
        _write_table(cache, destination)
        return
    path = os.fsdecode(destination)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            _write_table(cache, fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _write_table(cache: MemoCache, fh) -> None:
    fh.write(MemoCache.VERSION_LINE + "\n")
    for key in sorted(cache.table):
        fh.write(",".join(map(str, key)) + " = " + rat_str(cache.table[key]) + "\n")


def cache_load(source) -> MemoCache:
    """Load a cache file, validating version, key canonicity and reduced values.

    Errors carry 1-based line numbers.
    """
    own = isinstance(source, (str, bytes))
    fh = open(source, "r", encoding="utf-8") if own else source
    try:
        cache = MemoCache()
        header = fh.readline().rstrip("\n")
        if header != MemoCache.VERSION_LINE:
            raise ValueError(f"line 1: bad version header {header!r}")
        for lineno, raw in enumerate(fh, start=2):
            line = raw.rstrip("\n")
            if not line:
                continue
            key_s, sep, val_s = line.partition(" = ")
            if not sep:
                raise ValueError(f"line {lineno}: malformed entry {line!r}")
            try:
                key = tuple(int(p) for p in key_s.split(","))
                value = parse_rat(val_s)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            if key != canonical_tuple(key):
                raise ValueError(f"line {lineno}: non-canonical key {key_s!r}")
            if key in cache.table:
                raise ValueError(f"line {lineno}: duplicate key {key_s!r}")
            cache.table[key] = value
        return cache
    finally:
        if own:
            fh.close()


def to_multiplicities(t: DVec) -> Tuple[tuple, tuple]:
    """The distinct values of ``t`` in increasing order, and their counts."""
    counts: dict = {}
    for v in t:
        counts[v] = counts.get(v, 0) + 1
    vals = tuple(sorted(counts))
    return vals, tuple(counts[v] for v in vals)


def from_multiplicities(vals: Sequence[int], mults: Sequence[int]) -> tuple:
    """Inverse of to_multiplicities: each value repeated by its count."""
    return tuple(v for v, m in zip(vals, mults) for _ in range(m))


def multiset_splits(mults: Sequence[int], groups: int = 2) -> Iterator[tuple]:
    """Every ordered split of a multiset into ``groups`` labelled parts.

    The multiset is given by its multiplicity vector: ``mults[i]`` copies of
    the i-th distinct value.  Yields ``(parts, ways)``: ``parts`` holds one
    multiplicity vector per group, summing entrywise to ``mults``, and

        ways = prod_i mults[i]! / (parts[0][i]! ... parts[groups-1][i]!)

    counts the index-subset splits that this multiset split stands for, so
    the ``ways`` over all splits sum to groups ** sum(mults).
    """
    if groups < 1:
        raise ValueError("multiset_splits needs groups >= 1")
    if groups == 1:
        yield (tuple(mults),), 1
        return
    comb = math.comb
    for takes in _iproduct(*(range(m + 1) for m in mults)):
        ways = 1
        for m, tk in zip(mults, takes):
            ways *= comb(m, tk)
        remaining = tuple(m - tk for m, tk in zip(mults, takes))
        for parts, more in multiset_splits(remaining, groups - 1):
            yield (takes,) + parts, ways * more


def _expand(t: tuple, pivot_pos: int, cache: MemoCache):
    """One DVV expansion of C(t) at the entry with index ``pivot_pos``.

    ``t`` must be geometric with X(t) >= 2 (not a base case).
    """
    X = x_int(t)
    assert X is not None and X >= 2
    p = t[pivot_pos]
    rest = t[:pivot_pos] + t[pivot_pos + 1 :]
    den_lin = 3 * (X - 1)
    vals, mults = to_multiplicities(rest)

    # Linear (merge) terms, grouped by distinct value in rest.
    lin_acc = ZERO
    for v, m in zip(vals, mults):
        merged = v + p - 1
        if merged < 0:
            continue  # only possible when p = 0, v = 0: that term vanishes
        idx = rest.index(v)
        child = rest[:idx] + (merged,) + rest[idx + 1 :]
        cv = c_value(child, cache)
        if cv:
            lin_acc += (m * (2 * v + 1)) * cv
    total = lin_acc / den_lin if lin_acc else ZERO

    if p < 2:
        return total

    # The splits of rest do not depend on (a, b): enumerate them once, each
    # with the 3X-weight of its left part, which fixes X of the left child.
    weights3 = [2 * v + 1 for v in vals]
    splits = [
        (sum(tk * w for tk, w in zip(left, weights3)), ways, left, right)
        for (left, right), ways in multiset_splits(mults)
    ]
    comb = math.comb
    quad_acc = ZERO
    # Quadratic terms: ordered pairs (a, b) with a + b = p - 2.
    for a in range(p - 1):
        b = p - 2 - a
        # Connected term.
        cv = c_value(rest + (a, b), cache)
        if cv:
            quad_acc += 2 * cv / den_lin
        # Separable terms over ordered sub-multiset splits of rest.
        for w3, ways, left, right in splits:
            s3 = 2 * a + 1 + w3
            if s3 % 3:
                continue
            x1 = s3 // 3
            x2 = X - 1 - x1
            if x2 < 1:
                continue
            c_left = c_value((a,) + from_multiplicities(vals, left), cache)
            if not c_left:
                continue
            c_right = c_value((b,) + from_multiplicities(vals, right), cache)
            if not c_right:
                continue
            quad_acc += (
                ways * c_left * c_right / (6 * x1 * x2 * comb(X - 1, x1))
            )
    return total + quad_acc


def c_value(d: DVec, cache: Optional[MemoCache] = None):
    """C(d), exactly; 0 when g(d) is not a non-negative integer.

    >>> c_value((4,)) == Q(35, 144)
    True
    """
    if cache is None:
        cache = _DEFAULT_CACHE
    t = canonical_tuple(d)
    g = genus_of(t)
    if g is None:
        return ZERO
    if t == (0, 0, 0):
        return _C_ZERO_ZERO_ZERO
    if t == (1,):
        return _C_ONE
    hit = cache.table.get(t)
    if hit is not None:
        return hit
    X = x_int(t)
    assert X is not None
    if X < 1:
        return ZERO
    # The recursion descends roughly one unit of sum(d) + len(d) per frame,
    # so a single large entry (or very many entries) can outrun the default
    # interpreter limit.  Only ever raise it, never lower.
    need = 3 * (sum(t) + len(t)) + 200
    if need > 900 and sys.getrecursionlimit() < need + 100:
        sys.setrecursionlimit(need + 100)
    # Pivot strategy: 0-entry if any (string step: no quadratic sum),
    # else the maximal entry.  t is sorted ascending.
    pivot_pos = 0 if t[0] == 0 else len(t) - 1
    value = _expand(t, pivot_pos, cache)
    cache.table[t] = value
    return value


def intersection_number(d: DVec, cache: Optional[MemoCache] = None):
    """The integral of psi_1^{d_1}...psi_n^{d_n}; 0 in non-geometric cases.

    >>> intersection_number((1,)) == Q(1, 24)
    True
    """
    g = genus_of(d)
    if g is None:
        return ZERO
    c = c_value(d, cache)
    if not c:
        return ZERO
    n = len(d)
    num = c * Q(3, 1) ** (2 * g - 2 + n) * math.factorial(2 * g - 3 + n)
    den = Q(4, 1) ** g
    for dj in d:
        den *= odd_double_factorial(2 * dj + 1)
    return num / den


def u_value(d: DVec, cache: Optional[MemoCache] = None):
    """prod (2 d_j + 1)!! times the intersection number."""
    val = intersection_number(d, cache)
    if not val:
        return ZERO
    for dj in d:
        val *= odd_double_factorial(2 * dj + 1)
    return val


def g_norm(d: DVec, cache: Optional[MemoCache] = None):
    """The DGZZ-normalized value G(d) = C(d) / C(0^(n-1), 3g-3+n).

    Tends to 1 at large genus.  Errors on non-geometric d (the normalization
    divides).
    """
    g = genus_of(d)
    if g is None:
        raise ValueError(f"undefined normalization: g({tuple(d)}) is not in Z>=0")
    n = len(d)
    denom_vec = (0,) * (n - 1) + (3 * g - 3 + n,)
    den = c_value(denom_vec, cache)
    if not den:
        raise ValueError(f"undefined normalization: C({denom_vec}) = 0")
    return c_value(d, cache) / den


def gamma_norm(X: int):
    """gamma(X): the X-dependent scale with C-hat(d) = C(d)/gamma(X(d)).

    For odd X the half-integer Gamma factors cancel and

        gamma(X) = (3X)!! / (2^((X+1)/2) * 3^((3X+1)/2) * ((X+1)/2)! * (X-1)!),

    an exact rational with gamma(2g-1) = C(3g-2).  For even X the value is
    an exact rational multiple of 1/(pi*sqrt(3)), which is irrational and
    not representable here, so even X is rejected.
    """
    if X < 1:
        raise ValueError(f"gamma_norm requires X >= 1, got {X}")
    if X % 2 == 0:
        raise ValueError(
            f"gamma({X}) is irrational (a rational multiple of 1/(pi*sqrt(3)));"
            " only odd X has an exact rational value"
        )
    num = odd_double_factorial(3 * X)
    den = (
        Q(2, 1) ** ((X + 1) // 2)
        * Q(3, 1) ** ((3 * X + 1) // 2)
        * math.factorial((X + 1) // 2)
        * math.factorial(X - 1)
    )
    return num / den


def chat_value(d: DVec, cache: Optional[MemoCache] = None):
    """C-hat(d) = C(d)/gamma(X(d)); identically 1 on one-point vectors.

    Errors on non-geometric d and (like gamma_norm) on even X(d).
    """
    g = genus_of(d)
    if g is None:
        raise ValueError(f"undefined normalization: g({tuple(d)}) is not in Z>=0")
    X = x_int(d)
    assert X is not None
    if X < 1:
        raise ValueError(f"chat_value requires X >= 1, got {X}")
    return c_value(d, cache) / gamma_norm(X)
