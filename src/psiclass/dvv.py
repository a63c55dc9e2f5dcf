"""The recursion engine for psi-class intersection numbers.

Write ``I(d)`` for the integral of psi_1^{d_1}...psi_n^{d_n} over the moduli
space of genus-g stable curves with n markings, where

    g = g(d) = 1 + (|d| - n)/3,    X = X(d) = (1/3) sum (2 d_j + 1) = 2g - 2 + n.

Vectors whose genus is not a non-negative integer have I = 0.  Two
normalizations of ``I`` meet in this module.

The public face is ``C(d)``, which stays O(1) in magnitude at large genus:

    C(d) = 2^(2g) prod_j (2 d_j + 1)!! / (3^X (X-1)!) * I(d).

The engine recurses on the integer normalization of Liu and Xu ("The n-point
functions for intersection numbers on moduli spaces of curves"),

    N(d) = 24^g g! prod_j (2 d_j + 1)!! I(d) = 6^g g! 3^X (X-1)! C(d),

on which the Dijkgraaf-Verlinde-Verlinde (DVV) recursion has integer
coefficients, so no rational is built on the way.  Expanding on a pivot
entry p = d_1, with rest = (d_2, ..., d_n):

    N(d) = sum_{j>=2} (2 d_j + 1) N(rest with d_j replaced by d_j + p - 1)
         + sum_{a+b=p-2} [ 12 g N(a, b, rest)
              + 1/2 sum_{I disjoint-union J = rest}
                    binom(g, g(a, d_I)) N(a, d_I) N(b, d_J) ]

over ordered pairs (a, b) and ordered subset splits.  The separable sum is
even, being symmetric under swapping (a, I) with (b, J); the division is
checked to be exact.  The base cases are N(0,0,0) = 1 and N(1) = 3, and the
dilaton equation reads N(1, d) = 3 X(d) N(d).

The memo holds N on canonical keys: sorted, with 1-entries stripped (see
``canonical_tuple``); each stripped 1 is put back by one dilaton factor.  C
leaves the module only through ``c_value``, which divides N by
6^g g! 3^X (X-1)! once, at the boundary; ``intersection_number`` and
``u_value`` divide N by their own scales in the same way.

The pivot is chosen for speed: a 0-entry when present (the string equation,
which has no quadratic sum), else the maximal entry.  Any pivot yields the
same value.

``n_value`` runs the recursion from an explicit stack of suspended
expansions, not the interpreter's, so a chain as deep as (0^k, k+1) needs
no recursion limit and the limit is never read or changed.

Subset splits are enumerated per distinct sub-multiset with binomial
multiplicities rather than over raw index subsets, which is the same sum
term-for-term but exponentially cheaper on vectors with many repeats.
``multiset_splits`` is that enumerator; the identity checks in ``harness``
iterate it too.  An expansion enumerates the splits of ``rest`` once and
buckets them by the residue mod 3 of their left part's 3X-weight, so each
``a`` visits only the splits whose left child has an integral X.

The memo file (format ``dvvcache v2``) is plain text: a header line with
the entry count and the SHA-256 of the body, then one ``key = N`` line per
entry in sorted key order, N in hexadecimal.  Files of the older C-valued v1 format are
refused.
"""

from __future__ import annotations

import functools
import math
import os
import re
from itertools import product as _iproduct
from typing import Iterator, Optional, Sequence, Tuple

from .exact import Q, ZERO, odd_double_factorial

DVec = Sequence[int]

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
    if len(t) >= 2 and 1 in t:
        i = t.index(1)
        t = t[:i] + t[i + t.count(1) :] or (1,)
    return t


@functools.lru_cache(maxsize=None)
def _c_scale(g: int, X: int) -> int:
    """N/C = 6^g g! 3^X (X-1)!, the factor crossed at the C boundary."""
    return 6**g * math.factorial(g) * 3**X * math.factorial(X - 1)


# The base cases N(0,0,0) = 1 and N(1) = 3, the latter the image of
# C(1) = 1/6, the base value as the C-form literature states it.
_C_ONE = Q(1, 6)
_N_BASE = {(0, 0, 0): 1, (1,): int(_C_ONE * _c_scale(1, 1))}


class MemoCache:
    """Table from canonical tuples to the integers N."""

    FORMAT = "dvvcache v2"

    def __init__(self):
        self.table: dict = {}

    def __len__(self) -> int:
        return len(self.table)


_DEFAULT_CACHE = MemoCache()


def default_cache() -> MemoCache:
    """The process-wide memo shared by callers that do not pass their own."""
    return _DEFAULT_CACHE


def cache_save(cache: MemoCache, destination) -> None:
    """Write the cache as text: a header line, then ``d_csv = N`` per entry.

    N is written in lower-case hexadecimal, which Python converts in linear
    time and without the 4300-digit cap on decimal conversion (N(0^n, n+1)
    has more than 4300 decimal digits from n = 1422 on).  The header is
    ``dvvcache v2 entries=<count> sha256=<hex digest of the body>``.  The
    whole text is built before anything is written, so a table holding
    anything but positive integers raises TypeError and writes nothing.

    A path destination is replaced atomically: the text goes to a temporary
    file in the same directory, which is renamed over the target only once
    it is complete, so a failed save leaves the previous file as it was.
    """
    text = _table_text(cache)
    if not isinstance(destination, (str, bytes)):
        destination.write(text)
        return
    path = os.fsdecode(destination)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _table_text(cache: MemoCache) -> str:
    lines = []
    for key in sorted(cache.table):
        value = cache.table[key]
        if type(value) is not int or value <= 0:
            raise TypeError(
                f"memo value for {key} is not a positive integer: {value!r}"
            )
        lines.append(f"{','.join(map(str, key))} = {value:x}\n")
    body = "".join(lines)
    return f"{MemoCache.FORMAT} entries={len(lines)} sha256={_sha256(body)}\n{body}"


def _sha256(body: str) -> str:
    # Imported on first use: hashlib loads OpenSSL, about 4 ms that every
    # ``import psiclass`` would pay, while only memo files need it.
    import hashlib

    return hashlib.sha256(body.encode()).hexdigest()


_HEADER = re.compile(r"dvvcache v2 entries=(\d+) sha256=([0-9a-f]{64})")
_HEX = re.compile(r"[1-9a-f][0-9a-f]*")


def cache_load(source) -> MemoCache:
    """Load a ``dvvcache v2`` file, rejecting anything a save cannot write.

    Checked in order: the header (a v1 file is refused by name), the entry
    count and the body hash it states, then per entry a canonical key of an
    expandable geometric vector (X >= 2), a positive hexadecimal integer
    value, and no duplicate key.  Errors are ValueErrors that start
    ``line N:``, with the 1-based line number.
    """
    own = isinstance(source, (str, bytes))
    fh = open(source, "r", encoding="utf-8") if own else source
    try:
        text = fh.read()
    finally:
        if own:
            fh.close()
    header, _, body = text.partition("\n")
    if header.startswith("dvvcache v1"):
        raise ValueError(
            "line 1: a dvvcache v1 file, which holds C values; psiclass now"
            " stores integer N values (dvvcache v2) and no longer reads v1"
            " files: delete it and let the next run rebuild it"
        )
    head = _HEADER.fullmatch(header)
    if head is None:
        raise ValueError(f"line 1: bad version header {header[:80]!r}")
    lines = body.split("\n")
    if lines.pop() != "":
        raise ValueError(f"line {len(lines) + 2}: the file does not end in a newline")
    if len(lines) != int(head.group(1)):
        raise ValueError(
            f"line 1: the header counts {head.group(1)} entries,"
            f" the body has {len(lines)}"
        )
    if _sha256(body) != head.group(2):
        raise ValueError("line 1: the body does not match the header's SHA-256")
    cache = MemoCache()
    for lineno, line in enumerate(lines, start=2):
        key_s, sep, val_s = line.partition(" = ")
        try:
            if not sep:
                raise ValueError(f"malformed entry {line[:80]!r}")
            key = tuple(int(p) for p in key_s.split(","))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if ",".join(map(str, canonical_tuple(key))) != key_s:
            raise ValueError(f"line {lineno}: non-canonical key {key_s!r}")
        if min(key) < 0 or genus_of(key) is None or x_int(key) < 2:
            raise ValueError(
                f"line {lineno}: key {key_s!r} is not a geometric vector with X >= 2"
            )
        if not _HEX.fullmatch(val_s):
            raise ValueError(
                f"line {lineno}: value {val_s[:80]!r} is not a positive hex integer"
            )
        if key in cache.table:
            raise ValueError(f"line {lineno}: duplicate key {key_s!r}")
        cache.table[key] = int(val_s, 16)
    return cache


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


def _expand(t: tuple, pivot_pos: int):
    """One DVV expansion of N(t) at the entry with index ``pivot_pos``.

    A generator: it yields each child vector whose N it needs, expects that
    N sent back, and returns N(t).  ``t`` must be geometric with X(t) >= 2
    (not a base case); it need not be sorted or free of 1-entries.
    """
    X = x_int(t)
    g = genus_of(t)
    assert X is not None and X >= 2 and g is not None
    p = t[pivot_pos]
    rest = t[:pivot_pos] + t[pivot_pos + 1 :]
    vals, mults = to_multiplicities(rest)

    # Linear (merge) terms, grouped by distinct value in rest.
    total = 0
    for v, m in zip(vals, mults):
        merged = v + p - 1
        if merged < 0:
            continue  # only possible when p = 0, v = 0: that term vanishes
        idx = rest.index(v)
        child = rest[:idx] + (merged,) + rest[idx + 1 :]
        total += m * (2 * v + 1) * (yield child)

    if p < 2:
        return total

    # Quadratic terms: ordered pairs (a, b) with a + b = p - 2.  First the
    # connected ones.
    connected = 0
    for a in range(p - 1):
        connected += yield rest + (a, p - 2 - a)
    total += 12 * g * connected

    # The splits of rest do not depend on (a, b): enumerate them once,
    # bucketed by the residue of their left part's 3X-weight w3, which
    # fixes X of the left child, X1 = (2a + 1 + w3) / 3.
    weights3 = [2 * v + 1 for v in vals]
    by_residue: Tuple[list, list, list] = ([], [], [])
    for (left, right), ways in multiset_splits(mults):
        w3 = sum(tk * w for tk, w in zip(left, weights3))
        left_t = from_multiplicities(vals, left)
        right_t = from_multiplicities(vals, right)
        by_residue[w3 % 3].append((w3, len(left_t), ways, left_t, right_t))
    comb = math.comb
    separable = 0
    for a in range(p - 1):
        b = p - 2 - a
        for w3, n_left, ways, left, right in by_residue[-(2 * a + 1) % 3]:
            x1 = (2 * a + 1 + w3) // 3
            if x1 >= X - 1:
                continue  # X2 = X - 1 - X1 < 1
            # X1 = 2 g1 - 2 + (n_left + 1); the right child has genus g - g1.
            g1 = (x1 - n_left + 1) // 2
            if g1 < 0 or g1 > g:
                continue
            separable += (
                ways
                * comb(g, g1)
                * (yield (a,) + left)
                * (yield (b,) + right)
            )
    half, odd = divmod(separable, 2)
    if odd:
        raise ArithmeticError(f"odd separable sum expanding {t} at {pivot_pos}")
    return total + half


def n_value(d: DVec, cache: Optional[MemoCache] = None) -> int:
    """N(d) = 24^g g! prod (2 d_j + 1)!! I(d), an integer; 0 off geometry.

    >>> n_value((4,)), n_value((1, 4))
    (945, 8505)
    """
    table = (_DEFAULT_CACHE if cache is None else cache).table
    stack = []  # suspended expansions: (generator, key, length asked)
    asked = d
    while True:
        key = canonical_tuple(asked)
        n = table.get(key)
        if n is None:
            n = 0 if genus_of(key) is None or x_int(key) < 1 else _N_BASE.get(key)
        if n is None:  # a miss: the send below starts its expansion
            pivot_pos = 0 if key[0] == 0 else len(key) - 1  # a 0, else the largest
            stack.append((_expand(key, pivot_pos), key, len(asked)))
        length = len(asked)
        # Hand n to the caller, or to the waiting expansion; an expansion
        # that returns completes its own key, which is handed on in turn.
        while True:
            if n and length > len(key):
                # Dilaton: each stripped 1 multiplies by 3X of the vector it joins.
                x = x_int(key)
                for i in range(length - len(key)):
                    n *= 3 * (x + i)
            if not stack:
                return n
            try:
                asked = stack[-1][0].send(n)
                break
            except StopIteration as done:
                _, key, length = stack.pop()
                n = table[key] = done.value


def c_value(d: DVec, cache: Optional[MemoCache] = None):
    """C(d), exactly; 0 when g(d) is not a non-negative integer.

    >>> c_value((4,)) == Q(35, 144)
    True
    """
    t = canonical_tuple(d)
    n = n_value(t, cache)
    if not n:
        return ZERO
    return Q(n, _c_scale(genus_of(t), x_int(t)))


def intersection_number(d: DVec):
    """The integral of psi_1^{d_1}...psi_n^{d_n}; 0 in non-geometric cases.

    >>> intersection_number((1,)) == Q(1, 24)
    True
    """
    g = genus_of(d)
    if g is None:
        return ZERO
    n = n_value(d)
    if not n:
        return ZERO
    double_factorials = math.prod(odd_double_factorial(2 * dj + 1) for dj in d)
    return Q(n) / (24**g * math.factorial(g) * double_factorials)


def u_value(d: DVec):
    """prod (2 d_j + 1)!! times the intersection number."""
    g = genus_of(d)
    if g is None:
        return ZERO
    n = n_value(d)
    if not n:
        return ZERO
    return Q(n, 24**g * math.factorial(g))


def g_norm(d: DVec):
    """The DGZZ-normalized value G(d) = C(d) / C(0^(n-1), 3g-3+n).

    Tends to 1 at large genus.  Errors on non-geometric d (the normalization
    divides).
    """
    g = genus_of(d)
    if g is None:
        raise ValueError(f"undefined normalization: g({tuple(d)}) is not in Z>=0")
    n = len(d)
    denom_vec = (0,) * (n - 1) + (3 * g - 3 + n,)
    den = c_value(denom_vec)
    if not den:
        raise ValueError(f"undefined normalization: C({denom_vec}) = 0")
    return c_value(d) / den


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


def chat_value(d: DVec):
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
    return c_value(d) / gamma_norm(X)
