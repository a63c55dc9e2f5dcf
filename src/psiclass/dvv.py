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
``canonical_tuple``); each stripped 1 is put back by one dilaton factor.  A
vector with a negative entry is 0 (<... tau_{-1} ...> = 0) and is never
stored.  C leaves the module only through ``c_value``, which divides N by
6^g g! 3^X (X-1)! once, at the boundary; ``intersection_number`` and
``u_value`` divide N by their own scales in the same way.

The pivot is chosen for speed: a 0-entry when present (the string equation,
which has no quadratic sum), else the maximal entry.  Any pivot yields the
same value.

``n_value`` runs the recursion from an explicit stack of suspended
expansions, not the interpreter's, so a chain as deep as (0^k, k+1) needs
no recursion limit.  An expansion builds each child sorted, by ``bisect``
insertion, and reads the memo itself; only misses reach ``n_value``.  A
split child (1, part), the commonest child with a 1, is read as N(part)
times 3 X(part); any other holding a 1 misses, as no key holds one.

Subset splits are enumerated per distinct sub-multiset with binomial
multiplicities rather than over raw index subsets, which is the same sum
term-for-term but exponentially cheaper on vectors with many repeats.
``multiset_splits`` is that enumerator, also for ``harness``.  An expansion
buckets the splits of ``rest`` by the residue mod 3 of the left part's
3X-weight, so each ``a`` visits only splits whose left child has integral
X.  One table per ``rest``, held by the top-level ``n_value`` call and
dropped when it returns.

The memo file (format ``dvvcache v2``) is plain text: a header line with
the entry count and the SHA-256 of the body, then one ``key = N`` line per
entry in sorted key order, N in hexadecimal.  Older C-valued v1 files are
refused.
"""

from __future__ import annotations

import functools
import math
import os
import re
from bisect import bisect_right
from typing import Optional, Sequence, Tuple

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
    return _strip_ones(tuple(sorted(d)))


def _strip_ones(t: tuple) -> tuple:
    """A sorted tuple without its 1-entries, kept whole when n = 1."""
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


def multiset_splits(entries: DVec, groups: int = 2) -> list:
    """Every ordered split of a multiset into ``groups`` >= 2 labelled parts.

    Returns ``(parts, ways)`` pairs, ``parts`` one sorted tuple per group;
    ``ways`` = prod_v m_v! / (c_{0,v}! ... c_{groups-1,v}!), m_v copies of v
    with c_{j,v} in part j, counts the index-subset splits it stands for, so
    the ``ways`` sum to groups ** len(entries).  Two parts are built one
    distinct value at a time, the first part's share of the smallest value
    varying slowest; more parts split the second part again.
    """
    if groups < 2:
        raise ValueError("multiset_splits needs groups >= 2")
    t = sorted(entries)
    halves = [(((), ()), 1)]
    i = 0
    while i < len(t):
        v = t[i]
        m = bisect_right(t, v, i) - i
        i += m
        runs = [(v,) * c for c in range(m + 1)]
        shares = [(runs[c], runs[m - c], math.comb(m, c)) for c in range(m + 1)]
        halves = [
            ((first + x, rest + y), ways * w)
            for (first, rest), ways in halves
            for x, y, w in shares
        ]
    if groups == 2:
        return halves
    return [
        ((first,) + parts, ways * more)
        for (first, rest), ways in halves
        for parts, more in multiset_splits(rest, groups - 1)
    ]


def _split_table(rest: tuple) -> Tuple[list, list, list]:
    """The 2-part splits of ``rest`` as ``(w3, n_left, ways, left, right)``,
    bucketed by w3 mod 3, w3 = sum (2 v + 1) over left."""
    buckets: Tuple[list, list, list] = ([], [], [])
    for (left, right), ways in multiset_splits(rest):
        w3 = 2 * sum(left) + len(left)
        buckets[w3 % 3].append((w3, len(left), ways, left, right))
    return buckets


def _expand(t: tuple, pivot_pos: int, table: dict, splits: dict):
    """One DVV expansion of N(t) at ``t[pivot_pos]``, for sorted geometric t
    with X(t) >= 2.  A generator: each child is built sorted and read from
    ``table``; a miss is yielded, its N expected back.  Returns N(t).
    ``splits`` holds the ``_split_table`` of each ``rest`` met so far.
    """
    X = x_int(t)
    g = genus_of(t)
    assert X is not None and X >= 2 and g is not None
    get = table.get
    p = t[pivot_pos]
    rest = t[:pivot_pos] + t[pivot_pos + 1 :]

    # Linear (merge) terms, one per run of m equal entries v in rest.
    total = 0
    i = 0
    while i < len(rest):
        v = rest[i]
        m = bisect_right(rest, v, i) - i
        merged = v + p - 1
        if merged >= 0:  # else p = v = 0, and the term vanishes
            child = rest[:i] + rest[i + 1 :]
            k = bisect_right(child, merged)
            child = child[:k] + (merged,) + child[k:]
            n = get(child)
            if n is None:
                n = yield child
            total += m * (2 * v + 1) * n
        i += m
    if p < 2:
        return total

    # Quadratic terms: ordered pairs (a, b) with a + b = p - 2.  First the
    # connected ones, where (a, b) and (b, a) give the same child.
    connected = 0
    for a in range(p // 2):
        b = p - 2 - a
        k = bisect_right(rest, a)
        m = bisect_right(rest, b, k)
        child = rest[:k] + (a,) + rest[k:m] + (b,) + rest[m:]
        n = get(child)
        if n is None:
            n = yield child
        connected += n if a == b else 2 * n
    total += 12 * g * connected

    # The residue of a split's w3 fixes whether the left child has an
    # integral X, X1 = (2a + 1 + w3) / 3, so each a visits one bucket.
    buckets = splits.get(rest)
    if buckets is None:
        buckets = splits[rest] = _split_table(rest)
    comb = math.comb
    separable = 0
    for a in range(p - 1):
        b = p - 2 - a
        for w3, n_left, ways, left, right in buckets[-(2 * a + 1) % 3]:
            x1 = (2 * a + 1 + w3) // 3
            if x1 >= X - 1:
                continue  # X2 = X - 1 - X1 < 1
            # X1 = 2 g1 - 2 + (n_left + 1); the right child has genus g - g1.
            g1 = (x1 - n_left + 1) // 2
            if g1 < 0 or g1 > g:
                continue
            # A child (1, part) is read as part times the dilaton factor
            # 3 X(part), with X(left) = X1 - 1 and X(right) = X - 2 - X1.
            if a == 1 and left:
                child, f1 = left, 3 * x1 - 3
            else:
                k = bisect_right(left, a)
                child, f1 = left[:k] + (a,) + left[k:], 1
            n1 = get(child)
            if n1 is None:
                n1 = yield child
            if b == 1 and right:
                child, f2 = right, 3 * (X - 2 - x1)
            else:
                k = bisect_right(right, b)
                child, f2 = right[:k] + (b,) + right[k:], 1
            n2 = get(child)
            if n2 is None:
                n2 = yield child
            separable += ways * comb(g, g1) * f1 * f2 * n1 * n2
    half, odd = divmod(separable, 2)
    if odd:
        raise ArithmeticError(f"odd separable sum expanding {t} at {pivot_pos}")
    return total + half


def n_value(d: DVec, cache: Optional[MemoCache] = None) -> int:
    """N(d) = 24^g g! prod (2 d_j + 1)!! I(d), an integer; 0 off geometry
    and when an entry is negative.

    >>> n_value((4,)), n_value((1, 4))
    (945, 8505)
    """
    table = (_DEFAULT_CACHE if cache is None else cache).table
    splits: dict = {}  # the split tables of this call only
    stack = []  # suspended expansions: (generator, key, length asked)
    asked = tuple(sorted(d))
    while True:
        key = _strip_ones(asked) if 1 in asked else asked  # asked is sorted
        n = table.get(key)
        if n is None:
            off = genus_of(key) is None or x_int(key) < 1 or key[0] < 0
            n = 0 if off else _N_BASE.get(key)
        if n is None:  # a miss: the send below starts its expansion
            pivot_pos = 0 if key[0] == 0 else len(key) - 1  # a 0, else the largest
            stack.append((_expand(key, pivot_pos, table, splits), key, len(asked)))
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
    """C(d), exactly; 0 when g(d) is not a non-negative integer or an entry
    is negative.

    >>> c_value((4,)) == Q(35, 144)
    True
    """
    t = canonical_tuple(d)
    n = n_value(t, cache)
    return Q(n, _c_scale(genus_of(t), x_int(t))) if n else ZERO


def intersection_number(d: DVec):
    """The integral of psi_1^{d_1}...psi_n^{d_n}; 0 in non-geometric cases.

    >>> intersection_number((1,)) == Q(1, 24)
    True
    """
    u = u_value(d)
    return u / math.prod(odd_double_factorial(2 * dj + 1) for dj in d) if u else ZERO


def u_value(d: DVec):
    """prod (2 d_j + 1)!! times the intersection number."""
    n = n_value(d)
    g = genus_of(d)
    return Q(n, 24**g * math.factorial(g)) if n else ZERO


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
    h = (X + 1) // 2
    den = 2**h * 3 ** ((3 * X + 1) // 2) * math.factorial(h) * math.factorial(X - 1)
    return odd_double_factorial(3 * X) / den


def chat_value(d: DVec):
    """C-hat(d) = C(d)/gamma(X(d)); identically 1 on one-point vectors.

    Errors on non-geometric d and (like gamma_norm) on even X(d).
    """
    if genus_of(d) is None:
        raise ValueError(f"undefined normalization: g({tuple(d)}) is not in Z>=0")
    X = x_int(d)
    if X < 1:
        raise ValueError(f"chat_value requires X >= 1, got {X}")
    return c_value(d) / gamma_norm(X)
