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

over ordered pairs (a, b) and ordered subset splits.  The separable term
of (a, I, J) equals that of (b, J, I), so the engine sums a <= b only: each
a < b term once, with the 1/2 spent on its mirror, and the a = b part,
whose splits pair off as (I, J) and (J, I), halved; that division is
checked to be exact.  The base cases are N(0,0,0) = 1 and N(1) = 3, and the
dilaton equation reads N(1, d) = 3 X(d) N(d).

The memo holds N on canonical keys: sorted, with 1-entries stripped (see
``canonical_tuple``); each stripped 1 is put back by one dilaton factor.  A
vector with a negative entry is 0 (<... tau_{-1} ...> = 0) and is never
stored.  C leaves the module only through ``c_value``, which divides N by
6^g g! 3^X (X-1)! once, at the boundary; ``intersection_number`` and
``u_value`` divide N by their own scales in the same way.

The table is keyed on each key's multiplicity code K(t) = sum_j 2^(16 t_j),
whose 16-bit digit v counts the copies of v, so each child of an expansion
is an integer sum: a merge child is rest - 2^(16 v) + 2^(16 (v + p - 1)),
a connected child rest + 2^(16 a) + 2^(16 b), and the children of a split
with left part code L are L + 2^(16 a) and (rest - L) + 2^(16 b).  The
codes stay inside this module: ``MemoCache`` reads and writes entries by
tuple, and the memo file holds tuples.  A key of X reaches only keys of at
most X + 3 entries, so ``n_value`` refuses a key with X + 3 >= 2^16 before
it stores anything, and no digit overflows.

Any pivot yields the same value; ``_pivot`` picks one for speed: a
0-entry when present (the string equation, which has no quadratic sum),
else the smallest entry above 2, else a 2 (the key is all twos).  A large
pivot beside small entries fans out into many deep children, and a
repeated 2 as pivot merges into 3s that pile up; this rule avoids both.

``n_value`` runs the recursion from an explicit stack of suspended
expansions, not the interpreter's, so a chain as deep as (0^k, k+1) needs
no recursion limit.  It strips the 1s of its argument once, at entry.  An
expansion reads the memo itself; only misses reach ``n_value``.  Every
child that holds a 1 (a merge to 1, a connected child with a = 1 or b = 1,
a split child (1, part)) is read there as its part without the 1 times
3 X(part), so no key with a 1 reaches ``n_value``.

Subset splits are enumerated per distinct sub-multiset with binomial
multiplicities rather than over raw index subsets, which is the same sum
term-for-term but exponentially cheaper on vectors with many repeats.
``_two_part_splits`` is that enumerator; it carries each left part's code,
3X-weight and length as the parts grow, and ``multiset_splits`` (also for
``harness``) decodes its parts.  An expansion buckets the splits of
``rest`` by the residue mod 3 of that weight, so each ``a`` visits only
splits whose left child has integral X.  Each expansion builds the table of
its own ``rest``, which lives as long as that expansion; the share lists
it is built from are kept for one ``n_value`` call.

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
import sys
from array import array
from bisect import bisect_right
from itertools import compress
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
    t = tuple(sorted(d))
    if len(t) >= 2 and 1 in t:
        i = t.index(1)
        t = t[:i] + t[i + t.count(1) :] or (1,)
    return t


# A multiset t is coded as K(t) = sum_j 2^(16 t_j): the 16-bit digit v
# counts the copies of v.  A key with X + 3 < 2^16 reaches only keys of at
# most X + 3 entries, so no digit carries.
_DIGIT = 16


def _encode(t: DVec) -> int:
    """The multiplicity code of the entries ``t``."""
    code = 0
    for v in t:
        code += 1 << _DIGIT * v
    return code


def _counts(code: int) -> array:
    """The digits of ``code``, one unsigned short ("H") per 16-bit digit:
    item v is the number of copies of v."""
    counts = array("H", code.to_bytes((code.bit_length() + 15) // 16 * 2, "little"))
    if sys.byteorder == "big":
        counts.byteswap()
    return counts


def _decode(code: int, low: int = 0) -> tuple:
    """The sorted entries of the multiset coded ``code``, each plus ``low``."""
    entries: list = []
    for v, m in enumerate(_counts(code)):
        if m:
            entries += [v + low] * m
    return tuple(entries)


@functools.lru_cache(maxsize=None)
def _c_scale(g: int, X: int) -> int:
    """N/C = 6^g g! 3^X (X-1)!, the factor crossed at the C boundary."""
    return 6**g * math.factorial(g) * 3**X * math.factorial(X - 1)


# The base cases N(0,0,0) = 1 and N(1) = 3, the latter the image of
# C(1) = 1/6, the base value as the C-form literature states it.
_C_ONE = Q(1, 6)
_N_BASE = {_encode((0, 0, 0)): 1, _encode((1,)): int(_C_ONE * _c_scale(1, 1))}


class MemoCache:
    """Table from canonical keys to the integers N.

    ``table`` is keyed on each key's multiplicity code, which stays inside
    this module; others read and write entries by the key's tuple, as
    ``cache[key]``, ``key in cache`` and ``cache.items()``.
    """

    FORMAT = "dvvcache v2"

    def __init__(self):
        self.table: dict = {}

    def __len__(self) -> int:
        return len(self.table)

    def __getitem__(self, key: DVec) -> int:
        return self.table[_encode(key)]

    def __setitem__(self, key: DVec, n: int) -> None:
        self.table[_encode(key)] = n

    def __contains__(self, key: DVec) -> bool:
        return _encode(key) in self.table

    def items(self) -> list:
        """(key tuple, N) pairs in the order the entries were stored."""
        return [(_decode(code), n) for code, n in self.table.items()]


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
    anything but positive integers, or keyed by anything but codes, raises
    TypeError and writes nothing.

    The path (``str``, ``bytes`` or ``os.PathLike``) is replaced atomically:
    the text goes to a temporary file in the same directory, renamed over
    the target only once complete, so a failed save leaves the old file.
    """
    text = _table_text(cache)
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
    entries = []
    for code, value in cache.table.items():
        if type(code) is not int or code <= 0:
            raise TypeError(f"memo key {code!r} is not a multiplicity code")
        key = _decode(code)
        if type(value) is not int or value <= 0:
            raise TypeError(
                f"memo value for {key} is not a positive integer: {value!r}"
            )
        entries.append((key, value))
    entries.sort()
    lines = [f"{','.join(map(str, key))} = {value:x}\n" for key, value in entries]
    body = "".join(lines)
    return f"{MemoCache.FORMAT} entries={len(lines)} sha256={_sha256(body)}\n{body}"


def _sha256(body: str) -> str:
    # Imported on first use: hashlib loads OpenSSL, about 4 ms that every
    # ``import psiclass`` would pay, while only memo files need it.
    import hashlib

    return hashlib.sha256(body.encode()).hexdigest()


_HEADER = re.compile(r"dvvcache v2 entries=([0-9]+) sha256=([0-9a-f]{64})")
_HEX = re.compile(r"[1-9a-f][0-9a-f]*")
# A whole entry line of ASCII digits and commas, " = " and a positive hex N.
_ENTRY = re.compile(r"(?m)^([0-9,]+) = ([1-9a-f][0-9a-f]*)$")


def cache_load(source) -> MemoCache:
    """Load a ``dvvcache v2`` file, rejecting anything a save cannot write.

    ``source`` is a path (``str``, ``bytes`` or ``os.PathLike``).  Checked
    in order: UTF-8 text, the header (a v1 file is refused by name), the
    entry count in ASCII digits and the body hash it states, then per entry
    a canonical key of an expandable geometric vector (2 <= X and
    X + 3 < 2^16, the range ``n_value`` takes), a positive
    hexadecimal integer value, no duplicate key, and for a one-entry key
    (3g-2,) the value N = (6g-3)!!, from the one-point number
    1/(24^g g!); longer entries are not checked against the recursion.
    Errors are ValueErrors that start ``line N:``.  A bulk pass
    (``_bulk_fill``) accepts the entries; the per-line rules, which state
    what a file may hold, run only on a file it refuses, to name its first
    bad line."""
    with open(source, "rb") as fh:
        # Newlines translated as a text-mode read would, so CRLF files load.
        data = fh.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        lineno = 1 + data.count(b"\n", 0, exc.start)
        raise ValueError(
            f"line {lineno}: byte {data[exc.start]:#04x} is not UTF-8 text"
        ) from None
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
    count = body.count("\n")
    if body[-1:] not in ("", "\n"):
        raise ValueError(f"line {count + 2}: the file does not end in a newline")
    if count != int(head.group(1)):
        raise ValueError(
            f"line 1: the header counts {head.group(1)} entries,"
            f" the body has {count}"
        )
    if _sha256(body) != head.group(2):
        raise ValueError("line 1: the body does not match the header's SHA-256")
    # Matches never span a newline, so one per line means every line matched.
    entries = _ENTRY.findall(body)
    cache = MemoCache()
    if len(entries) == count and _bulk_fill(cache.table, entries):
        return cache
    seen = set()
    for lineno, line in enumerate(body.split("\n")[:-1], start=2):
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
        if x_int(key) + 3 >= 1 << _DIGIT:
            raise ValueError(
                f"line {lineno}: key of X = {x_int(key)} is past the"
                f" recursion's range, X + 3 < {1 << _DIGIT}"
            )
        if not _HEX.fullmatch(val_s):
            raise ValueError(
                f"line {lineno}: value {val_s[:80]!r} is not a positive hex integer"
            )
        if key in seen:
            raise ValueError(f"line {lineno}: duplicate key {key_s!r}")
        seen.add(key)
        if len(key) == 1:
            g = (key[0] + 2) // 3
            if int(val_s, 16) != odd_double_factorial(6 * g - 3):
                raise ValueError(
                    f"line {lineno}: entry {line[:80]!r} fails"
                    f" N((3g-2,)) = (6g-3)!! at g = {g}"
                )
    raise AssertionError("the bulk pass refused a file that every line rule admits")


def _bulk_fill(table: dict, entries: list) -> bool:
    """Enter the ``_ENTRY`` matches into ``table`` in file order; False when
    one breaks a rule.  One ``json.loads`` reads every key."""
    import json  # only memo files need it, as with hashlib

    try:  # JSON refuses a leading zero and an empty part
        keys = json.loads("[[" + "],[".join([k for k, _ in entries]) + "]]")
    except ValueError:
        return False
    for key, (_, hex_value) in zip(keys, entries):
        n, s = len(key), sum(key)
        if key != sorted(key) or 1 in key:  # not canonical
            return False
        if (s - n) % 3 or s - n < -3 or 2 * s + n < 6:  # g not in Z>=0, or X < 2
            return False
        if 2 * s + n >= 3 * ((1 << _DIGIT) - 3):  # X + 3 >= 2^16
            return False
        value = int(hex_value, 16)
        if n == 1 and value != odd_double_factorial(2 * s + 1):  # (6g-3)!!
            return False
        table[_encode(key)] = value
    return len(table) == len(entries)  # else a duplicate key


def _two_part_splits(counts: Sequence[int], shares: dict) -> list:
    """The 2-part splits of the multiset with the digits ``counts`` (see
    ``_counts``) as ``(w3, n_left, ways, left)``, ``left`` the left part's
    code (the right part's is the whole code less ``left``), w3 = sum
    (2 v + 1) over left and n_left = len(left), carried as the parts grow.

    The parts are built one distinct value at a time, the left part's share
    of the smallest value varying slowest; ``ways`` = prod_v m_v! /
    (c_v! (m_v - c_v)!), m_v copies of v with c_v of them on the left,
    counts the index-subset splits the pair stands for.  The list of
    shares of m copies of v is kept in ``shares`` under (v, m).
    """
    halves = [(0, 0, 1, 0)]
    for v in compress(range(len(counts)), counts):
        m = counts[v]
        share = shares.get((v, m))
        if share is None:
            unit, dw = 1 << _DIGIT * v, 2 * v + 1
            share = [(c * dw, c, math.comb(m, c), c * unit) for c in range(m + 1)]
            shares[v, m] = share
        halves = [
            (w3 + dw, n + c, ways * w, left + x)
            for w3, n, ways, left in halves
            for dw, c, w, x in share
        ]
    return halves


def multiset_splits(entries: DVec, groups: int = 2) -> list:
    """Every ordered split of a multiset into ``groups`` >= 2 labelled parts.

    Returns ``(parts, ways)`` pairs, ``parts`` one sorted tuple per group;
    ``ways`` = prod_v m_v! / (c_{0,v}! ... c_{groups-1,v}!), m_v copies of v
    with c_{j,v} in part j, counts the index-subset splits it stands for, so
    the ``ways`` sum to groups ** len(entries).  Two parts come from
    ``_two_part_splits``; more parts split the second part again.
    """
    if groups < 2:
        raise ValueError("multiset_splits needs groups >= 2")
    low = min([0, *entries])  # codes count entries >= 0: shift up, then back
    key = _encode([v - low for v in entries])
    halves = [
        ((_decode(left, low), _decode(key - left, low)), ways)
        for _, _, ways, left in _two_part_splits(_counts(key), {})
    ]
    if groups == 2:
        return halves
    return [
        ((first,) + parts, ways * more)
        for (first, rest), ways in halves
        for parts, more in multiset_splits(rest, groups - 1)
    ]


def _split_table(counts: Sequence[int], shares: dict) -> Tuple[list, list, list]:
    """The ``_two_part_splits`` of the digits ``counts``, bucketed by w3
    mod 3 in their order."""
    buckets: Tuple[list, list, list] = ([], [], [])
    for split in _two_part_splits(counts, shares):
        buckets[split[0] % 3].append(split)
    return buckets


def _expand(key: int, table: dict, shares: dict, p: Optional[int] = None):
    """One DVV expansion of N at the entry p (by default ``_pivot``'s) of
    the geometric key coded ``key``, with X >= 2.  A generator: each child
    is coded as an integer sum and read from ``table``; a miss is yielded,
    its N expected back.  Returns N of the key.  The ``_split_table`` of
    ``rest`` is built here, from the split ``shares`` (see
    ``_two_part_splits``), and lives as long as this expansion.

    A child that holds a 1 the expansion put there (a merge to 1, or a = 1
    or b = 1) is read as its part without that 1 times the dilaton factor,
    3 X(part) per 1, so a key without 1s yields no child with one.

    Both quadratic sums run over a <= b only.  Each connected term with
    a < b counts twice.  Each separable term with a < b is added once: the
    term of (b, J, I) equals that of (a, I, J), and the ordered sum is
    halved.  Only the a = b part, whose splits pair off among themselves,
    is halved here, and checked to be even.
    """
    counts = _counts(key)
    values = list(compress(range(len(counts)), counts))
    s = sum([v * counts[v] for v in values])
    n_entries = sum(counts)
    X, g = (2 * s + n_entries) // 3, 1 + (s - n_entries) // 3
    if p is None:
        p = _pivot(values)
    get = table.get
    one = _N_BASE[1 << _DIGIT]  # N(1), read for a child (1,)
    rest = key - (1 << _DIGIT * p)
    counts[p] -= 1  # the digits of rest

    # Linear (merge) terms, one per run of m equal entries v in rest.
    total = 0
    for v in values:
        m = counts[v]
        merged = v + p - 1
        if not m or merged < 0:  # no v in rest, or p = v = 0: no term
            continue
        child = rest - (1 << _DIGIT * v)
        if merged != 1:
            child += 1 << _DIGIT * merged
            n = get(child) or (yield child)
        elif child:  # N(1, part) = 3 X(part) N(part), X(part) = X - 2
            n = (get(child) or (yield child)) * (3 * X - 6)
        else:
            n = one
        total += m * (2 * v + 1) * n
    if p < 2:
        return total

    # Quadratic terms: pairs a <= b with a + b = p - 2.  First the
    # connected ones, where (a, b) and (b, a) give the same child.  At
    # g = 0 each child has genus -1, and the term 12 g vanishes anyway.
    connected = 0
    for a in range(p // 2 if g else 0):
        b = p - 2 - a
        if a != 1 and b != 1:
            child = rest + (1 << _DIGIT * a) + (1 << _DIGIT * b)
            n = get(child) or (yield child)
        elif a != b:  # the child is (1, c, rest), c = a + b - 1: X(c, rest) = X - 2
            child = rest + (1 << _DIGIT * (a + b - 1))
            n = (get(child) or (yield child)) * (3 * X - 6)
        elif rest:  # (1, 1, rest), with X(rest) = X - 3
            n = (get(rest) or (yield rest)) * (3 * X - 9) * (3 * X - 6)
        else:  # N(1, 1) = 3 X(1) N(1)
            n = 3 * one
        connected += n if a == b else 2 * n
    total += 12 * g * connected

    # The residue of a split's w3 fixes whether the left child has an
    # integral X, X1 = (2a + 1 + w3) / 3, so each a visits one bucket.  The
    # right child's X2 = X - 1 - X1 = (2b + 1 + w3(J)) / 3 is then >= 1.
    buckets = _split_table(counts, shares)
    comb = math.comb
    for a in range(p // 2):
        b = p - 2 - a
        unit_a, unit_b = 1 << _DIGIT * a, 1 << _DIGIT * b
        separable = 0
        for w3, n_left, ways, left in buckets[-(2 * a + 1) % 3]:
            x1 = (2 * a + 1 + w3) // 3
            # X1 = 2 g1 - 2 + (n_left + 1); the right child has genus g - g1.
            g1 = (x1 - n_left + 1) // 2
            if g1 < 0 or g1 > g:
                continue
            # A child (1, part) is read as part times the dilaton factor
            # 3 X(part), with X(left) = X1 - 1 and X(right) = X - 2 - X1.
            if a != 1:
                child = left + unit_a
                n1 = get(child) or (yield child)
            elif left:
                n1 = (get(left) or (yield left)) * (3 * x1 - 3)
            else:
                n1 = one
            right = rest - left
            if b != 1:
                child = right + unit_b
                n2 = get(child) or (yield child)
            elif right:
                n2 = (get(right) or (yield right)) * (3 * (X - 2 - x1))
            else:
                n2 = one
            separable += ways * comb(g, g1) * n1 * n2
        if a == b:  # (a, I, J) and (a, J, I) give equal terms
            separable, odd = divmod(separable, 2)
            if odd:
                raise ArithmeticError(f"odd separable sum expanding {_decode(key)} at {p}")
        total += separable
    return total


def _pivot(key: Sequence[int]) -> int:
    """The entry at which ``n_value`` expands a key, given its entries or its
    distinct values, ascending: a 0 when present, else the smallest entry
    above 2, else (all twos) a 2."""
    if key[0] == 0:
        return 0
    i = bisect_right(key, 2)
    return key[i] if i < len(key) else 2


def n_value(d: DVec, cache: Optional[MemoCache] = None) -> int:
    """N(d) = 24^g g! prod (2 d_j + 1)!! I(d), an integer; 0 off geometry
    and when an entry is negative.  A vector whose key (1s stripped) has
    X + 3 >= 2^16 raises ValueError before any entry is stored.

    >>> n_value((4,)), n_value((1, 4))
    (945, 8505)
    """
    table = (_DEFAULT_CACHE if cache is None else cache).table
    key = canonical_tuple(d)
    if genus_of(key) is None or x_int(key) < 1 or key[0] < 0:
        return 0
    x = x_int(key)
    if x + 3 >= 1 << _DIGIT:
        raise ValueError(f"X = {x} is past the recursion's range, X + 3 < {1 << _DIGIT}")
    stack = []  # suspended expansions: (generator, code)
    shares: dict = {}
    code = _encode(key)
    while True:
        n = table.get(code) or _N_BASE.get(code)
        if n is None:  # a miss: the send below starts its expansion
            stack.append((_expand(code, table, shares), code))
        # Hand n to the waiting expansion; an expansion that returns
        # completes its own key, whose N is handed on in turn.
        while stack:
            try:
                code = stack[-1][0].send(n)
                break
            except StopIteration as done:
                code = stack.pop()[1]
                n = table[code] = done.value
        else:
            break
    # Dilaton: each stripped 1 multiplies by 3X of the vector it joins.
    for i in range(len(d) - len(key)):
        n *= 3 * (x + i)
    return n


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
    return Q(odd_double_factorial(3 * X), den)


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
