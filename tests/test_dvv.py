"""The recursion engine: canonicalization, pivots, normalizations, cache."""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
import tracemalloc

import pytest

import psiclass
from psiclass.dvv import (
    MemoCache,
    _counts,
    _decode,
    _encode,
    _pivot,
    _two_part_splits,
    c_value,
    cache_load,
    cache_save,
    canonical_tuple,
    chat_value,
    g_norm,
    gamma_norm,
    genus_of,
    intersection_number,
    multiset_splits,
    n_value,
    u_value,
    x_int,
    x_of,
)
from psiclass.exact import ONE, Q, ZERO
from psiclass.partitions import primitive_vectors

from oracles import (
    c_value_with_pivot,
    cache_load_reference,
    expand_ordered_reference,
    former_pivot_pos,
    memo_items,
    n_value_by_rule,
    n_value_with_pivot,
    rule_e_pivot_pos,
)


def test_base_cases():
    assert c_value((0, 0, 0)) == Q(1, 3)
    assert c_value((1,)) == Q(1, 6)


def test_hand_values():
    assert c_value((0, 2)) == Q(5, 18)
    assert c_value((0, 0, 3)) == Q(35, 108)
    assert c_value((0, 0, 0, 4)) == Q(35, 108)
    assert c_value((0,) * 6 + (4,)) == Q(35, 216)
    assert c_value((0, 0, 0, 1)) == Q(1, 3)


def test_non_geometric_is_zero():
    assert c_value((2,)) == ZERO
    assert c_value((0, 1)) == ZERO
    assert c_value((5, 5)) == ZERO
    assert genus_of((2,)) is None


def test_canonicalization():
    assert canonical_tuple((3, 1, 2)) == (2, 3)  # dilaton strips the 1
    assert canonical_tuple((1,)) == (1,)  # n = 1 never stripped
    assert canonical_tuple((1, 1)) == (1,)
    assert canonical_tuple((4, 0, 2)) == (0, 2, 4)


def test_dilaton_and_string_consistency():
    # Appending a 1 must not change C; appending a 0 rescales by known law
    # only through the recursion, so compare via direct values.
    rng = random.Random(2718)
    for _ in range(40):
        n = rng.randint(1, 4)
        d = tuple(rng.randint(0, 4) for _ in range(n))
        if genus_of(d) is None:
            continue
        assert c_value(d + (1,)) == c_value(d)


def test_permutation_invariance():
    rng = random.Random(31)
    base = [2, 3, 0, 4]
    want = c_value(tuple(base))
    for _ in range(10):
        rng.shuffle(base)
        assert c_value(tuple(base)) == want


def _pivot_pos(key: tuple) -> int:
    """The position in the sorted ``key`` of the engine's pivot."""
    return key.index(_pivot(key, key.count(2)))


def test_pivot_rule():
    """The engine expands at a 0, else at a 2 when the smallest entry above
    2, q, has q > 3 m2 + 2 with m2 the number of 2s, else at q, else (all
    twos) at a 2.  Given the distinct values, the rule reads m2 from its
    second argument, not from the values: (2, 9) stands for (2, 2, 2, 9)
    too."""
    rule = [
        ((0, 2, 5), 0),
        ((2, 2, 5), 2),
        ((2, 3, 3), 1),
        ((2, 2, 2), 0),
        ((3, 3), 0),
        ((5,), 0),
        ((2, 2, 8), 2),  # q = 3 m2 + 2: q
        ((2, 2, 9), 0),  # q = 3 m2 + 3: a 2
        ((2, 17), 0),
        ((2, 3, 17), 1),
        ((2, 2, 2, 9), 3),  # the distinct values (2, 9) alone would give a 2
    ]
    for key, pos in rule:
        assert _pivot(key, key.count(2)) == key[pos], key
        assert _pivot(sorted(set(key)), key.count(2)) == key[pos], key


def _assert_memo_matches_former_pivots(cache: MemoCache):
    """Every memo entry equals one expansion of its key at the former pivot
    (the largest entry) and at rule E's, children read from a copy of the
    memo: a frozen memo shape can then never hide a changed value."""
    check = MemoCache()
    check.table = dict(cache.table)
    for key, n in memo_items(cache):
        for pos in {former_pivot_pos(key), rule_e_pivot_pos(key)}:
            assert n_value_with_pivot(key, pos, check) == n, (key, pos)


def test_pivot_invariance():
    """Expanding at any position gives the same value, also on vectors where
    the engine's pivot and the former one (the largest entry) differ, and
    where it expands at a 2 and rule E does not."""
    vectors = [(0, 2, 4), (2, 3), (0, 0, 3), (2, 2, 2), (0, 2, 2, 3), (4, 4)]
    differing = [(2, 3, 7), (2, 3, 4), (3, 3, 3), (3, 4, 5)]
    for t in differing:
        assert _pivot_pos(t) != former_pivot_pos(t), t
    at_a_two = [(2, 9), (2, 2, 11)]
    for t in at_a_two:
        assert _pivot_pos(t) == 0 != rule_e_pivot_pos(t), t
    vectors += [(2, 2, 5)] + differing + at_a_two
    for d in vectors:
        want = c_value(d)
        for pos in range(len(d)):
            assert c_value_with_pivot(d, pos) == want, (d, pos)


# Pivots with p even (an a = b separable part) and odd, repeated entries,
# and rests holding 0s and 1s, which no memo key has; on the last two, some
# splits give a child of negative genus, skipped by the g1 test.
_EXPAND_GRID = [
    (2, 3, 3, 4, 8),
    (2, 2, 3, 3, 7),
    (0, 1, 1, 4, 5),
    (0, 0, 3, 3, 5),
    (1, 2, 2, 2, 2, 6),
    (0, 0, 1, 2, 8),
    (4, 4, 4),
    (0, 1, 2, 3, 3, 3),
    (0, 0, 0, 0, 0, 0, 4),
    (0, 0, 0, 0, 0, 2, 5),
]


def test_expand_matches_ordered_reference():
    """Summing each unordered split pair once gives the N of the ordered
    sum halved: on every primitive key up to genus 6 at the engine's pivot,
    at the former one (the largest entry) and at rule E's, and at every
    pivot of a grid."""
    cache = MemoCache()
    for g in range(2, 7):
        for d in primitive_vectors(g):
            t = tuple(sorted(d))
            for pos in {_pivot_pos(t), former_pivot_pos(t), rule_e_pivot_pos(t)}:
                want = expand_ordered_reference(t, pos, cache)
                assert n_value_with_pivot(t, pos, cache) == want, (t, pos)
                assert n_value(t, cache) == want, (t, pos)
    for t in _EXPAND_GRID:
        assert genus_of(t) is not None and x_int(t) >= 2, t
        want = n_value(t, cache)
        for pos in range(len(t)):
            assert expand_ordered_reference(t, pos, cache) == want, (t, pos)
            assert n_value_with_pivot(t, pos, cache) == want, (t, pos)


def _split_buckets(rest: tuple) -> tuple:
    """The 2-part splits of ``rest`` bucketed by w3 mod 3 in their order,
    as ``_expand`` builds them."""
    buckets = ([], [], [])
    for split in _two_part_splits(_counts(_encode(rest)), {}):
        buckets[split[0] % 3].append(split)
    return buckets


class _CountingTable(dict):
    def get(self, key, default=None):
        self.gets += 1
        return super().get(key, default)


def test_separable_loop_reads_each_unordered_split_once():
    """The separable loop reads two children per split in the residue
    bucket of each a <= b, never one for a > b: the gets of one expansion
    are one per run of rest (linear), one per a <= b (connected) and
    2 sum_{a <= (p-2)/2} |bucket(a)|."""
    for t in ((2, 2, 3, 3, 7), (2, 3, 3, 4, 8)):
        cache = MemoCache()
        n_value(t, cache)
        table = _CountingTable(cache.table)
        table.gets = 0
        p, rest = t[-1], t[:-1]
        assert n_value_with_pivot(t, len(t) - 1, cache, table) == cache.table[_encode(t)]
        buckets = _split_buckets(rest)
        splits = sum(len(buckets[-(2 * a + 1) % 3]) for a in range((p - 2) // 2 + 1))
        # Less one: at a = 1 the split with an empty left part has the
        # child (1,), whose N(1) = 3 is read without a lookup.
        assert table.gets == len(set(rest)) + p // 2 + 2 * splits - 1, t
        # Both children of every admitted split have X >= 1: X1 + X2 = X - 1.
        X = x_int(t)
        for a in range((p - 2) // 2 + 1):
            for w3, *_ in buckets[-(2 * a + 1) % 3]:
                assert 1 <= (2 * a + 1 + w3) // 3 <= X - 2, (t, a, w3)


def test_positivity_small_grid():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 4)
        d = tuple(rng.randint(0, 5) for _ in range(n))
        v = c_value(d)
        if genus_of(d) is not None:
            assert v > ZERO, d
        else:
            assert v == ZERO, d


def test_normalizations_consistency():
    from psiclass.exact import odd_double_factorial
    from math import factorial

    d = (2, 3)
    g = genus_of(d)
    n = len(d)
    integral = intersection_number(d)
    assert integral == Q(29, 5760)
    assert u_value(d) == integral * odd_double_factorial(5) * odd_double_factorial(7)
    c = c_value(d)
    assert c == Q(4**g) * u_value(d) / (
        Q(3) ** (2 * g - 2 + n) * factorial(2 * g - 3 + n)
    )
    assert intersection_number((4, 1)) == Q(1, 384)
    assert intersection_number((0, 0, 0)) == ONE
    assert intersection_number((1,)) == Q(1, 24)
    assert intersection_number((4,)) == Q(1, 1152)


def test_g_norm_is_ratio_to_zero_padded_extreme():
    d = (2, 3)
    # genus 2, n = 2: reference vector (0, 3g-3+n) = (0, 5)
    assert g_norm(d) == c_value(d) / c_value((0, 5))


def test_gamma_norm_odd_x():
    # gamma(2g-1) = C(3g-2)
    for g in range(1, 15):
        assert gamma_norm(2 * g - 1) == c_value((3 * g - 2,))


def test_gamma_norm_even_x_rejected():
    with pytest.raises(ValueError):
        gamma_norm(4)
    with pytest.raises(ValueError):
        chat_value((0, 2))  # X = 2


@pytest.mark.parametrize(
    "fn, arg, message",
    [
        (g_norm, (2, 2), "undefined normalization: g((2, 2)) is not in Z>=0"),
        (g_norm, (-2,), "undefined normalization: C((-2,)) = 0"),
        (gamma_norm, 0, "gamma_norm requires X >= 1, got 0"),
        (
            gamma_norm,
            2,
            "gamma(2) is irrational (a rational multiple of 1/(pi*sqrt(3)));"
            " only odd X has an exact rational value",
        ),
        (chat_value, (2, 2), "undefined normalization: g((2, 2)) is not in Z>=0"),
        (chat_value, (), "chat_value requires X >= 1, got 0"),
    ],
)
def test_normalization_errors(fn, arg, message):
    """Each normalization names why it is undefined: a genus outside Z>=0,
    a reference C of 0, an X below 1 or an even X."""
    with pytest.raises(ValueError) as exc:
        fn(arg)
    assert str(exc.value) == message


def test_chat_value_odd_x():
    d = (2, 2, 5)  # X = (5 + 5 + 11)/3 = 7
    assert chat_value(d) == c_value(d) / gamma_norm(7)


def test_x_helpers():
    assert x_of((2, 3)) == Q(4)
    assert x_int((2, 3)) == 4
    assert x_int((2, 2, 3)) is None


def _v2(body: str) -> str:
    """A v2 memo text whose header states the right count and hash."""
    digest = hashlib.sha256(body.encode()).hexdigest()
    count = body.count("\n")
    return f"{MemoCache.FORMAT} entries={count} sha256={digest}\n{body}"


def _load_text(path, text: str) -> MemoCache:
    """cache_load of a file at ``path`` holding exactly ``text``."""
    path.write_bytes(text.encode())
    return cache_load(path)


def test_cache_round_trip(tmp_path):
    # Paths as pathlib.Path, bytes and str: cache_save and cache_load take
    # any of them.
    path = tmp_path / "memo.cache"
    cache = MemoCache()
    c_value((2, 2, 5), cache)
    cache_save(cache, path)
    text = path.read_text(encoding="utf-8")
    assert text.startswith(MemoCache.FORMAT + " entries=")
    assert text == _v2(text.partition("\n")[2])
    loaded = cache_load(path)
    assert loaded.table == cache.table
    # Bytes identical on resave, entries sorted.
    again = tmp_path / "again.cache"
    cache_save(loaded, os.fsencode(again))
    assert again.read_bytes() == path.read_bytes()
    # Values past the 4300-digit cap of decimal int/str conversion, as
    # N(0^n, n+1) = (2n+3)!! is from n = 1422 on.
    big = MemoCache()
    big.table[_encode((0,) * 1500 + (1501,))] = 10**5000 + 1
    cache_save(big, str(path))
    assert cache_load(str(path)).table == big.table
    assert sorted(p.name for p in tmp_path.iterdir()) == ["again.cache", "memo.cache"]


def test_cache_load_error_lines(tmp_path):
    path = tmp_path / "memo.cache"
    with pytest.raises(ValueError, match="line 1"):
        _load_text(path, "wrong header\n")
    with pytest.raises(ValueError, match="line 2"):
        _load_text(path, _v2("garbage\n"))
    with pytest.raises(ValueError, match="line 2: non-canonical"):
        _load_text(path, _v2("3,2 = 23af\n"))
    with pytest.raises(ValueError, match="line 3: duplicate"):
        _load_text(path, _v2("2,3 = 23af\n2,3 = 23af\n"))
    with pytest.raises(ValueError, match="line 2: value '2/4' is not a positive hex"):
        _load_text(path, _v2("2,3 = 2/4\n"))
    with pytest.raises(ValueError, match="line 3: the file does not end in a newline"):
        _load_text(path, _v2("2,3 = 23af\n4 = 3b1"))
    # The first bad line is named, whether a rule or the reading of a line
    # refuses it, and whichever comes first in the file; lines the pattern
    # refuses are still checked by the rules in their order.
    for body, error in [
        ("2,3 = 23af\n4 = 1\n2,2,2 = 5\ngarbage\n",
         "line 3: entry '4 = 1' fails N((3g-2,)) = (6g-3)!! at g = 2"),
        ("2,3 = 23af\n2,3 = 5\n2,2,2 = 5\n2,,3 = 5\n", "line 3: duplicate key '2,3'"),
        ("2,3 = 23af\ngarbage\n2,2,2 = 5\n3,2 = 23af\n", "line 3: malformed entry 'garbage'"),
        ("4 = 1\n02,3 = 5\n", "line 2: entry '4 = 1' fails N((3g-2,)) = (6g-3)!! at g = 2"),
        ("4 = 3b1\n-1,3 = 5\n", "line 3: key '-1,3' is not a geometric vector with X >= 2"),
        ("2,3 = 0x1f\n", "line 2: value '0x1f' is not a positive hex integer"),
        ("02,3 = 5\n", "line 2: non-canonical key '02,3'"),
    ]:
        path.write_bytes(_v2(body).encode())
        for load in (cache_load, cache_load_reference):
            with pytest.raises(ValueError) as exc:
                load(path)
            assert str(exc.value) == error


@pytest.mark.parametrize("key", ["+2,3", "02,3", "0_2,3", " 2,3", "\u0662,3"])
def test_cache_load_refuses_key_spellings_int_reads(key, tmp_path):
    # int() reads the first part of each as 2 (the last is an Arabic-Indic
    # digit two), but a save only ever writes "2,3".
    assert tuple(int(p) for p in key.split(",")) == (2, 3)
    with pytest.raises(ValueError) as exc:
        _load_text(tmp_path / "memo.cache", _v2(f"{key} = 23af\n4 = 3b1\n"))
    assert str(exc.value) == f"line 2: non-canonical key {key!r}"


def test_cache_load_names_the_line_of_a_non_utf8_byte(tmp_path):
    path = tmp_path / "memo.cache"
    good = _v2("2,3 = 23af\n4 = 3b1\n").encode()
    for at, lineno in ((0, 1), (good.index(b"23af"), 2), (good.index(b"3b1"), 3)):
        path.write_bytes(good[:at] + b"\xff" + good[at:])
        with pytest.raises(ValueError) as exc:
            cache_load(path)
        assert str(exc.value) == f"line {lineno}: byte 0xff is not UTF-8 text"


def test_cache_load_empty_body(tmp_path):
    assert memo_items(_load_text(tmp_path / "memo.cache", _v2(""))) == []


def test_cache_load_refuses_negative_genus_at_x_two(tmp_path):
    # g = 1 + (0 - 6)/3 = -1 while X = 6/3 = 2: the genus rule alone
    # refuses this key.
    with pytest.raises(ValueError, match="line 2: key '0,0,0,0,0,0' is not a geometric"):
        _load_text(tmp_path / "memo.cache", _v2("0,0,0,0,0,0 = 1\n"))


def test_cache_load_checks_header_count_and_hash(tmp_path):
    path = tmp_path / "memo.cache"
    good = _v2("2,3 = 23af\n4 = 3b1\n")
    assert memo_items(_load_text(path, good)) == [((2, 3), 9135), ((4,), 945)]
    with pytest.raises(ValueError, match="line 1: a dvvcache v1 file"):
        _load_text(path, "dvvcache v1\n2,3 = 1015/3888\n")
    header, _, body = good.partition("\n")
    with pytest.raises(ValueError, match="line 1: the header counts 3 entries"):
        _load_text(path, header.replace("entries=2", "entries=3") + "\n" + body)
    with pytest.raises(ValueError, match="line 1: the body does not match"):
        _load_text(path, header + "\n" + body.replace("3b1", "3b2"))
    # int() reads the Arabic-Indic digit two as 2, but a save writes the
    # count in ASCII digits only.
    with pytest.raises(ValueError, match="line 1: bad version header"):
        _load_text(path, header.replace("entries=2", "entries=\u0662") + "\n" + body)
    # Line ends are read as a text-mode read would: CRLF and a lone CR load
    # the same.
    for newline in ("\r\n", "\r"):
        assert memo_items(_load_text(path, good.replace("\n", newline))) == [((2, 3), 9135), ((4,), 945)]
    with pytest.raises(ValueError, match="line 2: key '0,0,0' is not a geometric"):
        _load_text(path, _v2("0,0,0 = 1\n"))


# One past the code range: g = 1 and X = 65534, so X + 3 >= 2^16.
_PAST_RANGE = (0,) * 65533 + (65534,)


def test_n_value_refuses_a_key_past_the_code_range():
    """A key of X reaches keys of up to X + 3 entries, each counted by a
    16-bit digit: X = 65534 is refused before any entry is stored."""
    assert genus_of(_PAST_RANGE) == 1 and x_int(_PAST_RANGE) == 65534
    cache = MemoCache()
    with pytest.raises(ValueError, match=r"X = 65534 is past the recursion's range"):
        n_value(_PAST_RANGE, cache)
    assert len(cache) == 0


def test_cache_load_refuses_a_key_past_the_code_range(tmp_path):
    path = tmp_path / "memo.cache"
    key = ",".join(map(str, _PAST_RANGE))
    path.write_bytes(_v2(f"4 = 3b1\n{key} = 3\n").encode())
    for load in (cache_load, cache_load_reference):
        with pytest.raises(ValueError) as exc:
            load(path)
        assert str(exc.value) == (
            "line 3: key of X = 65534 is past the recursion's range, X + 3 < 65536"
        )


def test_cache_load_checks_one_point_entries(tmp_path):
    path = tmp_path / "memo.cache"
    # N((3g-2,)) = (6g-3)!!: 9!! = 945 = 0x3b1 at g = 2, and the engine's
    # own N((7,)) at g = 3.
    seven = n_value((7,), MemoCache())
    good = _v2(f"4 = 3b1\n7 = {seven:x}\n")
    assert memo_items(_load_text(path, good)) == [((4,), 945), ((7,), seven)]
    # Well-formed files with the right count and hash, holding a forged
    # one-point value.
    with pytest.raises(
        ValueError,
        match=r"line 2: entry '4 = 1' fails N\(\(3g-2,\)\) = \(6g-3\)!! at g = 2",
    ):
        _load_text(path, _v2("4 = 1\n"))
    with pytest.raises(ValueError, match="line 3: entry '7 = 3b1' fails"):
        _load_text(path, _v2("4 = 3b1\n7 = 3b1\n"))


def test_cache_save_failure_keeps_previous_file(tmp_path):
    path = tmp_path / "memo.cache"
    cache = MemoCache()
    c_value((2, 2, 5), cache)
    cache_save(cache, str(path))
    before = path.read_bytes()
    # A different table whose unserializable value sits under the largest
    # key, after an entry that would serialize, and one keyed by a tuple
    # where a multiplicity code belongs: each refused before any write.
    broken = MemoCache()
    broken.table[_encode((2, 3))] = n_value((2, 3))
    broken.table[_encode((99,))] = object()
    foreign = MemoCache()
    foreign.table[_encode((4,))] = 945
    foreign.table[(2, 3)] = n_value((2, 3))
    for table in (broken, foreign):
        with pytest.raises(TypeError):
            cache_save(table, str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["memo.cache"]


def test_cache_save_failure_after_write_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "memo.cache"
    cache = MemoCache()
    c_value((2, 2, 5), cache)
    cache_save(cache, str(path))
    before = path.read_bytes()
    # The temporary file is written in full, then the rename fails.
    bigger = MemoCache()
    c_value((2, 2, 2, 3), bigger)
    written = []

    def failing_replace(src, dst):
        written.append(open(src, "rb").read())
        raise OSError("rename refused")

    monkeypatch.setattr("psiclass.dvv.os.replace", failing_replace)
    with pytest.raises(OSError, match="rename refused"):
        cache_save(bigger, str(path))
    assert written and written[0] != before
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["memo.cache"]


def test_cache_save_failure_names_the_memo_file(tmp_path):
    """An OSError from the system names the memo path, with its reason, not
    the temporary file the text went to first."""
    path = tmp_path / "missing" / "memo.cache"
    with pytest.raises(FileNotFoundError) as exc:
        cache_save(MemoCache(), path)
    assert exc.value.filename == str(path)
    assert str(exc.value) == f"[Errno 2] No such file or directory: {str(path)!r}"


def _labelled_splits(entries, k):
    """The k-part splits of ``entries`` counted over all k**n labelings of
    the indices: sorted parts -> number of labelings giving them."""
    from collections import Counter
    from itertools import product

    return Counter(
        tuple(
            tuple(sorted(v for v, lab in zip(entries, labels) if lab == j))
            for j in range(k)
        )
        for labels in product(range(k), repeat=len(entries))
    )


_SPLIT_INPUTS = [
    (),
    (3,),
    (2, 2, 2),
    (0, 0, 3, 5, 5),
    (2, 2, 3, 3, 3, 4),
    (1,) * 4 + (6,),
    (5, 0, 3, 0),
]


def test_multiset_splits():
    """For k = 2, 3: each split is listed once with sorted parts, the ways
    sum to k**n, and each split's ways equals the number of the k**n
    labelings of the indices that produce it."""
    for entries in _SPLIT_INPUTS:
        for k in (2, 3):
            splits = multiset_splits(entries, k)
            ways = dict(splits)
            assert len(ways) == len(splits)
            assert sum(ways.values()) == k ** len(entries)
            for parts in ways:
                assert all(list(part) == sorted(part) for part in parts)
            assert ways == dict(_labelled_splits(entries, k)), (entries, k)
    with pytest.raises(ValueError):
        multiset_splits((2,), 1)


def test_split_table_buckets_partition_the_splits():
    """The engine's residue buckets hold every 2-part split of rest exactly
    once, in the bucket of its left part's 3X-weight mod 3, with that
    weight, the left part's length and the labeling count."""
    for entries in _SPLIT_INPUTS:
        rest = tuple(sorted(entries))
        buckets = _split_buckets(rest)
        seen = {}
        for residue, bucket in enumerate(buckets):
            for w3, n_left, ways, code in bucket:
                left, right = _decode(code), _decode(_encode(rest) - code)
                assert w3 == sum(2 * v + 1 for v in left)
                assert w3 % 3 == residue
                assert n_left == len(left)
                assert (left, right) not in seen
                seen[(left, right)] = ways
        assert seen == dict(_labelled_splits(rest, 2)), rest


# Mixed vectors: unsorted, 0- and 1-entries, all twos, a one-point vector,
# a non-geometric vector and both base cases.
_FILL_VECTORS = [
    (4, 0, 2),
    (9, 1, 0, 0),
    (2, 5, 1, 2),
    (2,) * 6,
    (13,),
    (1, 1, 3, 4),
    (0, 0, 0, 0, 5),
    (6, 3, 3),
    (1,),
    (0, 0, 0),
    (6, 3, 2, 3, 2, 2),
]


def test_memo_fill_order_frozen(tmp_path):
    """The memo a fixed sequence of cold queries leaves, in insertion order
    and as saved text, against digests of the engine at its pivot rule;
    test_memo_built_at_the_former_pivot_serves_the_same_values and
    test_memo_built_at_rule_e_serves_the_same_values pin the memos the
    same queries left under the former rules."""
    cache = MemoCache()
    for d in _FILL_VECTORS:
        n_value(d, cache)
    assert len(cache) == 82
    items = repr(memo_items(cache)).encode()
    assert (
        hashlib.sha256(items).hexdigest()
        == "952ba33f2b9816c059ad7fc16b9580e5e6fa61fa40753f8ee2bcddd392527cfe"
    )
    path = tmp_path / "memo.cache"
    cache_save(cache, path)
    assert (
        hashlib.sha256(path.read_bytes()).hexdigest()
        == "6ea223cfc046c8530f634caf23fe97d6b5518ce857fddb25d8ab158460927f87"
    )
    _assert_memo_matches_former_pivots(cache)


def test_no_expansion_yields_a_key_holding_a_1():
    """Every child holding a 1 is read inside the expansion through the
    dilaton equation, so expanding a memo key, at the engine's pivot, the
    former one or rule E's, yields no key with a 1, even with every child
    a miss."""
    cache = MemoCache()
    for d in _FILL_VECTORS + [(6, 3, 2, 3, 2, 2)]:
        n_value(d, cache)
    # (13,) among them expands at 13, where a = 1 and b = 1 meet children
    # (1, part) in the connected and the separable sums.
    assert _encode((13,)) in cache.table
    for key, n in memo_items(cache):
        for pos in {_pivot_pos(key), former_pivot_pos(key), rule_e_pivot_pos(key)}:
            yielded = []
            assert n_value_with_pivot(key, pos, cache, {}, yielded) == n, key
            assert all(1 not in child for child in yielded), (key, pos)


def _memo_at_rule(rule, entries: int, items_sha: str, file_sha: str, path):
    """The memo the ``_FILL_VECTORS`` leave under the pivot ``rule``, saved
    to ``path``, checked against the engine's digests under that rule."""
    memo = MemoCache()
    for d in _FILL_VECTORS:
        n_value_by_rule(d, memo, rule)
    cache_save(memo, path)
    assert len(memo) == entries
    assert hashlib.sha256(repr(memo_items(memo)).encode()).hexdigest() == items_sha
    assert hashlib.sha256(path.read_bytes()).hexdigest() == file_sha
    return memo


def _assert_memo_file_serves(former: MemoCache, path):
    """The memo file at ``path``, saved from ``former``, loads and serves
    each value it holds without adding an entry, and a memo extended from
    it gives what a cold one gives."""
    loaded = cache_load(path)
    cold = MemoCache()
    for key, _ in memo_items(former):
        assert c_value(key, loaded) == c_value(key, cold), key
    assert loaded.table == former.table
    for d in _EXPAND_GRID + primitive_vectors(5) + [(2, 2, 5), (2, 3, 7)]:
        assert c_value(d, loaded) == c_value(d, cold), d
    assert loaded.table.items() >= former.table.items()


def test_memo_built_at_the_former_pivot_serves_the_same_values(tmp_path):
    """A memo file saved under the former pivot rule (a 0, else the largest
    entry) serves the same values; the digests are of the memo and file
    that the engine wrote under that rule."""
    path = tmp_path / "former.cache"
    former = _memo_at_rule(
        former_pivot_pos,
        90,
        "30b6cc7bd26ed4d78b28ed8ae3934fcd9a7f8f130f5ed4c51c20ee7b6a48cceb",
        "a256525b6f56febc9eb2e59a6ad47fbd2f917024f3f4a926105249d4f95b7342",
        path,
    )
    _assert_memo_file_serves(former, path)


def test_memo_built_at_rule_e_serves_the_same_values(tmp_path):
    """A memo file saved under rule E (a 0, else the smallest entry above
    2, else a 2) serves the same values; the digests are of the memo and
    file that the engine wrote under that rule."""
    path = tmp_path / "rule_e.cache"
    former = _memo_at_rule(
        rule_e_pivot_pos,
        77,
        "5e1c3a1ba0edc9d74cfed48e80249160fb57b134f6aa8a24dc9377f4f4fd54eb",
        "0ffc843b947491f13b447daf59874234a25c29edda528876bde1c6e8a0620725",
        path,
    )
    _assert_memo_file_serves(former, path)


def test_sweep_memo_at_rule_e_is_a_subset_of_the_engines():
    """Every primitive class up to genus 7 leaves a memo under rule E that
    the engine's memo holds entry for entry, with the same values: the
    engine's rule expands some keys at a 2 where E took a larger entry,
    and reaches 22 keys more.  ``sweep-nesting --gmax 7 --cache`` writes
    the engine's memo (its SHA-256 is pinned in test_cli)."""
    now, rule_e = MemoCache(), MemoCache()
    for g in range(2, 8):
        for d in primitive_vectors(g):
            n_value(d, now)
            n_value_by_rule(d, rule_e, rule_e_pivot_pos)
    assert rule_e.table.items() < now.table.items()
    assert (len(rule_e), len(now)) == (1083, 1105)


def test_no_module_state_left_after_a_call():
    """Split tables live for one expansion: in a fresh interpreter, no
    container or cached function of the dvv module grows while a fresh
    memo is filled, so no state outlives the call."""
    code = (
        "import psiclass.dvv as dvv\n"
        "def sizes():\n"
        "    out = {}\n"
        "    for name, obj in vars(dvv).items():\n"
        "        if hasattr(obj, 'cache_info'):\n"
        "            out[name] = obj.cache_info().currsize\n"
        "        elif isinstance(obj, (dict, list, set, dvv.MemoCache)):\n"
        "            out[name] = len(obj)\n"
        "    return out\n"
        "before = sizes()\n"
        "cache = dvv.MemoCache()\n"
        "dvv.n_value((6, 3, 2, 3, 2, 2), cache)\n"
        "assert len(cache) == 78, len(cache)\n"
        "assert sizes() == before, (before, sizes())\n"
        "print('ok')\n"
    )
    proc = _fresh_interpreter(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
    cache = MemoCache()
    n_value((6, 3, 2, 3, 2, 2), cache)
    assert len(cache) == 78
    _assert_memo_matches_former_pivots(cache)


def test_deep_call_holds_no_more_than_its_memo():
    """A deep call's traced peak stays within 1.5x of what it leaves behind,
    the memo: no split table is kept past its expansion."""
    tracemalloc.start()
    try:
        cache = MemoCache()
        n_value((40,), cache)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cache) == 693
    assert peak <= 1.5 * after, (peak, after)
    _assert_memo_matches_former_pivots(cache)


def test_negative_entry_is_zero_and_not_stored(tmp_path):
    """<... tau_{-1} ...> = 0: no value, no memo entry, and the memo still
    saves."""
    cache = MemoCache()
    c_value((2, 2, 5), cache)
    before = memo_items(cache)
    for d in [(-1, 2, 2), (-1, 1, 3), (3, -2, 5), (-1,)]:
        assert n_value(d, cache) == 0, d
        assert c_value(d, cache) == ZERO, d
    assert memo_items(cache) == before
    cache_save(cache, tmp_path / "memo.cache")


# (d, N, C, U) on vectors at the edges of what a call reads from d: the
# empty vector, 1s only or beside a 0, negative entries, 0s and 1s, and a
# list out of order.
_EDGE_VALUES = [
    ((), 0, ZERO, ZERO),
    ((1,), 3, Q(1, 6), Q(1, 8)),
    ((1, 1), 9, Q(1, 6), Q(3, 8)),
    ((1, 1, 1, 1), 486, Q(1, 6), Q(81, 4)),
    ((0, 1), 0, ZERO, ZERO),
    ((1, -1), 0, ZERO, ZERO),
    ((2, -1, 1), 0, ZERO, ZERO),
    ((0, 0, 0), 1, Q(1, 3), ONE),
    ((0, 0, 0, 1), 3, Q(1, 3), Q(3)),
    ((4, 1, 1), 102060, Q(35, 144), Q(2835, 32)),
    ((-2, 5), 0, ZERO, ZERO),
    ([3, 1, 2], 109620, Q(1015, 3888), Q(3045, 32)),
]


@pytest.mark.parametrize(
    "d, n, c, u", _EDGE_VALUES, ids=[repr(e[0]) for e in _EDGE_VALUES]
)
def test_edge_vector_values_cold_and_warm(d, n, c, u, monkeypatch):
    """Each edge vector gives its N, C and U on a cold memo, and again on
    the memo the cold call left, where no expansion runs."""
    monkeypatch.setattr("psiclass.dvv._DEFAULT_CACHE", MemoCache())
    cache = MemoCache()
    assert n_value(d, cache) == n
    assert c_value(d, MemoCache()) == c
    assert u_value(d) == u

    def no_expansion(*args):
        raise AssertionError(f"a warm call on {d!r} expanded {args[0]!r}")

    monkeypatch.setattr("psiclass.dvv._expand", no_expansion)
    assert n_value(d, cache) == n
    assert c_value(d, cache) == c
    assert u_value(d) == u


def test_recursion_limit_bump():
    """Long string chains and a large one-point value under a recursion
    limit far below their depth, in a fresh interpreter: the engine runs
    from its own stack and leaves the limit as it found it."""
    code = (
        "import sys\n"
        "from psiclass.closed import one_point_c\n"
        "from psiclass.dvv import c_value, intersection_number\n"
        "from psiclass.exact import Q\n"
        "sys.setrecursionlimit(150)\n"
        "for k in (100, 400, 900):\n"
        "    assert intersection_number((0,) * k + (k + 1,)) == Q(1, 24), k\n"
        "assert c_value((34,)) == one_point_c(34)\n"
        "assert sys.getrecursionlimit() == 150, sys.getrecursionlimit()\n"
        "print('ok')\n"
    )
    proc = _fresh_interpreter(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def _fresh_interpreter(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports psiclass from the
    same source tree as this one."""
    src = os.path.dirname(os.path.dirname(psiclass.__file__))
    return subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_deep_vector_value_agrees_with_shallow_cache():
    # A fresh cache and the default cache must agree.
    d = (2, 2, 2, 3, 3)
    assert c_value(d, MemoCache()) == c_value(d)

