"""The recursion engine: canonicalization, pivots, normalizations, cache."""

from __future__ import annotations

import hashlib
import io
import os
import random
import subprocess
import sys

import pytest

import psiclass
from psiclass.dvv import (
    MemoCache,
    _split_table,
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

from oracles import c_value_with_pivot


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


def test_pivot_invariance():
    """Expanding at any position gives the same value."""
    vectors = [(0, 2, 4), (2, 3), (0, 0, 3), (2, 2, 2), (0, 2, 2, 3), (4, 4)]
    for d in vectors:
        want = c_value(d)
        for pos in range(len(d)):
            assert c_value_with_pivot(d, pos) == want, (d, pos)


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


def test_cache_round_trip():
    cache = MemoCache()
    c_value((2, 2, 5), cache)
    buf = io.StringIO()
    cache_save(cache, buf)
    text = buf.getvalue()
    assert text.startswith(MemoCache.FORMAT + " entries=")
    assert text == _v2(text.partition("\n")[2])
    loaded = cache_load(io.StringIO(text))
    assert loaded.table == cache.table
    # Bytes identical on resave, entries sorted.
    buf2 = io.StringIO()
    cache_save(loaded, buf2)
    assert buf2.getvalue() == text
    # Values past the 4300-digit cap of decimal int/str conversion, as
    # N(0^n, n+1) = (2n+3)!! is from n = 1422 on.
    big = MemoCache()
    big.table[(0,) * 1500 + (1501,)] = 10**5000 + 1
    buf3 = io.StringIO()
    cache_save(big, buf3)
    assert cache_load(io.StringIO(buf3.getvalue())).table == big.table


def test_cache_load_error_lines():
    with pytest.raises(ValueError, match="line 1"):
        cache_load(io.StringIO("wrong header\n"))
    with pytest.raises(ValueError, match="line 2"):
        cache_load(io.StringIO(_v2("garbage\n")))
    with pytest.raises(ValueError, match="line 2: non-canonical"):
        cache_load(io.StringIO(_v2("3,2 = 23af\n")))
    with pytest.raises(ValueError, match="line 3: duplicate"):
        cache_load(io.StringIO(_v2("2,3 = 23af\n2,3 = 23af\n")))
    with pytest.raises(ValueError, match="line 2: value '2/4' is not a positive hex"):
        cache_load(io.StringIO(_v2("2,3 = 2/4\n")))


def test_cache_load_checks_header_count_and_hash():
    good = _v2("2,3 = 23af\n4 = 3b1\n")
    assert cache_load(io.StringIO(good)).table == {(2, 3): 9135, (4,): 945}
    with pytest.raises(ValueError, match="line 1: a dvvcache v1 file"):
        cache_load(io.StringIO("dvvcache v1\n2,3 = 1015/3888\n"))
    header, _, body = good.partition("\n")
    with pytest.raises(ValueError, match="line 1: the header counts 3 entries"):
        cache_load(io.StringIO(header.replace("entries=2", "entries=3") + "\n" + body))
    with pytest.raises(ValueError, match="line 1: the body does not match"):
        cache_load(io.StringIO(header + "\n" + body.replace("3b1", "3b2")))
    with pytest.raises(ValueError, match="line 2: key '0,0,0' is not a geometric"):
        cache_load(io.StringIO(_v2("0,0,0 = 1\n")))


def test_cache_save_failure_keeps_previous_file(tmp_path):
    path = tmp_path / "memo.cache"
    cache = MemoCache()
    c_value((2, 2, 5), cache)
    cache_save(cache, str(path))
    before = path.read_bytes()
    # A different table whose unserializable value sits under the largest
    # key, after an entry that would serialize: refused before any write.
    broken = MemoCache()
    broken.table[(2, 3)] = n_value((2, 3))
    broken.table[(99,)] = object()
    with pytest.raises(TypeError):
        cache_save(broken, str(path))
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
        buckets = _split_table(rest)
        seen = {}
        for residue, bucket in enumerate(buckets):
            for w3, n_left, ways, left, right in bucket:
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


def test_memo_fill_order_frozen():
    """The memo a fixed sequence of cold queries leaves, in insertion order
    and as saved text, against digests of the engine before its children
    were built sorted (same entries, same order, same file)."""
    cache = MemoCache()
    for d in _FILL_VECTORS:
        n_value(d, cache)
    assert len(cache) == 90
    items = repr(list(cache.table.items())).encode()
    assert (
        hashlib.sha256(items).hexdigest()
        == "30b6cc7bd26ed4d78b28ed8ae3934fcd9a7f8f130f5ed4c51c20ee7b6a48cceb"
    )
    buf = io.StringIO()
    cache_save(cache, buf)
    assert (
        hashlib.sha256(buf.getvalue().encode()).hexdigest()
        == "a256525b6f56febc9eb2e59a6ad47fbd2f917024f3f4a926105249d4f95b7342"
    )


def test_no_module_state_left_after_a_call():
    """Split tables live for one top-level call: in a fresh interpreter, no
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
        "assert len(cache) == 86, len(cache)\n"
        "assert sizes() == before, (before, sizes())\n"
        "print('ok')\n"
    )
    proc = _fresh_interpreter(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_negative_entry_is_zero_and_not_stored():
    """<... tau_{-1} ...> = 0: no value, no memo entry, and the memo still
    saves."""
    cache = MemoCache()
    c_value((2, 2, 5), cache)
    before = list(cache.table.items())
    for d in [(-1, 2, 2), (-1, 1, 3), (3, -2, 5), (-1,)]:
        assert n_value(d, cache) == 0, d
        assert c_value(d, cache) == ZERO, d
    assert list(cache.table.items()) == before
    cache_save(cache, io.StringIO())


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

