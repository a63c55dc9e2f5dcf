"""Properties of the recursion engine over random geometric vectors.

g <= 5, n <= 5, entries that include 0 and 1.  Derandomized, so every run
draws the same examples.  Skipped where hypothesis is not installed.
Last, the memo loader against its line-by-line oracle on mutated files.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from psiclass.closed import n_point
from psiclass.dvv import (
    MemoCache,
    c_value,
    cache_load,
    cache_save,
    genus_of,
    intersection_number,
    n_value,
    x_int,
)
from psiclass.exact import Q, ZERO

from oracles import c_value_with_pivot, cache_load_reference, memo_items


_PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)


@st.composite
def geometric_vectors(draw, gmax=5, nmax=5):
    """A random ordering of a random composition of 3g - 3 + n into n parts."""
    g = draw(st.integers(0, gmax))
    n = draw(st.integers(3 if g == 0 else 1, nmax))
    total = 3 * g - 3 + n
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=n - 1, max_size=n - 1)))
    parts = [hi - lo for lo, hi in zip([0] + cuts, cuts + [total])]
    return tuple(draw(st.permutations(parts)))


@_PROPERTY
@given(geometric_vectors())
def test_property_n_is_a_positive_integer(d):
    n = n_value(d)
    assert type(n) is int and n > 0
    g, n_marks = genus_of(d), len(d)
    X = 2 * g - 2 + n_marks
    scale = 6**g * math.factorial(g) * 3**X * math.factorial(X - 1)
    assert c_value(d) == Q(n, scale)
    # One more entry moves |d| - n off the multiples of 3.
    assert n_value(d + (0,)) == 0 and c_value(d + (2,)) == ZERO


@_PROPERTY
@given(geometric_vectors())
def test_property_engine_matches_closed_n_point(d):
    assert c_value(d) == n_point(d)


@_PROPERTY
@given(geometric_vectors())
def test_property_dilaton_and_string(d):
    # Dilaton: N(1, d) = 3 X(d) N(d), also when the recursion itself
    # expands at the 1 instead of stripping it.
    assert n_value((1,) + d) == 3 * x_int(d) * n_value(d)
    assert c_value_with_pivot((1,) + d, 0) == c_value(d)
    # String: the engine pivots at a 0 when d has one; expanding at the
    # largest entry must agree, and so must the string equation
    # <tau_0 tau_d'> = sum_j <tau_{d'_j - 1} ...> on the intersection numbers.
    if 0 in d and x_int(d) >= 2:
        assert c_value_with_pivot(d, d.index(max(d))) == c_value(d)
        rest = list(d)
        rest.remove(0)
        lowered = [rest[:j] + [v - 1] + rest[j + 1 :] for j, v in enumerate(rest) if v]
        want = sum((intersection_number(e) for e in lowered), ZERO)
        assert intersection_number(d) == want


@_PROPERTY
@given(st.lists(geometric_vectors(), min_size=1, max_size=4))
def test_property_memo_round_trip(vectors):
    cache = MemoCache()
    for d in vectors:
        n_value(d, cache)
    # A directory per example: Hypothesis refuses function-scoped fixtures
    # such as tmp_path.
    with tempfile.TemporaryDirectory() as tmp:
        first = os.path.join(tmp, "memo.cache")
        cache_save(cache, first)
        loaded = cache_load(first)
        assert loaded.table == cache.table
        again = os.path.join(tmp, "again.cache")
        cache_save(loaded, again)
        with open(first, "rb") as a, open(again, "rb") as b:
            assert a.read() == b.read()


def _memo_lines() -> list:
    """The body lines of a valid memo, one-point entries (4,), (7,), (10,)
    and keys with 0s among them."""
    cache = MemoCache()
    for d in [(2, 2, 5), (0, 0, 3, 4), (10,), (3, 6), (0, 2, 2, 2, 3)]:
        n_value(d, cache)
    return [f"{','.join(map(str, k))} = {v:x}" for k, v in sorted(memo_items(cache))]


_MEMO_LINES = _memo_lines()
_NON_ASCII_DIGITS = ("\u0660", "\uff10", "\u09e6")  # Arabic-Indic, fullwidth, Bengali 0


@st.composite
def _mutated_key(draw, parts: list) -> str:
    parts = list(parts)
    kinds = ["sign", "zero", "underscore", "space", "digit", "one", "order", "shift"]
    kind = draw(st.sampled_from(kinds))
    j = draw(st.integers(0, len(parts) - 1))
    p = parts[j]
    if kind == "sign":
        parts[j] = draw(st.sampled_from("+-")) + p
    elif kind == "zero":
        parts[j] = "0" + p
    elif kind == "underscore":
        parts[j] = p[0] + "_" + p[1:] if len(p) > 1 else "0_" + p
    elif kind == "digit":
        i = draw(st.integers(0, len(p) - 1))
        zero = draw(st.sampled_from(_NON_ASCII_DIGITS))
        parts[j] = p[:i] + chr(ord(zero) + int(p[i])) + p[i + 1 :]
    elif kind == "one":
        parts.insert(bisect.bisect([int(q) for q in parts], 1), "1")
    elif kind == "order":
        parts = draw(st.permutations(parts))
    elif kind == "shift":  # off geometry, or by 3 onto a key whose N differs
        parts[j] = str(int(p) + draw(st.sampled_from([-1, 1, 3])))
    key = ",".join(parts)
    if kind == "space":
        i = draw(st.integers(0, len(key)))
        key = key[:i] + " " + key[i:]
    return key


@st.composite
def _mutated_value(draw, value: str) -> str:
    kind = draw(st.sampled_from(["upper", "zero", "leading zero", "non-hex", "other"]))
    if kind == "other":  # another entry's value: a one-point entry must refuse it
        return draw(st.sampled_from(_MEMO_LINES)).partition(" = ")[2]
    if kind == "upper":
        return value.upper()
    if kind == "zero":
        return "0"
    if kind == "leading zero":
        return "0" + value
    i = draw(st.integers(0, len(value) - 1))
    return value[:i] + draw(st.sampled_from("gxG/.-+ ")) + value[i + 1 :]


@st.composite
def mutated_memos(draw) -> str:
    """A valid memo body with one or two lines mutated, under a header
    that states its count and SHA-256 afresh."""
    lines = list(_MEMO_LINES)
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        key, sep, value = lines[i].partition(" = ")
        kind = draw(st.sampled_from(["key", "value", "duplicate", "empty", "drop"]))
        if kind == "key" and sep:
            lines[i] = draw(_mutated_key(key.split(","))) + sep + value
        elif kind == "value" and sep:
            lines[i] = key + sep + draw(_mutated_value(value))
        elif kind == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif kind == "empty":
            if draw(st.booleans()):
                lines.insert(i, "")
            else:
                lines[i] = ""
        elif kind == "drop" and len(lines) > 1:
            del lines[i]
    body = "".join(line + "\n" for line in lines)
    digest = hashlib.sha256(body.encode()).hexdigest()
    return f"{MemoCache.FORMAT} entries={len(lines)} sha256={digest}\n{body}"


def _load_outcome(load, path):
    """The loaded table's items in insertion order, or the error text."""
    try:
        return memo_items(load(path))
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(derandomize=True, deadline=None, max_examples=400)
@given(mutated_memos())
def test_property_cache_load_matches_line_by_line_oracle(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "memo.cache")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        assert _load_outcome(cache_load, path) == _load_outcome(cache_load_reference, path)
