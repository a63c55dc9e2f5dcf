"""Properties of the recursion engine over random geometric vectors.

g <= 5, n <= 5, entries that include 0 and 1.  Derandomized, so every run
draws the same examples.  Skipped where hypothesis is not installed.
"""

from __future__ import annotations

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

from oracles import c_value_with_pivot


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
