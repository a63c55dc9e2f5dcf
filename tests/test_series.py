"""Truncated series in 1/x: ring operations, exp/log, reindexing."""

from __future__ import annotations

import random

import pytest

from psiclass.exact import ONE, Q, ZERO
from psiclass.series import SeriesInvX

from oracles import compose


def _rand_series(rng: random.Random, order: int, unit: bool = False) -> SeriesInvX:
    coeffs = [Q(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)]
    if unit:
        coeffs[0] = Q(rng.choice([1, -1, 2, 3]), rng.choice([1, 2]))
    return SeriesInvX(coeffs)


def test_constructors():
    s = SeriesInvX.monomial(Q(5), 2, 4)
    assert s.coeffs == (ZERO, ZERO, Q(5), ZERO, ZERO)
    assert SeriesInvX.one(3).coeffs[0] == ONE
    assert SeriesInvX([ZERO, ZERO, ZERO]).coeffs == SeriesInvX.zero(2).coeffs


def test_mul_matches_convolution():
    a = SeriesInvX([Q(1), Q(2), Q(3)])
    b = SeriesInvX([Q(4), Q(5), Q(6)])
    c = a * b
    assert c.coeffs == (Q(4), Q(13), Q(28))


def test_inverse_and_division():
    rng = random.Random(7)
    for _ in range(30):
        s = _rand_series(rng, 6, unit=True)
        prod = s * s.inverse()
        assert prod.coeffs == SeriesInvX.one(6).coeffs
        t = _rand_series(rng, 6)
        assert ((t / s) * s).coeffs == t.coeffs
    with pytest.raises(ValueError):
        SeriesInvX([ZERO, ONE]).inverse()


def test_exp_log_inverse_pair():
    rng = random.Random(13)
    for _ in range(30):
        s = _rand_series(rng, 5)
        coeffs = list(s.coeffs)
        coeffs[0] = ZERO  # exp/log need vanishing constant term
        s = SeriesInvX(coeffs)
        assert s.exp().log().coeffs == s.coeffs
        assert s.exp().coeffs[0] == ONE


def test_exp_of_sum_is_product():
    rng = random.Random(17)
    for _ in range(20):
        a = _rand_series(rng, 5)
        b = _rand_series(rng, 5)
        za = SeriesInvX([ZERO] + list(a.coeffs[1:]))
        zb = SeriesInvX([ZERO] + list(b.coeffs[1:]))
        assert (za + zb).exp().coeffs == (za.exp() * zb.exp()).coeffs


def test_reindex():
    # f(y) = 1 + y + y^2 at y = 2u: the map a u/(1 - c u) with a = 2, c = 0.
    f = SeriesInvX([ONE, ONE, ONE])
    assert f.reindex(2, 0).coeffs == (ONE, Q(2), Q(4))
    # Against Horner composition with the inner a u/(1 - c u) built by
    # series division, on random series of orders 0, 1 and 12.
    rng = random.Random(29)
    maps = [(1, 1), *((1, h) for h in range(2, 7)), (2, 0), (2, -1), (2, 3)]
    for a, c in maps:
        for order in (0, 1, 12):
            inner = SeriesInvX([ZERO, Q(a)], order) / SeriesInvX([ONE, Q(-c)], order)
            for _ in range(3):
                s = _rand_series(rng, order)
                assert s.reindex(a, c).coeffs == compose(s, inner).coeffs, (a, c, order)
    with pytest.raises(ValueError):
        compose(f, SeriesInvX([ONE, ONE, ONE]))  # inner needs zero constant


def test_truncate_and_eq_ignore_order_mismatch():
    s = SeriesInvX([ONE, Q(2), Q(3)])
    t = SeriesInvX(s.coeffs, 1)
    assert t.coeffs == (ONE, Q(2))
    # Sums and products truncate to the smaller order.
    assert (s + t).coeffs == (Q(2), Q(4))
    assert (s * t).coeffs == (ONE, Q(4))
