"""Truncated series in 1/x: ring operations, exp/log, composition."""

from __future__ import annotations

import random

import pytest

from psiclass.exact import ONE, Q, ZERO
from psiclass.series import SeriesInvX


def _rand_series(rng: random.Random, order: int, unit: bool = False) -> SeriesInvX:
    coeffs = [Q(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)]
    if unit:
        coeffs[0] = Q(rng.choice([1, -1, 2, 3]), rng.choice([1, 2]))
    return SeriesInvX(coeffs)


def test_constructors():
    s = SeriesInvX.monomial(Q(5), 2, 4)
    assert s.coeffs == (ZERO, ZERO, Q(5), ZERO, ZERO)
    assert SeriesInvX.one(3)[0] == ONE
    assert SeriesInvX([ZERO, ZERO, ZERO]) == SeriesInvX.zero(2)


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
        assert prod == SeriesInvX.one(6)
        t = _rand_series(rng, 6)
        assert (t / s) * s == t
    with pytest.raises(ValueError):
        SeriesInvX([ZERO, ONE]).inverse()


def test_exp_log_inverse_pair():
    rng = random.Random(13)
    for _ in range(30):
        s = _rand_series(rng, 5)
        coeffs = list(s.coeffs)
        coeffs[0] = ZERO  # exp/log need vanishing constant term
        s = SeriesInvX(coeffs)
        assert s.exp().log() == s
        assert s.exp()[0] == ONE


def test_exp_of_sum_is_product():
    rng = random.Random(17)
    for _ in range(20):
        a = _rand_series(rng, 5)
        b = _rand_series(rng, 5)
        za = SeriesInvX([ZERO] + list(a.coeffs[1:]))
        zb = SeriesInvX([ZERO] + list(b.coeffs[1:]))
        assert (za + zb).exp() == za.exp() * zb.exp()


def test_compose():
    # f(y) = 1 + y + y^2 composed with y = 2/x
    f = SeriesInvX([ONE, ONE, ONE])
    inner = SeriesInvX.monomial(Q(2), 1, 2)
    got = f.compose(inner)
    assert got.coeffs == (ONE, Q(2), Q(4))
    with pytest.raises(ValueError):
        f.compose(SeriesInvX([ONE, ONE, ONE]))  # inner needs zero constant


def test_truncate_and_eq_ignore_order_mismatch():
    s = SeriesInvX([ONE, Q(2), Q(3)])
    t = s.truncate(1)
    assert t.coeffs == (ONE, Q(2))
    assert t != s
