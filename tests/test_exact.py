"""Arithmetic helpers: rationals, pi snapshots, Bernoulli numbers."""

from __future__ import annotations

import random
import sys
from decimal import Decimal
from math import factorial, gcd, isclose, pi, prod

import pytest

from psiclass.exact import (
    ONE,
    Q,
    ZERO,
    bernoulli,
    exp_decimal,
    odd_double_factorial,
    pi_interval,
    pi_value,
    rat_str,
    to_decimal,
)


def test_q_basic_arithmetic():
    assert Q(1, 3) + Q(1, 6) == Q(1, 2)
    assert Q(2, 4) == Q(1, 2)
    assert Q(-3, 9) * Q(3) == -ONE
    assert ZERO < Q(1, 10**30)


def test_q_random_field_axioms():
    rng = random.Random(421)
    for _ in range(200):
        a = Q(rng.randint(-50, 50), rng.randint(1, 50))
        b = Q(rng.randint(-50, 50), rng.randint(1, 50))
        c = Q(rng.randint(-50, 50), rng.randint(1, 50))
        assert (a + b) * c == a * c + b * c
        if b != ZERO:
            assert a / b * b == a


def test_odd_double_factorial():
    assert odd_double_factorial(1) == 1
    assert odd_double_factorial(3) == 3
    assert odd_double_factorial(5) == 15
    assert odd_double_factorial(7) == 105
    # (2m+1)!! = (2m+1)! / (2^m m!)
    for m in range(0, 20):
        assert odd_double_factorial(2 * m + 1) == Q(
            factorial(2 * m + 1), 2**m * factorial(m)
        )
    with pytest.raises(ValueError):
        odd_double_factorial(4)
    with pytest.raises(ValueError):
        odd_double_factorial(-3)


def test_odd_double_factorial_against_the_plain_product():
    # The library builds m!! from a falling factorial; the plain product of
    # m, m-2, ..., 1 checks it at every odd m up to 2001 (and (-1)!! = 1).
    for m in range(-1, 2002, 2):
        assert odd_double_factorial(m) == prod(range(m, 0, -2)), m


def test_bernoulli_table():
    expected = {
        2: Q(1, 6),
        4: Q(-1, 30),
        6: Q(1, 42),
        8: Q(-1, 30),
        10: Q(5, 66),
        12: Q(-691, 2730),
    }
    for k, want in expected.items():
        assert bernoulli(k) == want
    for bad in (0, 1, 3, 15):
        with pytest.raises(ValueError):
            bernoulli(bad)


def test_pi_value_digits():
    assert str(pi_value(5)) == "3.1416"
    hp = pi_value(50)
    assert len(hp.as_tuple().digits) <= 50
    assert isclose(float(hp), pi)
    with pytest.raises(ValueError):
        pi_value(0)
    with pytest.raises(ValueError):
        pi_value(101)


def test_pi_interval_brackets():
    lo, hi = pi_interval(50)
    assert lo < hi
    assert hi - lo == Q(1, 10**49)
    # The snapshot value sits inside the exact bracket.
    mid = Decimal(int(lo.numerator)) / Decimal(int(lo.denominator))
    assert abs(float(mid) - pi) < 1e-15


def _arctan_bracket(n: int, tail_pow: int):
    """Exact rational (lo, hi) with lo < arctan(1/n) < hi, width < 10^-tail_pow.

    Alternating series: consecutive partial sums bracket the limit."""
    s = ZERO
    lo = hi = None
    k = 0
    while True:
        term = Q(1, (2 * k + 1) * n ** (2 * k + 1))
        if k % 2 == 0:
            s += term
            hi = s
        else:
            s -= term
            lo = s
        if lo is not None and hi is not None and hi - lo < Q(1, 10**tail_pow):
            return lo, hi
        k += 1


def test_pi_constant_checksum():
    """The stored 100-digit constant against two independent arctan
    decompositions, all in exact rational arithmetic."""
    stored_lo, stored_hi = pi_interval(100)

    # Machin: pi = 16 arctan(1/5) - 4 arctan(1/239)
    lo5, hi5 = _arctan_bracket(5, 110)
    lo239, hi239 = _arctan_bracket(239, 110)
    machin_lo = 16 * lo5 - 4 * hi239
    machin_hi = 16 * hi5 - 4 * lo239
    assert machin_lo < machin_hi
    assert stored_lo <= machin_lo and machin_hi <= stored_hi

    # Euler: pi = 4 arctan(1/2) + 4 arctan(1/3)
    lo2, hi2 = _arctan_bracket(2, 110)
    lo3, hi3 = _arctan_bracket(3, 110)
    euler_lo = 4 * (lo2 + lo3)
    euler_hi = 4 * (hi2 + hi3)
    assert stored_lo <= euler_lo and euler_hi <= stored_hi

    # The two routes bracket a common point.
    assert machin_lo < euler_hi and euler_lo < machin_hi


def test_to_decimal_rounding():
    hp = to_decimal(Q(1, 3), 10)
    assert str(hp) == "0.3333333333"
    assert isinstance(hp, Decimal)
    assert to_decimal(Q(-7, 2), 3) == Decimal("-3.50")


def test_rat_str_round_trip():
    rng = random.Random(99)
    for _ in range(100):
        q = Q(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))
        text = rat_str(q)
        num, den = text.split("/")
        assert Q(int(num), int(den)) == q and gcd(int(num), int(den)) == 1
    assert rat_str(Q(3)) == "3/1"
    assert rat_str(Q(-2, 4)) == "-1/2"


def test_rat_str_prints_past_the_int_str_cap(uncap_int_str):
    """str() refuses an int past sys.get_int_max_str_digits() digits;
    rat_str still prints its exact digits and leaves the cap as it was."""
    cap_now = getattr(sys, "get_int_max_str_digits", lambda: None)
    cap = cap_now()
    big = 10**5000 + 12345
    values = [Q(big, 7), Q(-7, big), Q(big)]
    texts = [rat_str(q) for q in values]
    assert cap_now() == cap
    uncap_int_str()
    assert texts == [f"{q.numerator}/{q.denominator}" for q in values]


def test_exp_decimal():
    assert str(exp_decimal(Q(0), 10)) == "1"
    one = exp_decimal(Q(1), 30)
    assert str(one).startswith("2.7182818284590452")
