"""String-equation coefficients, the intersection bridge, and the growth
constant.

The b_j correction coefficients below were fixed by requiring the growth
estimate to gain one order of convergence per correction term, checked on
a ladder of genera; they are then frozen here as exact rationals.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from psiclass import painleve
from psiclass.exact import Q, ZERO
from psiclass.painleve import (
    cg_asymptotic_series,
    p1_residual,
    painleve_coeff,
    painleve_from_intersections,
    theorem_a_constant,
    theorem_a_estimate,
)

from oracles import (
    cg_asymptotic_series_reference,
    p1_residual_reference,
    painleve_coeff_reference,
)


def test_first_coefficients():
    assert painleve_coeff(0) == Q(-1)
    assert painleve_coeff(1) == Q(2)
    assert painleve_coeff(2) == Q(98)
    assert painleve_coeff(3) == Q(19600)
    assert painleve_coeff(4) == Q(8824802)


def test_coefficients_match_rational_recursion():
    for g in range(0, 121):
        assert painleve_coeff(g) == painleve_coeff_reference(g), g


def test_odd_convolution_sum_is_an_error(monkeypatch):
    # With c_2 odd the sum for c_4, 2 c_2 c_2 + ... = c_2^2, cannot be halved.
    monkeypatch.setattr(painleve, "_CG", [-1, 2, 3])
    assert painleve_coeff(3) == Q(600)
    with pytest.raises(ArithmeticError, match="odd convolution sum for c_4"):
        painleve_coeff(4)


def test_coefficients_are_positive_integers_from_g1():
    for g in range(1, 25):
        c = painleve_coeff(g)
        assert c.denominator == 1
        assert c > ZERO


def test_residual_identity():
    """The quadratic identity the recursion is equivalent to; holding for
    every g up to the probe depth certifies the truncated series solves
    the differential equation to that order."""
    for g in range(1, 13):
        assert p1_residual(g) == ZERO, g


def test_residual_matches_rational_form(monkeypatch):
    # The true c_g give 0 on both sides; perturbed ones pin the integer sum.
    painleve_coeff(30)
    cg = [c + (-1) ** g * g for g, c in enumerate(painleve._CG[:31])]
    monkeypatch.setattr(painleve, "_CG", cg)
    got = [p1_residual(g) for g in range(0, 30)]
    assert got == [p1_residual_reference(g) for g in range(0, 30)]
    assert all(got[1:])
    with pytest.raises(ValueError, match="g >= 0"):
        p1_residual(-1)


def test_bridge_small_genus():
    for g in range(2, 7):
        assert painleve_from_intersections(g) == painleve_coeff(g), g


def test_bridge_rejects_low_genus():
    with pytest.raises(ValueError):
        painleve_from_intersections(1)


def test_correction_series_frozen():
    b = cg_asymptotic_series(6)
    assert b[0] == ZERO  # b_1
    assert b[1] == ZERO  # b_2
    assert b[2] == Q(-49, 3750)
    assert b[3] == Q(-49, 1250)
    assert b[4] == Q(-2009, 18750)
    assert b[5] == Q(-9920099, 28125000)


def test_correction_series_matches_full_series_loop():
    # Each step sums one residual coefficient; the reference builds the
    # whole residual series.  An empty sum must not turn a b_j into an int.
    for K in range(1, 13):
        b = cg_asymptotic_series(K)
        assert b == cg_asymptotic_series_reference(K), K
        assert all(isinstance(bj, Fraction) for bj in b), K


def test_theorem_a_constant_digits():
    hp = theorem_a_constant(25)
    assert str(hp.value) == "0.03924152568647975336226696"


def test_estimate_converges_order_by_order():
    """Each extra correction must shrink the gap to the constant."""
    ref = theorem_a_constant(30).value
    gaps = []
    for order in (0, 3, 4, 5, 6):
        est = theorem_a_estimate(60, 30, order).value
        gaps.append(abs(est - ref))
    for a, b in zip(gaps, gaps[1:]):
        assert b < a, gaps


def test_estimate_six_digits_at_g40():
    from decimal import Decimal

    ref = theorem_a_constant(25).value
    est = theorem_a_estimate(40, 25, 6).value
    assert abs(est - ref) / ref < Decimal("5e-7")
