"""The Painleve I side: coefficients c_g, the bridge to C(2,...,2), and
the large-g law c_g ~ A 50^g Gamma(g)^2 (1 + sum_j b_j g^-j).

The c_g satisfy the quadratic recursion

    c_g = 50 (g-1)^2 c_{g-1} + (1/2) sum_{h=2}^{g-2} c_h c_{g-h},
    c_0 = -1, c_1 = 2, c_2 = 98,

and are integers: the recursion runs on Python ints, the convolution over
half its range by symmetry with the halving checked to be exact, and
painleve_coeff returns Q(c_g).  They are tied to intersection numbers
through the bridge (g >= 2)

    c_g = 2^g 3^(3g-2) 5^(3-3g) (5g-5)! (5g-3) / (3g-3)! * C(2^(3g-3)).

A structurally different consequence of the same differential equation is
the residual identity (with e_g = (1-5g)/2)

    c_g e_g (e_g - 1) + (1/16) sum_{g1+g2=g+1} c_{g1} c_{g2} = 0,

which p1_residual exposes; tests use it as an independent consistency
check on the recursion.

For the subleading corrections b_j, substitute c_g = 50^g Gamma(g)^2 A
S(1/g) into the recursion.  The leading term cancels exactly, leaving

    S(1/g) - S(1/(g-1)) =
        sum_{h>=2} c_h 50^-h S(1/(g-h)) / prod_{i=1}^h (g-i)^2,

where each fixed-h term starts at order g^(-2h) and the large-h half of
the original convolution is exponentially small, hence invisible at any
polynomial order.  In x = 1/g each shifted argument is 1/(g-h) = x/(1-hx),
so S(1/(g-h)) is S reindexed by that map.  Matching coefficients of x
order by order determines the b_j; only h <= (K+1)/2 matter for b_1..b_K.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from math import factorial
from typing import List

from .dvv import c_value
from .exact import HPDecimal, ONE, Q, ZERO, pi_value, rounded, to_decimal
from .series import SeriesInvX, reindex_coeff

_CG: List[int] = [-1, 2, 98]


def painleve_coeff(g: int):
    """c_g, exactly.

    >>> painleve_coeff(3) == Q(19600)
    True
    """
    if g < 0:
        raise ValueError("painleve_coeff needs g >= 0")
    while len(_CG) <= g:
        m = len(_CG)
        # sum_{h=2}^{m-2} c_h c_{m-h} = 2 * (pairs with h < m - h) + c_{m/2}^2,
        # so its half is the pairs plus half the middle square, when m is even.
        conv = sum(_CG[h] * _CG[m - h] for h in range(2, (m + 1) // 2))
        if m % 2 == 0:
            half, odd = divmod(_CG[m // 2] ** 2, 2)
            if odd:
                raise ArithmeticError(f"odd convolution sum for c_{m}")
            conv += half
        _CG.append(50 * (m - 1) ** 2 * _CG[m - 1] + conv)
    return Q(_CG[g])


def p1_residual(g: int):
    """c_g e_g (e_g - 1) + (1/16) sum_{g1+g2=g+1} c_{g1} c_{g2}, e_g=(1-5g)/2.

    Identically zero; a nonzero value would flag a defect in the recursion.
    With e_g (e_g - 1) = (25g^2 - 1)/4, 64 times the residual is the integer
    16 c_g (25g^2 - 1) + 4 sum c_{g1} c_{g2}, summed on the ints of _CG.
    """
    if g < 0:
        raise ValueError("p1_residual needs g >= 0")
    painleve_coeff(g + 1)  # fills _CG up to c_{g+1}
    conv = sum(_CG[g1] * _CG[g + 1 - g1] for g1 in range(g + 2))
    return Q(16 * _CG[g] * (25 * g * g - 1) + 4 * conv, 64)


def painleve_from_intersections(g: int):
    """c_g recovered from C(2, ..., 2) with 3g-3 twos, for g >= 2."""
    if g < 2:
        raise ValueError("the intersection bridge needs g >= 2")
    val = c_value((2,) * (3 * g - 3))
    return (
        Q(2**g * 3 ** (3 * g - 2) * (5 * g - 3), 5 ** (3 * g - 3))
        * factorial(5 * g - 5)
        / factorial(3 * g - 3)
        * val
    )


def cg_asymptotic_series(K: int) -> List:
    """[b_1, ..., b_K] with c_g ~ A 50^g Gamma(g)^2 (1 + sum b_j g^-j).

    Solved order by order from the functional equation in the module
    docstring: with b_1..b_{J-1} known and b_J trialled as 0, the residual's
    x^(J+1) coefficient equals J * b_J (b_J enters the left side at that
    order through the 1/(g-1) substitution only, and the right side not
    before x^(J+4)).  Step J reads only that one coefficient, so it is
    summed directly from the prefactors and the closed-form coefficients of
    each reindexed S (series.reindex_coeff with a = 1, c = h), without
    building the residual series.

    >>> cg_asymptotic_series(3)[2] == Q(-49, 3750)
    True
    """
    if not 1 <= K <= 12:
        raise ValueError("cg_asymptotic_series supports 1 <= K <= 12")
    N = K + 1
    b = [ONE] + [ZERO] * K
    H = (K + 1) // 2
    # The h-term prefactors; S(1/(g-h)) is S reindexed by x -> x/(1-hx).
    prefs = []
    for h in range(2, H + 1):
        pref = SeriesInvX.monomial(painleve_coeff(h) * Q(1, 50**h), 2 * h, N)
        for i in range(1, h + 1):
            # 1/(1 - i x)^2 = sum (m+1) i^m x^m
            pref = pref * SeriesInvX(
                [(m + 1) * Q(i) ** m for m in range(N + 1)], N
            )
        prefs.append((h, pref))
    for J in range(1, K + 1):
        # S's own x^(J+1) coefficient is b_(J+1), still 0.
        r = -reindex_coeff(b, 1, 1, J + 1)
        for h, pref in prefs:
            for i in range(2 * h, J + 2):
                r -= pref.coeffs[i] * reindex_coeff(b, 1, h, J + 1 - i)
        b[J] = r / J
    return b[1:]


def theorem_a_constant(precision: int = 30) -> HPDecimal:
    """A = sqrt(3/5) / (2 pi^2) to the requested number of digits."""
    pi = pi_value(precision + 10)
    with localcontext() as ctx:
        ctx.prec = precision + 10
        val = Decimal(3).sqrt() / Decimal(5).sqrt() / (2 * pi.value**2)
    return rounded(val, precision)


def theorem_a_estimate(
    g: int, precision: int = 30, correction_order: int = 0
) -> HPDecimal:
    """A estimated from c_g: c_g / (50^g Gamma(g)^2 (1 + sum_{j<=J} b_j g^-j)).

    With correction_order 0 the deviation from A is of order g^-3 (the
    first nonzero correction is b_3).
    """
    if g < 1:
        raise ValueError("theorem_a_estimate needs g >= 1")
    ratio = painleve_coeff(g) / Q(50**g * factorial(g - 1) ** 2)
    if correction_order:
        corr = ONE
        for j, bj in enumerate(cg_asymptotic_series(correction_order), start=1):
            corr += bj / Q(g) ** j
        ratio = ratio / corr
    return to_decimal(ratio, precision)
