"""The Painleve I side: coefficients c_g, the bridge to C(2,...,2), and
the large-g law c_g ~ A 50^g Gamma(g)^2 (1 + sum_j b_j g^-j).

The c_g satisfy the quadratic recursion

    c_g = 50 (g-1)^2 c_{g-1} + (1/2) sum_{h=2}^{g-2} c_h c_{g-h},
    c_0 = -1, c_1 = 2, c_2 = 98,

and are integers: the recursion runs on Python ints and painleve_coeff
returns Q(c_g).  The convolution is summed in blocks of B = 16 indices.
A pair with an index below B is multiplied directly at its m.  Each pair
of index blocks [B I, B I + B) x [B J, B J + B), 1 <= I <= J, is
multiplied once, by a Karatsuba product of the two blocks, when m reaches
B (I + J); its 2B - 1 coefficients wait in sums for m .. m + 2B - 2.  The
full ordered sum is checked to be even before it is halved.  The
coefficients are tied to intersection numbers through the bridge (g >= 2)

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
from typing import Dict, List

from .dvv import c_value
from .exact import ONE, PI_PRECISION_CAP, Q, ZERO, pi_value, rounded, to_decimal
from .series import SeriesInvX, reindex_coeff

_CG: List[int] = [-1, 2, 98]

# The largest order K of the b_j correction series.
SERIES_CAP = 12

# The block size of painleve_coeff's convolution: of 4, 8, 16 and 32, 16
# ran fastest at g = 300.
_BLOCK = 16
# The block products summed so far for the c_m not yet built: the _CG list
# and the length they belong to, and {m: partial sum}.
_SUMS: list = [None, 0, {}]


def _kmul(a: List[int], b: List[int]) -> List[int]:
    """The coefficients of (sum a_i x^i)(sum b_i x^i) for two lists of one
    length, a power of two from 2: Karatsuba, three half-length products
    for four."""
    n = len(a)
    if n == 2:
        a0, a1 = a
        b0, b1 = b
        lo, hi = a0 * b0, a1 * b1
        return [lo, (a0 + a1) * (b0 + b1) - lo - hi, hi]
    h = n // 2
    lo = _kmul(a[:h], b[:h])
    hi = _kmul(a[h:], b[h:])
    mid = _kmul(
        [x + y for x, y in zip(a[:h], a[h:])], [x + y for x, y in zip(b[:h], b[h:])]
    )
    out = lo + [0] + hi
    for i, (p, l, u) in enumerate(zip(mid, lo, hi), h):
        out[i] += p - l - u
    return out


def _add_blocks(sums: Dict[int, int], s: int, first: int) -> None:
    """Add the products of the block pairs with I + J = s, doubled when
    I < J, to sums[m] for each m >= first."""
    B = _BLOCK
    for I in range(1, s // 2 + 1):
        J = s - I
        prod = _kmul(_CG[B * I : B * I + B], _CG[B * J : B * J + B])
        for m, p in enumerate(prod, B * s):
            if m >= first:
                sums[m] = sums.get(m, 0) + (2 * p if I < J else p)


def _block_sums() -> Dict[int, int]:
    """The pending block sums of _CG, rebuilt from _CG when they belong to
    another list or length: the rows s with B s <= len(_CG) that still
    reach an m >= len(_CG), at most two."""
    cg, n, sums = _SUMS
    if cg is not _CG or n != len(_CG):
        n, sums = len(_CG), {}
        for s in range(max(2, (n + 1) // _BLOCK - 1), n // _BLOCK + 1):
            _add_blocks(sums, s, n)
        _SUMS[:] = [_CG, n, sums]
    return sums


def painleve_coeff(g: int):
    """c_g, exactly.

    >>> painleve_coeff(3) == Q(19600)
    True
    """
    if g < 0:
        raise ValueError("painleve_coeff needs g >= 0")
    sums = _block_sums()
    while len(_CG) <= g:
        m = len(_CG)
        # sum_{h=2}^{m-2} c_h c_{m-h}: twice the pairs whose smaller index
        # is below _BLOCK, the middle square while m/2 < _BLOCK, and the
        # pairs of blocks in sums[m].
        full = sums.get(m, 0) + 2 * sum(
            _CG[h] * _CG[m - h] for h in range(2, min(_BLOCK, (m + 1) // 2))
        )
        if m % 2 == 0 and m < 2 * _BLOCK:
            full += _CG[m // 2] ** 2
        half, odd = divmod(full, 2)
        if odd:
            raise ArithmeticError(f"odd convolution sum for c_{m}")
        _CG.append(50 * (m - 1) ** 2 * _CG[m - 1] + half)
        sums.pop(m, None)
        if (m + 1) % _BLOCK == 0 and m + 1 >= 2 * _BLOCK:
            _add_blocks(sums, (m + 1) // _BLOCK, m + 1)
        _SUMS[1] = m + 1
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
    if not 1 <= K <= SERIES_CAP:
        raise ValueError(f"cg_asymptotic_series supports 1 <= K <= {SERIES_CAP}")
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


def theorem_a_constant(precision: int = 30) -> Decimal:
    """A = sqrt(3/5) / (2 pi^2) to the requested number of digits, 1 to 90:
    the work adds 10 guard digits to pi, which is stored to 100."""
    if not 1 <= precision <= PI_PRECISION_CAP - 10:
        raise ValueError(
            f"theorem_a_constant needs 1 <= precision <= {PI_PRECISION_CAP - 10}"
        )
    pi = pi_value(precision + 10)
    with localcontext() as ctx:
        ctx.prec = precision + 10
        val = Decimal(3).sqrt() / Decimal(5).sqrt() / (2 * pi**2)
    return rounded(val, precision)


def theorem_a_estimate(
    g: int, precision: int = 30, correction_order: int = 0
) -> Decimal:
    """A estimated from c_g: c_g / (50^g Gamma(g)^2 (1 + sum_{j<=J} b_j g^-j)).

    With correction_order 0 the deviation from A is of order g^-3 (the
    first nonzero correction is b_3).
    """
    if g < 1:
        raise ValueError("theorem_a_estimate needs g >= 1")
    if precision < 1:
        raise ValueError("theorem_a_estimate needs precision >= 1")
    if not 0 <= correction_order <= SERIES_CAP:
        raise ValueError(
            f"theorem_a_estimate needs 0 <= correction_order <= {SERIES_CAP}"
        )
    ratio = painleve_coeff(g) / Q(50**g * factorial(g - 1) ** 2)
    if correction_order:
        corr = ONE
        for j, bj in enumerate(cg_asymptotic_series(correction_order), start=1):
            corr += bj / Q(g) ** j
        ratio = ratio / corr
    return to_decimal(ratio, precision)
