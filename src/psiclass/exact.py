"""Exact rational arithmetic kernel and shared combinatorial conventions.

Everything downstream (the recursion engine, the closed formulas, the series
machinery) returns exact rationals.  The recursion, the closed-formula
sums, the Painleve I coefficients, the majorant and the linear elimination
behind rational fitting run on Python ints and build a rational only at
their boundary; the rest (series jets, the identity checks) runs on ``Q``,
which is ``fractions.Fraction``.

The odd double factorial lives here and nowhere else:
``odd_double_factorial`` returns an ``int``, with ``(-1)!! = 1`` (empty
product); even or smaller arguments are an error.  So does the rounding
to decimal: ``rounded``, ``to_decimal``, ``pi_value`` and ``exp_decimal``
return a plain ``Decimal``, correctly rounded to the significant digits
the caller asks for; no digit count travels with it.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction as Q

ZERO = Q(0)
ONE = Q(1)

# pi, truncated (not rounded) after 104 significant digits.  pi_value() caps
# requests at 100 digits; the spare digits make rounding at the cap exact and
# give honest enclosing intervals for comparison work.
_PI_DIGITS = (
    "3."
    "1415926535897932384626433832795028841971693993751"
    "0582097494459230781640628620899862803482534211706798214"
)
PI_PRECISION_CAP = 100


def rounded(value: Decimal, precision: int) -> Decimal:
    """``value``, computed at a working precision, rounded to ``precision``
    significant digits."""
    with localcontext() as ctx:
        ctx.prec = precision
        return +value


def to_decimal(q, precision: int) -> Decimal:
    """``q`` correctly rounded to ``precision`` significant digits."""
    if precision < 1:
        raise ValueError("precision must be positive")
    with localcontext() as ctx:
        ctx.prec = precision
        return Decimal(q.numerator) / Decimal(q.denominator)


def pi_value(precision: int) -> Decimal:
    """pi to ``precision`` significant digits, from the stored constant.

    >>> str(pi_value(5))
    '3.1416'
    """
    if precision < 1:
        raise ValueError("precision must be positive")
    if precision > PI_PRECISION_CAP:
        raise ValueError(
            f"precision {precision} exceeds the stored constant's cap of "
            f"{PI_PRECISION_CAP} digits"
        )
    return rounded(Decimal(_PI_DIGITS), precision)


def pi_interval(digits: int = 50):
    """Exact rationals (lo, hi) with lo < pi < hi, sharp to ``digits`` digits.

    The stored constant is a truncation of pi, so taking its first ``digits``
    significant digits as a rational gives a strict lower bound and one ulp
    up a strict upper bound.  Used for comparisons against exact rationals
    that must not silently depend on floating point.
    """
    if not 1 <= digits <= len(_PI_DIGITS) - 2:
        raise ValueError("digits out of range for the stored constant")
    mantissa = int(_PI_DIGITS.replace(".", "")[:digits])
    scale = 10 ** (digits - 1)
    return Q(mantissa, scale), Q(mantissa + 1, scale)


def odd_double_factorial(m: int) -> int:
    """m!! for odd m >= -1, as an int, with (-1)!! = 1 (empty product).

    >>> odd_double_factorial(9)
    945
    """
    if m % 2 == 0 or m < -1:
        raise ValueError(f"undefined double factorial: {m}!!")
    # (2k-1)!! = (2k)! / (2^k k!) = perm(2k, k) / 2^k with k = (m + 1)/2.
    k = (m + 1) // 2
    return math.perm(2 * k, k) >> k


_BERNOULLI: list = [ONE, Q(-1, 2)]


def _extend_bernoulli(k: int) -> None:
    # Defining recurrence: sum_{j=0}^{k} binom(k+1, j) B_j = 0.
    while len(_BERNOULLI) <= k:
        m = len(_BERNOULLI)
        if m % 2 == 1:
            _BERNOULLI.append(ZERO)
            continue
        acc = ZERO
        for j in range(m):
            bj = _BERNOULLI[j]
            if bj:
                acc += math.comb(m + 1, j) * bj
        _BERNOULLI.append(Q(-1, m + 1) * acc)


def bernoulli(k: int):
    """The k-th Bernoulli number for even k >= 2 (B_1 convention -1/2).

    >>> bernoulli(2) == Q(1, 6)
    True
    """
    if k % 2 != 0 or k < 2:
        raise ValueError(f"bernoulli is defined here for even k >= 2, got {k}")
    _extend_bernoulli(k)
    return _BERNOULLI[k]


def rat_str(q) -> str:
    """Serialize an exact rational as "p/q" (denominator kept even when 1).

    ``str`` of an int past ``sys.get_int_max_str_digits()`` digits raises
    ValueError; ``Decimal`` converts such an int exactly with no cap, so
    every value prints and no process-wide setting is touched.
    """
    try:
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        return f"{str(Decimal(q.numerator))}/{str(Decimal(q.denominator))}"


def exp_decimal(q, precision: int) -> Decimal:
    """exp(q) for exact rational q, to ``precision`` significant digits."""
    with localcontext() as ctx:
        ctx.prec = precision + 5
        val = (Decimal(q.numerator) / Decimal(q.denominator)).exp()
    return rounded(val, precision)
