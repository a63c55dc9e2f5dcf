"""Large-genus expansions, checked against exact values at genus 30.

pi * C(3g-2) and pi * C(2,...,2) both open with 1, and the correction
coefficients are exact rationals.  Truncating after the 1/g^4 term leaves
an error of order 1/g^5, visible below in the difference lines.

The one-point check runs at g=30 through the closed one-point formula,
which gives the value at once.
The largest-class check runs the recursion itself at g=12, where it is
still quick and already shows six matching digits.

"""

from __future__ import annotations

from decimal import Decimal, localcontext

from psiclass import c_value, one_point_c, one_point_series, largest_series, rat_str
from psiclass.exact import pi_value, to_decimal


def show(name: str, series, c_exact, g: int) -> None:
    print(f"{name}:")
    for i, coeff in enumerate(series.coeffs[:5]):
        print(f"  [1/g^{i}] {rat_str(coeff)}")
    with localcontext() as ctx:
        ctx.prec = 40
        truncated = sum(
            Decimal(int(c.numerator)) / Decimal(int(c.denominator)) / Decimal(g) ** i
            for i, c in enumerate(series.coeffs[:5])
        )
        exact = pi_value(40) * to_decimal(c_exact, 40)
        print(f"  truncation at g={g}: {truncated}")
        print(f"  exact pi*C        : {exact}")
        print(f"  difference        : {abs(truncated - exact):.3E}")
    print()


def main() -> None:
    g = 30
    show("one-point  pi*C(3g-2), g=30", one_point_series(6), one_point_c(3 * g - 2), g)
    g = 12
    show(
        "largest    pi*C(2^(3g-3)), g=12",
        largest_series(6),
        c_value((2,) * (3 * g - 3)),
        g,
    )


if __name__ == "__main__":
    raise SystemExit(main())
