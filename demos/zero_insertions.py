"""Zero insertions: Theorem 2's product and Corollary 1's correction.

Zeros break the nesting, but not the uniform law.  Theorem 2 says that
pi * C(d) is approximated at large X by a product over the zero entries of
d; below, the ratio pi * C(0^k, 3g-2+k) / product climbs toward 1 with g.
It is the same for every k: on these vectors the product carries the
zeros exactly, and what is left is pi * C(3g-2) on its way to 1.
Corollary 1 says that pi * C(0^k, 2^(3g-3+k)) * e^(k^2/(30g)) tends to 1;
the deviation printed below falls with g for each k.
"""

from __future__ import annotations

from decimal import localcontext

from psiclass import c_value, corollary1_deviation, theorem2_product
from psiclass.exact import pi_value, to_decimal


def main() -> None:
    print("Corollary 1: |pi C(0^k, 2^(3g-3+k)) e^(k^2/(30g)) - 1|")
    for k in range(4):
        cells = [f"g={g}: {corollary1_deviation(g, k, 12):.3E}" for g in range(4, 8)]
        print(f"  k={k}  " + "  ".join(cells))

    print()
    print("Theorem 2: pi C(0^k, 3g-2+k) / product")
    for k in range(1, 4):
        cells = []
        for g in (4, 6, 8):
            d = (0,) * k + (3 * g - 2 + k,)
            with localcontext() as ctx:
                ctx.prec = 30
                ratio = (
                    pi_value(30)
                    * to_decimal(c_value(d), 30)
                    / to_decimal(theorem2_product(d), 30)
                )
            cells.append(f"g={g}: {ratio:.6f}")
        print(f"  k={k}  " + "  ".join(cells))


if __name__ == "__main__":
    raise SystemExit(main())
