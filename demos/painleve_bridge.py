"""The string-equation coefficients and their intersection-number bridge.

c_g grows like A * 50^g * Gamma(g)^2 with A = sqrt(3/5) / (2 pi^2);
the estimate below recovers A to many digits once the exact 1/g^k
corrections are applied.
"""

from __future__ import annotations

from psiclass import (
    painleve_coeff,
    painleve_from_intersections,
    rat_str,
    theorem_a_constant,
    theorem_a_estimate,
)


def main() -> int:
    print("g  c_g (recursion)            bridge agrees")
    ok = True
    for g in range(0, 9):
        c = painleve_coeff(g)
        tag = ""
        if g >= 2:
            agrees = painleve_from_intersections(g) == c
            ok = ok and agrees
            tag = "yes" if agrees else "NO"
        print(f"{g}  {rat_str(c):<26s} {tag}")
    print()

    a_ref = theorem_a_constant(25)
    print(f"A = {a_ref}")
    for order in (0, 3, 4, 6):
        est = theorem_a_estimate(40, 25, order)
        print(f"  estimate at g=40, corrections through 1/g^{order}: {est}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
