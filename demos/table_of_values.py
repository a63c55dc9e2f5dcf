"""Print the primitive-class tables for small genus.

Every value is an exact rational; the decimal column is a 20-digit
rounding for eyeballing the nesting.
"""

from __future__ import annotations

from psiclass import c_value, primitive_vectors, rat_str
from psiclass.exact import to_decimal


def main() -> int:
    for g in (2, 3):
        rows = primitive_vectors(g)
        print(f"genus {g}: {len(rows)} primitive classes")
        for d in rows:
            v = c_value(d)
            label = ",".join(map(str, d))
            print(f"  C({label:<14s}) = {rat_str(v):>22s}  ~ {to_decimal(v, 20)}")
        print()

    # A few named values outside the primitive family.
    for d in ((1,), (0, 2), (0, 0, 3), (0, 0, 0, 1)):
        label = ",".join(map(str, d))
        print(f"C({label}) = {rat_str(c_value(d))}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
