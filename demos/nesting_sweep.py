"""Walk the primitive classes genus by genus and watch the nesting.

The minimum always sits on the one-point class (3g-2) and the maximum on
(2,...,2), while every value crowds toward 1/pi; the worst scaled distance
g * |C - 1/pi| settles near 0.1503.  Zeros would break the picture: the
counterexample suite at the end shows how.
"""

from __future__ import annotations

import argparse

from psiclass import counterexample_suite, sweep_nesting


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gmax", type=int, default=5)
    args = ap.parse_args()

    reports = sweep_nesting(args.gmax)
    for rep in reports:
        print(
            f"g={rep.genus}: {rep.count} classes, "
            f"min at {rep.min_vector}, max at (2,)*{len(rep.max_vector)}, "
            f"nested={'yes' if rep.nesting_ok else 'NO'}, "
            f"max g|C-1/pi| = {str(rep.max_scaled_deviation)[:12]}"
        )

    print()
    rep = counterexample_suite()
    for name, ok in rep.inequalities:
        print(f"  {name}: {'holds' if ok else 'FAILS'}")
    return 0 if rep.ok and all(r.nesting_ok for r in reports) else 1


if __name__ == "__main__":
    raise SystemExit(main())
