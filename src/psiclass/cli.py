"""Command-line front end.

Every value that leaves this module is exact ("p/q") or a tagged decimal
({"value": ..., "precision": ...}); nothing is ever printed through float
formatting of an exact quantity.  Exit status is 0 only when every check
the invocation ran came back clean, 1 when some check failed, 2 on usage
or domain errors.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

# Only the engine is imported here; each handler imports what else it uses,
# so a command does not pay start-up for modules it never runs.
from .dvv import (
    c_value,
    cache_load,
    cache_save,
    chat_value,
    default_cache,
    g_norm,
    genus_of,
    intersection_number,
    u_value,
    x_of,
)
from .exact import rat_str, to_decimal

_NORMS = {
    "u": u_value,
    "int": intersection_number,
    "c": c_value,
    "g": g_norm,
    "chat": chat_value,
}


def _parse_dvec(text: str) -> tuple:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"bad index vector {text!r}; expected e.g. 2,3")
    if any(p < 0 for p in parts) or not parts:
        raise ValueError("index entries must be nonnegative integers")
    return parts


def _vec_str(d) -> str:
    return ",".join(map(str, d))


# ----------------------------------------------------------------------
# Subcommand handlers.  Each returns (payload, ok).
# ----------------------------------------------------------------------


def _cmd_compute(args) -> Tuple[dict, bool]:
    d = _parse_dvec(args.d)
    fn = _NORMS[args.norm]
    value = fn(d)
    payload = {
        "d": _vec_str(d),
        "norm": args.norm,
        "value": rat_str(value),
        "x": rat_str(x_of(d)),
        "genus": genus_of(d),
    }
    return payload, True


def _cmd_table(args) -> Tuple[dict, bool]:
    from .partitions import primitive_vectors

    g = args.genus
    rows = []
    for d in primitive_vectors(g):
        v = c_value(d)
        rows.append(
            {
                "d": _vec_str(d),
                "n": len(d),
                "c": rat_str(v),
                "c_decimal": str(to_decimal(v, 20).value),
            }
        )
    return {"genus": g, "count": len(rows), "rows": rows}, True


def _cmd_sweep(args) -> Tuple[dict, bool]:
    from . import harness

    reports = harness.sweep_nesting(args.gmax)
    rows = []
    ok = True
    for r in reports:
        ok = ok and r.nesting_ok
        rows.append(
            {
                "genus": r.genus,
                "count": r.count,
                "partition_count": harness.partition_count(3 * r.genus - 3),
                "min_vector": _vec_str(r.min_vector),
                "min_value": rat_str(r.min_value),
                "max_vector": _vec_str(r.max_vector),
                "max_value": rat_str(r.max_value),
                "nesting_ok": r.nesting_ok,
                "max_scaled_deviation": str(r.max_scaled_deviation.value),
                "precision": r.max_scaled_deviation.precision,
                "seconds": round(r.seconds, 3),
            }
        )
    return {"rows": rows, "ok": ok}, ok


def _cmd_theta(args) -> Tuple[dict, bool]:
    from . import harness

    value = harness.theta_sweep(args.x, args.n)
    return {"x": args.x, "n": args.n, "theta": rat_str(value)}, True


def _cmd_check_formulas(args) -> Tuple[dict, bool]:
    from . import harness

    suites = harness.check_cross_formulas(args.budget)
    rows = []
    for s in suites:
        row = {"suite": s.name, "count": s.count, "ok": s.ok}
        if s.first_mismatch is not None:
            d, got, want = s.first_mismatch
            row["mismatch_d"] = _vec_str(d)
            row["mismatch_closed"] = rat_str(got)
            row["mismatch_recursion"] = rat_str(want)
        rows.append(row)
    ok = all(s.ok for s in suites)
    return {"budget": args.budget, "rows": rows, "ok": ok}, ok


def _cmd_check_identities(args) -> Tuple[dict, bool]:
    from . import harness

    rows: List[dict] = []
    ok = True

    def note(check: str, d, good: bool):
        nonlocal ok
        ok = ok and good
        rows.append({"check": check, "d": _vec_str(d), "ok": good})

    sampled = harness.sample_vectors(args.sample)
    for d in sampled:
        note("omega11", d, harness.check_omega11_identity(d))
    for d in [(2, 2, 2), (4,), (1,)] + sampled[: args.sample // 2]:
        note("c4", d, harness.check_c4_inequalities(d))
    primitive = [(7,), (2, 2, 2), (2, 2, 3, 3)]
    primitive += harness.primitive_vectors(2) + harness.primitive_vectors(3)
    for d in primitive:
        note("lemma3", d, harness.check_lemma3(d))
    return {"rows": rows, "ok": ok, "checked": len(rows)}, ok


def _cmd_counterexamples(_args) -> Tuple[dict, bool]:
    from . import harness

    rep = harness.counterexample_suite()
    rows = [
        {
            "kind": "value",
            "d": _vec_str(vec),
            "value": rat_str(have),
            "expected": rat_str(want),
            "ok": good,
        }
        for vec, have, want, good in rep.values
    ]
    rows += [
        {"kind": "inequality", "statement": name, "ok": good}
        for name, good in rep.inequalities
    ]
    return {"rows": rows, "ok": rep.ok}, rep.ok


def _cmd_painleve(args) -> Tuple[dict, bool]:
    from . import painleve

    if args.gmax < 0:
        raise ValueError("gmax must be at least 0")
    rows = []
    ok = True
    for g in range(0, args.gmax + 1):
        row: Dict[str, object] = {"g": g, "c": rat_str(painleve.painleve_coeff(g))}
        # The bridge expands C(2,...,2) through the recursion: genus 10 is
        # still cheap, and it is the range acceptance criterion 07 checks.
        if 2 <= g <= 10:
            good = painleve.painleve_from_intersections(g) == painleve.painleve_coeff(g)
            row["bridge_ok"] = good
            ok = ok and good
        if g >= 1:
            row["residual_zero"] = painleve.p1_residual(g) == 0
            ok = ok and row["residual_zero"]
        rows.append(row)
    return {"rows": rows, "ok": ok}, ok


def _cmd_asym_fit(args) -> Tuple[dict, bool]:
    from . import asym

    return (
        {
            "k": args.k,
            "ctilde": asym.mult_poly_json(args.k, asym.ctilde_poly(args.k)),
            "chat": asym.mult_poly_json(args.k, asym.chat_poly(args.k)),
        },
        True,
    )


def _cmd_asym_series(args) -> Tuple[dict, bool]:
    from . import asym

    build = asym.one_point_series if args.which == "onepoint" else asym.largest_series
    series = build(args.order)
    rows = [
        {"index": i, "coefficient": rat_str(c)}
        for i, c in enumerate(series.coeffs[: args.order + 1])
    ]
    return {"which": args.which, "order": args.order, "rows": rows}, True


def _cmd_bounds(args) -> Tuple[dict, bool]:
    from . import asym, harness

    if args.gmax < 1:
        raise ValueError("gmax must be at least 1")
    ok6, excess = asym.lemma6_check(xmax=args.gmax)
    ok7 = harness.lemma7_check(min(args.gmax, 14))
    # Below EXCESS_XMIN no X was checked for property (3): no bound to report.
    if args.gmax < asym.EXCESS_XMIN:
        excess_bound = None
    else:
        excess_bound = str(to_decimal(excess, 20).value)
    payload = {
        "x_max": args.gmax,
        "lemma6_ok": ok6,
        "excess_bound": excess_bound,
        "lemma7_ok": ok7,
        "lemma7_x_max": min(args.gmax, 14),
    }
    return payload, ok6 and ok7


# ----------------------------------------------------------------------
# Parser and output plumbing.
# ----------------------------------------------------------------------


_GLOBAL_DEFAULTS = {"cache": None, "format": "json", "out": None}


def _global_flags() -> argparse.ArgumentParser:
    # Shared by the main parser and every subparser so the flags are legal
    # on either side of the subcommand.  Defaults are SUPPRESS here (filled
    # in after parsing) or a subparser would clobber a value already parsed
    # from before the subcommand.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cache", metavar="PATH", default=argparse.SUPPRESS, help="memo file: loaded before the command if present; written after it when new or when the command added entries")
    common.add_argument("--format", choices=("json", "csv"), default=argparse.SUPPRESS)
    common.add_argument("--out", metavar="PATH", default=argparse.SUPPRESS, help="write output here instead of stdout")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _global_flags()
    parser = argparse.ArgumentParser(
        prog="psiclass",
        description="Exact psi-class intersection numbers and their checks.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add("compute", help="one value in a chosen normalization")
    p.add_argument("d", help="comma-separated indices, e.g. 2,3")
    p.add_argument("--norm", choices=sorted(_NORMS), default="c", help="u: (2d+1)!! * integral; int: bare integral; c: normalized (default); g: ratio to the (0,...,0,3g-3+n) value; chat: c divided by its genus limit")
    p.set_defaults(fn=_cmd_compute)

    p = add("table", help="all primitive classes at one genus")
    p.add_argument("--genus", type=int, required=True)
    p.set_defaults(fn=_cmd_table)

    p = add("sweep-nesting", help="extremes and deviation per genus")
    p.add_argument("--gmax", type=int, required=True)
    p.set_defaults(fn=_cmd_sweep)

    p = add("theta", help="max C over n-part classes at fixed X")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_theta)

    p = add("check-formulas", help="closed formulas vs the recursion")
    p.add_argument("--budget", default="default", help="default, or smoke for a smaller range")
    p.set_defaults(fn=_cmd_check_formulas)

    p = add("check-identities", help="sampled identity and inequality checks")
    p.add_argument("--sample", type=int, default=50)
    p.set_defaults(fn=_cmd_check_identities)

    p = add("counterexamples", help="frozen values refuting naive monotonicity")
    p.set_defaults(fn=_cmd_counterexamples)

    p = add("painleve", help="string-equation coefficients and the bridge to genus 10")
    p.add_argument("--gmax", type=int, required=True)
    p.set_defaults(fn=_cmd_painleve)

    p_asym = add("asym", help="asymptotic data")
    asub = p_asym.add_subparsers(dest="asym_command", required=True)
    p = asub.add_parser("fit", parents=[common], help="the degree-k correction polynomials")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=_cmd_asym_fit)
    p = asub.add_parser("series", parents=[common], help="large-genus expansion coefficients")
    p.add_argument("--which", choices=("onepoint", "largest"), required=True)
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(fn=_cmd_asym_series)

    p = add("bounds", help="majorant recursion and envelope checks")
    p.add_argument("--gmax", type=int, default=200, help="cap on X for the envelope sweep")
    p.set_defaults(fn=_cmd_bounds)

    return parser


def _emit(payload: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(payload, indent=2, default=str) + "\n"
    else:
        import csv  # only --format csv needs it

        buf = io.StringIO()
        rows = payload.get("rows")
        if rows:
            header: List[str] = []
            for row in rows:
                for key in row:
                    if key not in header:
                        header.append(key)
            writer = csv.DictWriter(buf, fieldnames=header)
            writer.writeheader()
            writer.writerows(rows)
        else:
            writer = csv.writer(buf)
            writer.writerow(["key", "value"])
            for key, value in payload.items():
                if isinstance(value, (dict, list)):
                    value = json.dumps(value, default=str)
                writer.writerow([key, value])
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, default in _GLOBAL_DEFAULTS.items():
        if not hasattr(args, name):
            setattr(args, name, default)
    try:
        stored = None  # entries in the --cache file; None: no file yet
        if args.cache and os.path.exists(args.cache):
            loaded = cache_load(args.cache).table
            default_cache().table.update(loaded)
            stored = len(loaded)
        payload, ok = args.fn(args)
        # Saved first, so a failed save prints no payload.  The memo only
        # grows: an unchanged count means the file holds every entry.
        if args.cache and (stored is None or len(default_cache()) > stored):
            cache_save(default_cache(), args.cache)
        _emit(payload, args)
    except (OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
