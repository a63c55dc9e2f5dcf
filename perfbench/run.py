"""psiclass benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the program is imported from its
``src/`` directory, never from an installed copy.  The run starts fresh
worker processes (``worker.py``), one repetition each, until ``--seconds``
have been spent, with at least three.  The first repetition also checks
every value it produced along an independent route (``checks.py``); every
later one must reproduce the first one's outputs exactly.

With ``--trace 0`` the end-to-end metrics are the medians over the
repetitions.  With ``--trace 1`` repetitions alternate untraced and
traced; the traced ones record spans around each call into psiclass
(``tracing.py``), the per-layer metrics are their medians, and
``trace.overhead_s`` is the traced minus the untraced median wall time.
Spans are written to ``.perfbench-out/`` at the end.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment and every metric by name and unit.  The exit code is
0 when every value was correct, 1 when one was not, and 2 when the
checkout holds no psiclass sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import workloads
from reference import NOMINAL_SLICE_S
from tracing import self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
WORKER = os.path.join(HERE, "worker.py")

MIN_REPS = 3
MIN_TRACED_REPS = 4  # two untraced, two traced
RUN_LIMIT_S = 170.0  # every run must end within 180 s

END_TO_END = {"setup_s": "s", "wall_ref": "ref", "peak_rss_mb": "MB"}

PER_LAYER = {
    "wall_s": "s",
    "ref_s": "s",
    "setup_raw_s": "s",
    "dvv.c_value_s": "s",
    "dvv.c_value_calls": "count",
    "dvv.memo_entries": "count",
    "dvv.memo_hit_ratio": "1",
    "dvv.value_bits_max": "bits",
    "dvv.cache_load_s": "s",
    "dvv.cache_save_s": "s",
    "dvv.memo_file_bytes": "bytes",
    "exact.q_mul_ns": "ns",
    "exact.q_add_ns": "ns",
    "harness.primitive_vectors_s": "s",
    "harness.sweep_nesting_s": "s",
    "closed.two_point_s": "s",
    "closed.two_point_calls": "count",
    "closed.three_point_s": "s",
    "closed.three_point_calls": "count",
    "closed.four_point_s": "s",
    "closed.four_point_calls": "count",
    "closed.n_point_s": "s",
    "closed.n_point_calls": "count",
    "painleve.coeff_s": "s",
    "painleve.series_s": "s",
    "asym.table_fit_s": "s",
    "asym.lemma6_s": "s",
    "asym.series_s": "s",
    "cli.startup_ms": "ms",
    "cli.compute_ms": "ms",
    "cli.table_ms": "ms",
    "command_p50_ms": "ms",
    "command_tail_ms": "ms",
    "trace.overhead_s": "s",
}

# Spans whose self time and count become "<name>_s" and "<name>_calls".
SPAN_LAYERS = (
    "dvv.c_value",
    "harness.primitive_vectors",
    "harness.sweep_nesting",
    "closed.two_point",
    "closed.three_point",
    "closed.four_point",
    "closed.n_point",
    "painleve.coeff",
    "painleve.series",
    "asym.table_fit",
    "asym.lemma6",
    "asym.series",
)


def git_sha() -> Optional[str]:
    """The checkout's commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def run_rep(req: dict, timeout: float) -> Optional[dict]:
    """One worker process; its parsed result with its set-up time, or None.

    ``setup_raw_s`` runs from just before the spawn to the moment the worker
    is ready to time.  ``setup_s`` is the same in seconds at the nominal
    host speed: scaled by the nominal over the measured slice time of the
    repetition's reference slices (see reference.py), because the host's
    speed drift moved the raw figure's median by up to 26% between two sets
    of ten runs of unchanged code.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, WORKER, json.dumps(req)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"rep {req['run_id']}: timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"rep {req['run_id']}: exit {proc.returncode}\n{err}", file=sys.stderr)
        return None
    rep = json.loads(out.strip().splitlines()[-1])
    rep["setup_raw_s"] = rep["ready"] - spawned
    rep["setup_s"] = rep["setup_raw_s"] * NOMINAL_SLICE_S / rep["ref_s"]
    return rep


def tail(samples: List[float]):
    """(value, percentile, count): the highest percentile that still has at
    least ten samples above it."""
    ordered = sorted(samples)
    at = len(ordered) - 10
    if at < 1:
        return None
    return ordered[at - 1], 100 * at // len(ordered), len(ordered)


def layer_metrics(traced: List[dict]) -> Dict[str, float]:
    """Per-layer medians over the traced repetitions."""
    per_rep = []
    for rep in traced:
        m = dict(rep.get("layers", {}))
        times = self_times(rep["spans"])
        for span in SPAN_LAYERS:
            total, calls = times.get(span, (0.0, 0))
            m[span + "_s"] = total
            m[span + "_calls"] = calls
        for span in ("cli.compute", "cli.table"):
            durations = [s[2] - s[1] for s in rep["spans"] if s[0] == span]
            m[span + "_ms"] = statistics.median(durations) * 1e3 if durations else 0.0
        per_rep.append(m)
    return {
        name: statistics.median(m.get(name, 0.0) for m in per_rep)
        for name in PER_LAYER
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SIZES), default="full",
                        help="input sizes; 'tiny' is for the self-tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "psiclass", "__init__.py")):
        print(f"error: no psiclass sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    started = time.monotonic()
    tmp_root = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(tmp_root, exist_ok=True)
    reps: List[Optional[dict]] = []
    try:
        min_reps = MIN_TRACED_REPS if args.trace else MIN_REPS
        durations: List[float] = []
        while True:
            elapsed = time.monotonic() - started
            typical = statistics.median(durations) if durations else 0.0
            if len(reps) >= min_reps and elapsed + typical > args.seconds:
                break
            if elapsed + typical > RUN_LIMIT_S - 20:
                break
            i = len(reps)
            tmp = os.path.join(tmp_root, str(i))
            os.makedirs(tmp)
            req = {
                "workload": args.workload, "seed": args.seed, "scale": args.scale,
                "trace": bool(args.trace and i % 2), "check": i == 0,
                "run_id": f"{args.workload}-{args.seed}-{i}", "tmp": tmp,
            }
            t0 = time.monotonic()
            reps.append(run_rep(req, RUN_LIMIT_S - elapsed))
            durations.append(time.monotonic() - t0)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)

    # Operations: the first repetition's are the reference; a later one
    # fails every operation whose output differs, a lost one fails them all.
    ref = reps[0]
    expected = len(ref["ops"]) if ref else 1
    attempted = expected * len(reps)
    failed = 0
    for rep in reps:
        if rep is None or ref is None:
            failed += expected
            continue
        bad = set(rep.get("bad", []))
        bad |= {k for k, v in ref["ops"].items() if rep["ops"].get(k) != v}
        failed += len(bad)
    good = [r for r in reps if r is not None]
    untraced = [r for r in good if "spans" not in r]
    traced = [r for r in good if "spans" in r]

    env = dict(ref["env"] if ref else {}, seed=args.seed, workload=args.workload,
               scale=args.scale, nproc=os.cpu_count(), git_sha=git_sha(),
               repetitions=len(reps))
    print("env " + json.dumps(env))
    if env.get("backend") == "fractions.Fraction":
        print("note: gmpy2 is absent or disabled, so every number here comes "
              "from the fractions.Fraction backend")

    latencies = [x for r in good for x in r.get("latencies", [])]
    command_tail = tail(latencies)
    summary, raw = {}, {}
    if untraced:
        summary = {
            "setup_s": statistics.median(r["setup_s"] for r in good),
            "wall_ref": statistics.median(r["wall_ref"] for r in untraced),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
        raw = {
            "wall_s": statistics.median(r["wall_s"] for r in untraced),
            "ref_s": statistics.median(r["ref_s"] for r in good),
            "setup_raw_s": statistics.median(r["setup_raw_s"] for r in good),
        }
    for name, value in summary.items():
        print(f"{name:<16} {value:.6g} {END_TO_END[name]}")
    for name, value in raw.items():
        print(f"{name:<16} {value:.6g} {PER_LAYER[name]}")
    print("per repetition: " + json.dumps([
        {k: round(r[k], 4) for k in ("setup_raw_s", "setup_s", "wall_s", "wall_ref", "ref_s", "peak_rss_mb")}
        | {"traced": "spans" in r}
        for r in good
    ]))
    print(f"{'error_ratio':<16} {failed / attempted:.6g} 1 ({failed} of {attempted} operations)")
    if latencies:
        print(f"{'command_p50_ms':<16} {statistics.median(latencies) * 1e3:.6g} ms "
              f"(n={len(latencies)})")
    if command_tail:
        value, pct, n = command_tail
        print(f"{'command_tail_ms':<16} {value * 1e3:.6g} ms (p{pct} of n={n})")

    if args.trace:
        metrics = layer_metrics(traced) if traced else {}
        if metrics:
            if latencies:
                metrics["command_p50_ms"] = statistics.median(latencies) * 1e3
            if command_tail:
                metrics["command_tail_ms"] = command_tail[0] * 1e3
            if untraced:
                metrics |= raw
                # In reference units first, so the host's drift between the
                # traced and the untraced repetitions cancels.
                traced_ref = statistics.median(r["wall_ref"] for r in traced)
                metrics["trace.overhead_s"] = (traced_ref - summary["wall_ref"]) * raw["ref_s"]
            for name, value in metrics.items():
                print(f"{name:<28} {value:.6g} {PER_LAYER[name]}")
            os.makedirs(OUT, exist_ok=True)
            path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump([s for r in traced for s in r["spans"]], fh)
        units = PER_LAYER
    else:
        metrics, units = summary, END_TO_END

    correct = failed == 0 and len(metrics) == len(units)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
