"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, because psiclass keeps
process-global state that a second pass in the same process would find
warm: dvv's default memo, closed's trace and matrix caches, asym's table
and majorant caches, painleve's coefficient list, and the raised recursion
limit.

    PYTHONPATH=src python3 perfbench/worker.py '<request as JSON>'

It prints one JSON object: when it became ready to measure, the timed
phase's wall time and peak memory, a digest of every operation's output,
the operations an independent check rejected (first repetition only), and,
when traced, its spans and per-layer figures.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Dict, List

import psiclass
from psiclass import asym, closed, dvv, harness, painleve

import checks
import workloads
from reference import reference_seconds
from tracing import Tracer


def _digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def _rat(q) -> str:
    return f"{int(q.numerator)}/{int(q.denominator)}"


def _bits(q) -> int:
    return max(int(q.numerator).bit_length(), int(q.denominator).bit_length())


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def q_op_ns(values: list, seed: int) -> Dict[str, float]:
    """Nanoseconds per multiply and per add of psiclass.Q operands.

    The operands are pairs drawn from ``values``, the run's own results, so
    the bit sizes are the ones the workload really multiplies.
    """
    rng = random.Random(seed)
    pairs = [(rng.choice(values), rng.choice(values)) for _ in range(256)]
    rounds = 8

    def mul() -> float:
        t0 = time.perf_counter()
        for _ in range(rounds):
            for a, b in pairs:
                a * b
        return time.perf_counter() - t0

    def add() -> float:
        t0 = time.perf_counter()
        for _ in range(rounds):
            for a, b in pairs:
                a + b
        return time.perf_counter() - t0

    scale = 1e9 / (rounds * len(pairs))
    return {
        "exact.q_mul_ns": statistics.median(mul() for _ in range(5)) * scale,
        "exact.q_add_ns": statistics.median(add() for _ in range(5)) * scale,
    }


class Phase:
    """The timed phase, with the host's speed sampled all through it.

    ``tick()`` goes between two operations.  About every ``TICK_S`` of
    phase time it stops the clock, runs one slice of the reference loop
    and restarts the clock (see reference.py).  Each stretch of work
    between two slices is divided by the mean of those two slices' times;
    ``wall_ref`` is the sum.  ``wall_s`` is the work's wall time, slices
    excluded, and ``ref_s`` is ``wall_s / wall_ref``.
    """

    TICK_S = 0.1

    def __init__(self, rep: dict):
        self.rep = rep
        self.work: List[float] = []
        self.slices: List[float] = []

    def _slice(self) -> None:
        self.slices.append(reference_seconds())
        self.t0 = time.perf_counter()

    def start(self) -> None:
        self._slice()

    def tick(self) -> None:
        now = time.perf_counter()
        if now - self.t0 >= self.TICK_S:
            self.work.append(now - self.t0)
            self._slice()

    def stop(self, peak_rss_mb: float) -> None:
        self.work.append(time.perf_counter() - self.t0)
        self._slice()
        wall_ref = sum(
            w / ((a + b) / 2) for w, a, b in zip(self.work, self.slices, self.slices[1:])
        )
        self.rep["wall_s"] = sum(self.work)
        self.rep["wall_ref"] = wall_ref
        self.rep["ref_s"] = self.rep["wall_s"] / wall_ref
        self.rep["peak_rss_mb"] = peak_rss_mb


# ----------------------------------------------------------------------
# Workloads.  Each runs the timed phase and fills ``rep`` with its results.
# ----------------------------------------------------------------------


def run_sweep(inputs: dict, tr: Tracer, rep: dict, check: bool) -> None:
    gmax, vectors = inputs["gmax"], inputs["vectors"]
    cache = dvv.MemoCache()
    values = {}
    hits = 0
    phase = Phase(rep)
    phase.start()
    tr.open("workload.sweep")
    enumerated = {
        g: tr.call("harness.primitive_vectors", harness.primitive_vectors, g)
        for g in range(2, gmax + 1)
    }
    for d in vectors:
        before = len(cache)
        values[d] = tr.call("dvv.c_value", dvv.c_value, d, cache)
        hits += len(cache) == before
        phase.tick()
    reports = tr.call("harness.sweep_nesting", harness.sweep_nesting, gmax, cache=cache)
    tr.close()
    phase.stop(_self_rss_mb())

    ops = {f"c:{d}": _digest(_rat(v)) for d, v in values.items()}
    for g, vecs in enumerated.items():
        ops[f"primitive_vectors:{g}"] = _digest(repr(vecs))
    for r in reports:
        ops[f"report:{r.genus}"] = _digest(repr((
            r.count, r.min_vector, _rat(r.min_value), r.max_vector,
            _rat(r.max_value), r.nesting_ok, str(r.max_scaled_deviation),
        )))
    rep["ops"] = ops
    if check:
        rep["bad"] = checks.check_sweep(gmax, values, enumerated, reports)
    if tr.enabled:
        stored = list(cache.table.values())
        rep["layers"] = {
            "dvv.memo_entries": len(stored),
            "dvv.memo_hit_ratio": hits / len(vectors),
            "dvv.value_bits_max": max(map(_bits, stored)),
        } | q_op_ns(stored, len(stored))


def run_deep(inputs: dict, tr: Tracer, rep: dict, check: bool) -> None:
    values = {}
    memo = []  # per query: (entries, largest bits, a sample of values)
    phase = Phase(rep)
    phase.start()
    tr.open("workload.deep")
    for d in inputs["vectors"]:
        cache = dvv.MemoCache()
        values[d] = tr.call("dvv.c_value", dvv.c_value, d, cache)
        if tr.enabled:
            stored = list(cache.table.values())
            sample = random.Random(len(stored)).sample(stored, min(64, len(stored)))
            memo.append((len(stored), max(map(_bits, stored)), sample))
        phase.tick()
    tr.close()
    phase.stop(_self_rss_mb())

    rep["ops"] = {f"c:{d}": _digest(_rat(v)) for d, v in values.items()}
    if check:
        rep["bad"] = checks.check_deep(values)
    if tr.enabled:
        rep["layers"] = {
            "dvv.memo_entries": sum(m[0] for m in memo),
            "dvv.memo_hit_ratio": 0.0,  # every query starts from an empty memo
            "dvv.value_bits_max": max(m[1] for m in memo),
        } | q_op_ns([v for m in memo for v in m[2]], len(memo))


def run_formulas(inputs: dict, tr: Tracer, rep: dict, check: bool) -> None:
    out = {}
    phase = Phase(rep)
    phase.start()
    tr.open("workload.formulas")
    two = inputs["two_point"]
    calls = [
        ("two_point_zograf", "closed.two_point", closed.two_point_zograf, *two),
        ("two_point_bdy", "closed.two_point", closed.two_point_bdy, *two),
        ("three_point", "closed.three_point", closed.three_point, inputs["three_point"]),
        ("four_point", "closed.four_point", closed.four_point, inputs["four_point"]),
        ("n_point", "closed.n_point", closed.n_point, inputs["n_point"]),
        ("painleve_coeff", "painleve.coeff", painleve.painleve_coeff, inputs["painleve_genus"]),
        ("cg_series", "painleve.series", painleve.cg_asymptotic_series, 12),
    ]
    for k in range(1, asym.TABLE2_CAP + 1):
        calls.append((f"ctilde:{k}", "asym.table_fit", asym.ctilde_poly, k))
        calls.append((f"chat:{k}", "asym.table_fit", asym.chat_poly, k))
    calls += [
        ("lemma6", "asym.lemma6", asym.lemma6_check, inputs["lemma6_xmax"]),
        ("one_point_series", "asym.series", asym.one_point_series, asym.ONE_POINT_CAP),
        ("largest_series", "asym.series", asym.largest_series, asym.LARGEST_CAP),
    ]
    for key, span, fn, *args in calls:
        out[key] = tr.call(span, fn, *args)
        phase.tick()
    tr.close()
    phase.stop(_self_rss_mb())

    rationals = [out[k] for k in (
        "two_point_zograf", "two_point_bdy", "three_point", "four_point",
        "n_point", "painleve_coeff",
    )]
    rationals += [*out["cg_series"], *out["one_point_series"].coeffs, *out["largest_series"].coeffs]
    for k in range(1, asym.TABLE2_CAP + 1):
        rationals += list(out[f"ctilde:{k}"].values()) + list(out[f"chat:{k}"].values())
    ops = {}
    for key, value in out.items():
        if key == "lemma6":
            text = repr((value[0], _rat(value[1])))
        elif key.startswith(("ctilde", "chat")):
            text = repr(sorted((m, _rat(c)) for m, c in value.items()))
        elif key == "cg_series":
            text = repr([_rat(c) for c in value])
        elif key.endswith("_series"):
            text = repr([_rat(c) for c in value.coeffs])
        else:
            text = _rat(value)
        ops[key] = _digest(text)
    rep["ops"] = ops
    if check:
        rep["bad"] = checks.check_formulas(inputs, out)
    if tr.enabled:
        rep["layers"] = q_op_ns([q for q in rationals if q], len(rationals))


def _cli(argv: List[str]):
    """Run one ``psiclass`` command; return (exit code, stdout, peak RSS MB).

    The child is reaped with wait4 so its own peak RSS is read, not the
    largest of every child this process ever waited for.
    """
    proc = subprocess.Popen(
        [sys.executable, "-m", "psiclass.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), usage.ru_maxrss / 1024


def _argv(cmd: dict, memo: str) -> List[str]:
    if cmd["kind"] == "table":
        return ["table", "--genus", str(cmd["genus"]), "--cache", memo]
    return ["compute", ",".join(map(str, cmd["d"])), "--norm", cmd["norm"], "--cache", memo]


def resume_setup(inputs: dict, tmp: str) -> str:
    """Build the starting memo file with the CLI itself, as a user would."""
    memo = os.path.join(tmp, "memo.txt")
    code, _out, _rss = _cli(["sweep-nesting", "--gmax", str(inputs["memo_gmax"]), "--cache", memo])
    if code != 0:
        raise RuntimeError(f"building the starting memo file exited with {code}")
    return memo


def run_resume(inputs: dict, tr: Tracer, rep: dict, check: bool, memo: str) -> None:
    latencies, outputs, peak = [], [], 0.0
    ops = {}
    phase = Phase(rep)
    phase.start()
    tr.open("workload.resume")
    for i, cmd in enumerate(inputs["commands"]):
        span = "cli.table" if cmd["kind"] == "table" else "cli.compute"
        start = time.perf_counter()
        code, out, rss = tr.call(span, _cli, _argv(cmd, memo))
        latencies.append(time.perf_counter() - start)
        peak = max(peak, rss)
        ops[f"cmd:{i}"] = _digest(f"{code}\n{out}")
        outputs.append(json.loads(out) if code == 0 else None)
        phase.tick()
    tr.close()
    phase.stop(peak)
    rep["latencies"] = latencies

    bad = checks.check_resume(inputs, outputs) if check else []
    try:
        loaded = dvv.cache_load(memo)
        ops["memo_file"] = _digest(str(len(loaded)))
    except (OSError, ValueError):
        loaded = None
        bad.append("memo_file")
    rep["ops"] = ops
    if check:
        rep["bad"] = bad
    if tr.enabled and loaded is not None:
        copy = os.path.join(os.path.dirname(memo), "memo-copy.txt")
        load_s, save_s = [], []
        for _ in range(5):
            t = time.perf_counter()
            dvv.cache_load(memo)
            load_s.append(time.perf_counter() - t)
            t = time.perf_counter()
            dvv.cache_save(loaded, copy)
            save_s.append(time.perf_counter() - t)
        startup = []
        for _ in range(5):
            t = time.perf_counter()
            _cli(["compute", "1"])
            startup.append(time.perf_counter() - t)
        rep["layers"] = {
            "dvv.cache_load_s": statistics.median(load_s),
            "dvv.cache_save_s": statistics.median(save_s),
            "dvv.memo_file_bytes": os.path.getsize(memo),
            "cli.startup_ms": statistics.median(startup) * 1e3,
        } | q_op_ns(list(loaded.table.values()), len(loaded))


def environment() -> dict:
    return {
        "backend": f"{psiclass.Q.__module__}.{psiclass.Q.__qualname__}",
        "PSICLASS_NOGMPY": os.environ.get("PSICLASS_NOGMPY"),
        "gmpy2_importable": importlib.util.find_spec("gmpy2") is not None,
        "python": sys.version.split()[0],
        "psiclass_file": os.path.relpath(psiclass.__file__),
    }


def main() -> int:
    req = json.loads(sys.argv[1])
    workload = req["workload"]
    inputs = workloads.make_inputs(workload, req["seed"], req["scale"])
    tr = Tracer(req["trace"], req["run_id"])
    memo = resume_setup(inputs, req["tmp"]) if workload == "resume" else None
    rep = {"ready": time.monotonic(), "env": environment()}
    if workload == "resume":
        run_resume(inputs, tr, rep, req["check"], memo)
    else:
        runner = {"sweep": run_sweep, "deep": run_deep, "formulas": run_formulas}[workload]
        runner(inputs, tr, rep, req["check"])
    if tr.enabled:
        rep["spans"] = tr.spans
    print(json.dumps(rep))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
