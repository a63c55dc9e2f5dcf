"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]+")


def bench(root: str, workload: str, trace: int = 0, seed: int = 3):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=170,
    )


def result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke_run(workload):
    proc = bench(ROOT, workload)
    assert proc.returncode == 0, proc.stderr
    res = result(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == set(run.END_TO_END)
    for name, metric in res["metrics"].items():
        assert metric["unit"] == run.END_TO_END[name] and metric["value"] > 0


@pytest.mark.parametrize("workload", ["sweep", "resume"])
def test_tiny_traced_run_reports_every_layer_metric(workload):
    proc = bench(ROOT, workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    res = result(proc)
    assert res["correct"]
    assert set(res["metrics"]) == set(run.PER_LAYER)
    exercised = {"sweep": "dvv.c_value_calls", "resume": "cli.compute_ms"}[workload]
    assert res["metrics"][exercised]["value"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert workloads.make_inputs(workload, 11) == workloads.make_inputs(workload, 11)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_change_entries_not_size_profile(workload):
    runs = [workloads.make_inputs(workload, seed) for seed in range(1, 7)]
    profiles = [workloads.size_profile(workload, inputs) for inputs in runs]
    assert all(p == profiles[0] for p in profiles)
    assert any(inputs != runs[0] for inputs in runs)


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for name, unit in {**run.END_TO_END, **run.PER_LAYER}.items():
        assert NAME.fullmatch(name) and len(name) <= 64
        assert UNIT.fullmatch(unit) and len(unit) <= 16


def _copy(dest: str, with_src: bool) -> str:
    shutil.copytree(BENCH, os.path.join(dest, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_planted_wrong_value_fails_the_run(tmp_path):
    root = _copy(str(tmp_path), with_src=True)
    dvv_py = os.path.join(root, "src", "psiclass", "dvv.py")
    with open(dvv_py, encoding="utf-8") as fh:
        text = fh.read()
    assert "_C_ONE = Q(1, 6)" in text
    with open(dvv_py, "w", encoding="utf-8") as fh:
        fh.write(text.replace("_C_ONE = Q(1, 6)", "_C_ONE = Q(1, 7)"))
    proc = bench(root, "sweep")
    assert proc.returncode != 0
    res = result(proc)
    assert not res["correct"] and res["failed"] > 0


def test_without_sources_exits_nonzero_without_result(tmp_path):
    root = _copy(str(tmp_path), with_src=False)
    proc = bench(root, "sweep")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
