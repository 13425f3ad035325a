"""Smoke test of the benchmark at its smallest sizes.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs twice with tracing on. The test checks that every metric
named in BENCHMARK.json is reported with its unit, that counts repeat exactly
for a fixed seed, and that layers a workload bypasses report no work. The
qos workload cannot shrink below two full rail sweeps (the built-in trace
fixes the span), so it takes most of the test's two minutes.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

# Per workload: layer counts that must be zero (the layer is bypassed) and
# counts that must be positive (the layer the workload exists to exercise).
BYPASSED = {
    "rail_schemes": ("scheduler.cell_calls", "positioning.epochs", "positioning.gn_calls",
                     "qos.trace_builds", "qos.windows"),
    "drop_sweep": ("hst.sweep_calls", "hst.esm_calls", "positioning.epochs", "qos.trace_builds"),
    "qos_trace_ar1": ("scheduler.cell_calls", "positioning.epochs", "positioning.gn_calls"),
    "highway_fusion": ("hst.sweep_calls", "scheduler.cell_calls", "qos.trace_builds"),
}
EXERCISED = {
    "rail_schemes": ("hst.sweep_calls", "hst.esm_calls", "hst.tbs"),
    "drop_sweep": ("scheduler.cell_calls", "scheduler.cell_slots", "scheduler.users"),
    "qos_trace_ar1": ("qos.trace_builds", "qos.windows", "qos.window_bits_calls", "hst.sweep_calls"),
    "highway_fusion": ("positioning.epochs", "positioning.gn_calls"),
}


def bench(workload: str, trace: int, cwd: str = ROOT, seed: int = 5):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_and_record(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    path = next(ln.split(" ", 1)[1] for ln in lines if ln.startswith("record "))
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        return result, json.load(fh)


def assert_named_metrics(metrics: dict, specs: list[dict]):
    assert set(metrics) == {m["name"] for m in specs}
    for m in specs:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(metrics[m["name"]]["value"], (int, float)), m["name"]


def test_untraced_run_prints_end_to_end_metrics():
    result, record = result_and_record(bench("rail_schemes", 0))
    assert_named_metrics(result["metrics"], SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["digests"] and record["headline"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_runs_report_every_layer_and_repeat_counts(workload):
    runs = [result_and_record(bench(workload, 1)) for _ in range(2)]
    for result, record in runs:
        assert_named_metrics(result["metrics"], SPEC["per_layer"])
        assert set(record["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
        layer = {k: v["value"] for k, v in result["metrics"].items()}
        for name in BYPASSED[workload]:
            assert layer[name] == 0, name
        for name in EXERCISED[workload]:
            assert layer[name] > 0, name
    (first, rec1), (second, rec2) = runs
    counts = [k for k, v in first["metrics"].items() if v["unit"] == "count"]
    assert {k: first["metrics"][k]["value"] for k in counts} == {
        k: second["metrics"][k]["value"] for k in counts}
    assert rec1["digests"] == rec2["digests"]


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("rail_schemes", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
