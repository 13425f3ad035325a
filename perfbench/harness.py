"""Measurement loop: set-up timing, repeated study runs, checks and metrics.

Every study run goes through ``nrtransport.cli.main(["run", ...])``, the same
path as ``nrtransport run``, in this process with ``workers = 1``. Untraced
runs give the end-to-end metrics. With tracing on, untraced and traced runs
alternate; the traced ones give the per-layer metrics and the overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

from nrtransport import cli
from nrtransport.config import load_config

import checks
import tracing
from workloads import WORKLOADS

SETUP_RUNS = 7
PROBES = tracing.probes()

# Untraced-run metrics and their units; work_per_s is per the workload's unit.
END_TO_END_UNITS = {"run_s": "s", "work_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def setup_time(root: str, cfg_path: str) -> float:
    """Wall time of a fresh interpreter that imports nrtransport and parses
    and validates the workload config."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import nrtransport; "
            "nrtransport.load_config(sys.argv[2])")
    start = time.perf_counter()
    # No timeout: with one, subprocess polls for the exit in 50 ms steps.
    subprocess.run([sys.executable, "-c", code, os.path.join(root, "src"), cfg_path],
                   cwd=root, check=True)
    return time.perf_counter() - start


def study_run(cfg_path: str, outdir: str, tracer: tracing.Tracer | None):
    """One ``nrtransport run``; returns (seconds, error or None)."""
    shutil.rmtree(outdir, ignore_errors=True)
    sink = io.StringIO()
    probes = tracing.installed(tracer, PROBES) if tracer else contextlib.nullcontext()
    with probes, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            code = cli.main(["run", cfg_path, "--output-dir", outdir])
        except Exception as exc:  # a raising run is counted as failed, not fatal
            code = f"raised {exc!r}"
        seconds = time.perf_counter() - start
    if code != 0:
        return seconds, f"exit {code}: {sink.getvalue().strip()[-500:]}"
    return seconds, None


def machine(root: str) -> dict:
    """The machine and build the numbers were taken on."""
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    src = hashlib.sha256()
    pkg = os.path.join(root, "src", "nrtransport")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(root),
        "source_sha256": src.hexdigest(),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def _git_sha(root: str) -> str | None:
    """HEAD of the checkout; None when it is not a git repository."""
    try:
        out = subprocess.run(["git", "--git-dir", os.path.join(root, ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def tail(values: list[float]) -> tuple[float | None, float | None]:
    """(percentile, value): the highest percentile with at least ten samples
    beyond it, or (None, None) when that sample lies below the median (fewer
    than 21 samples), where it would not be a tail figure."""
    n = len(values)
    if n - 11 < n // 2:
        return None, None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def measure(name: str, seed: int, seconds: float, trace: bool, root: str, smoke: bool = False) -> dict:
    """Run one workload for about ``seconds`` and return the full record."""
    wl = WORKLOADS[name]
    wdir = os.path.join(root, ".perfbench_out", f"{name}-seed{seed}-trace{int(trace)}"
                        + ("-smoke" if smoke else ""))
    shutil.rmtree(wdir, ignore_errors=True)
    os.makedirs(wdir)
    cfg_path = os.path.join(wdir, "workload.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(wl.config(seed, smoke))
    cfg = load_config(cfg_path)
    outdir = os.path.join(wdir, "out")

    setup, samples, tracers, problems = [], [], [], []
    first = None  # (digests, rows) of the first valid run
    start = time.perf_counter()
    while True:
        # Set-up samples are spread over the measuring window, because the
        # machine's speed drifts over tens of seconds and setup_s should see
        # the same machine as run_s.
        if len(setup) * seconds <= SETUP_RUNS * (time.perf_counter() - start):
            setup.append(setup_time(root, cfg_path))
        traced = trace and len(samples) % 2 == 1
        tracer = tracing.Tracer() if traced else None
        secs, err = study_run(cfg_path, outdir, tracer)
        bad = [err] if err else []
        if not err:
            found, digests, rows = checks.check_outputs(outdir, cfg.study, cfg.seed, cfg.sha256())
            bad += found or wl.check(cfg, rows)
            if first is None and not bad:
                first = (digests, rows)
            elif first is not None and digests != first[0]:
                bad.append("output digests differ from the first valid run")
        samples.append({"traced": traced, "run_s": secs, "ok": not bad})
        problems += [f"run {len(samples)}: {p}" for p in bad]
        if traced:
            tracers.append((tracer, secs))
        # Stop before a run like the last one would end past ``seconds``;
        # a traced measurement needs one untraced and one traced run.
        if time.perf_counter() - start + secs > seconds and (not trace or len(samples) >= 2):
            break
    while len(setup) < SETUP_RUNS:
        setup.append(setup_time(root, cfg_path))

    untraced = [s["run_s"] for s in samples if not s["traced"]]
    run_s = statistics.median(untraced)
    digests, rows = first if first else ({}, [])
    work = wl.work(cfg, rows) if first else 0
    record = {
        "workload": name,
        "seed": seed,
        "smoke": smoke,
        "config": wl.config(seed, smoke),
        "machine": machine(root),
        "setup_s_samples": setup,
        "run_s_samples": untraced,
        "work_unit": wl.work_unit,
        "work_per_run": work,
        "digests": digests,
        "headline": wl.headline(cfg, rows) if first else {},
        "attempted": len(samples),
        "failed": sum(not s["ok"] for s in samples),
        "problems": problems,
        "end_to_end": {
            "run_s": run_s,
            # Throughput of the whole window: the machine's speed drifts in
            # phases of tens of seconds, which a total averages and a median
            # of short runs does not.
            "work_per_s": work * len(untraced) / sum(untraced),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "run_s_tail": tail(untraced),
    }
    if trace:
        record["per_layer"] = _layer_metrics(wl, work, run_s, tracers, problems)
        with open(os.path.join(wdir, "trace.json"), "w", encoding="utf-8") as fh:
            json.dump([{"run_s": secs, **t.to_json()} for t, secs in tracers], fh)
    record["correct"] = not problems
    with open(os.path.join(wdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    record["result_path"] = os.path.join(wdir, "result.json")
    return record


def _layer_metrics(wl, work: int, untraced_s: float, tracers, problems: list[str]) -> dict:
    """Per-layer metrics of the traced runs: counts from the first (they must
    repeat exactly in every traced run), times as medians over the runs."""
    per_run = [tracing.layer_values(t) for t, _secs in tracers]
    out = {}
    for key, (value, unit) in per_run[0].items():
        if key in tracing.EXACT:
            if any(v[key][0] != value for v in per_run[1:]):
                problems.append(f"{key} differs between traced runs")
        else:
            value = statistics.median(v[key][0] for v in per_run)
        out[key] = (value, unit)
    if out[wl.work_counter][0] != work:
        problems.append(f"{wl.work_counter} = {out[wl.work_counter][0]}, expected {work}")
    traced_s = statistics.median(secs for _t, secs in tracers)
    out["bench.trace_overhead"] = (traced_s / untraced_s - 1.0, "ratio")
    out["bench.span_coverage"] = (
        statistics.median(tracing.self_seconds(t) / secs for t, secs in tracers), "ratio")
    return out
