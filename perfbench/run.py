"""Benchmark entry point.

    python3 perfbench/run.py --workload rail_schemes --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Generates the workload's config from the
seed, runs it through ``nrtransport run`` repeatedly for about ``--seconds``,
checks every output, prints each metric with its unit, and ends with one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` gives
the end-to-end metrics, ``--trace 1`` the per-layer metrics. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# One process, one thread: pin every BLAS/OpenMP pool before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="smallest sizes (smoke test)")
    return parser.parse_args(argv)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    args = _parse(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "nrtransport", "__init__.py")):
        print(f"perfbench: no nrtransport sources under {src}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import nrtransport

    if os.path.dirname(os.path.realpath(nrtransport.__file__)) != os.path.realpath(
            os.path.join(src, "nrtransport")):
        print(f"perfbench: imported {nrtransport.__file__}, not the checkout's", file=sys.stderr)
        return 2
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    rec = harness.measure(args.workload, args.seed, args.seconds, bool(args.trace), ROOT, args.smoke)
    e2e = rec["end_to_end"]
    m = rec["machine"]
    n = len(rec["run_s_samples"])
    pct, tail_s = rec["run_s_tail"]
    print(f"workload {rec['workload']} seed {rec['seed']}: " + rec["config"].replace("\n", " "))
    print(f"machine: {m['nproc']} cpus, {m['cpu_model']}, python {m['python']}, "
          f"numpy {m['numpy']}, git {m['git_sha']}, src {m['source_sha256'][:16]}")
    print(f"run_s        {_fmt(e2e['run_s'])} s median of {n} untraced runs; "
          + (f"p{pct:.0f} {_fmt(tail_s)} s" if pct is not None else
             "too few samples for a tail percentile at or above the median")
          + f"; max {_fmt(max(rec['run_s_samples']))} s")
    print(f"work_per_s   {_fmt(e2e['work_per_s'])} 1/s ({rec['work_unit']} per second; "
          f"{rec['work_per_run']} per run)")
    print(f"setup_s      {_fmt(e2e['setup_s'])} s median of {len(rec['setup_s_samples'])} "
          "fresh interpreters")
    print(f"peak_rss_mb  {_fmt(e2e['peak_rss_mb'])} MB")
    print(f"failed_frac  {_fmt(rec['failed'] / rec['attempted'])} ratio "
          f"({rec['failed']} of {rec['attempted']} runs failed)")
    for name, digest in sorted(rec["digests"].items()):
        print(f"digest {name} {digest}")
    for key, value in sorted(rec["headline"].items()):
        print(f"headline {key} {_fmt(value)}")
    for problem in rec["problems"][:20]:
        print(f"FAILED {problem}")
    if args.trace:
        for key, (value, unit) in rec["per_layer"].items():
            print(f"layer {key:28s} {_fmt(value)} {unit}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in rec["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": harness.END_TO_END_UNITS[k]} for k, v in e2e.items()}
    print(f"record {os.path.relpath(rec['result_path'], ROOT)}")
    print(json.dumps({"correct": rec["correct"], "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
