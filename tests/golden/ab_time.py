"""Wall time and peak RSS of one study run in two source trees, alternating.

    python tests/golden/ab_time.py OLD_SRC NEW_SRC CONFIG [--pairs N]

OLD_SRC and NEW_SRC are directories holding an ``nrtransport`` package (a
checkout's ``src``). Each of the N pairs (default 10) starts one fresh child
interpreter per tree, the old tree first in even pairs and the new tree first
in odd ones. A child imports ``nrtransport``, runs
``cli.main(["run", CONFIG, "--output-dir", ...])`` once and reports the wall
time of that call and its process's ``ru_maxrss``; BLAS and OpenMP threads are
pinned to 1, as in ``perfbench``. Each measurement comes from a process of its
own, so the peak RSS does not depend on how many runs came before it.

The report gives per tree the median wall time and peak RSS, the number of
pairs the new tree ran faster, and whether the CSV and SVG outputs of every
run are byte-identical to the first run's. The exit code is 0 when they all
are, and 1 otherwise.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")


def _child(config: str, out_dir: str) -> None:
    """Run the study once and print its wall time (s) and peak RSS (MB) as JSON (child mode)."""
    from nrtransport.cli import main as cli_main

    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(["run", config, "--output-dir", out_dir])
    wall = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"code": code, "wall_s": wall, "rss_mb": rss_mb}))


def _run(src: str, config: str) -> tuple[float, float, dict[str, str]]:
    """(wall s, peak RSS MB, sha256 of each output CSV and SVG) of one child run."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), **{var: "1" for var in THREAD_VARS})
    with tempfile.TemporaryDirectory() as out_dir:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child", os.path.abspath(config), out_dir],
            env=env, check=True, capture_output=True, text=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if result["code"] != 0:
            raise SystemExit(f"{src}: nrtransport run exited {result['code']}\n{done.stderr}")
        digests = {}
        for name in sorted(os.listdir(out_dir)):
            if name.endswith((".csv", ".svg")):
                with open(os.path.join(out_dir, name), "rb") as fh:
                    digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return result["wall_s"], result["rss_mb"], digests


def main(argv: list[str]) -> int:
    pairs = 10
    if len(argv) == 5 and argv[3] == "--pairs":
        pairs, argv = int(argv[4]), argv[:3]
    if len(argv) != 3 or pairs < 1:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    old_src, new_src, config = argv
    samples = {"old": [], "new": []}
    first_digests, identical, wins = None, True, 0
    for pair in range(pairs):
        order = ("old", "new") if pair % 2 == 0 else ("new", "old")
        for side in order:
            wall, rss, digests = _run(old_src if side == "old" else new_src, config)
            samples[side].append((wall, rss))
            first_digests = digests if first_digests is None else first_digests
            identical &= digests == first_digests
        old_wall, new_wall = samples["old"][-1][0], samples["new"][-1][0]
        wins += new_wall < old_wall
        print(f"pair {pair}: old {old_wall:.3f} s {samples['old'][-1][1]:.1f} MB, "
              f"new {new_wall:.3f} s {samples['new'][-1][1]:.1f} MB", flush=True)
    for side, src in (("old", old_src), ("new", new_src)):
        walls, rss = zip(*samples[side])
        print(f"{side} ({src}): median wall {statistics.median(walls):.3f} s, "
              f"median peak RSS {statistics.median(rss):.1f} MB")
    ratio = statistics.median(w for w, _ in samples["new"]) / statistics.median(w for w, _ in samples["old"])
    print(f"new faster in {wins}/{pairs} pairs, median wall ratio new/old {ratio:.3f}")
    print(f"outputs: {'byte-identical' if identical else 'DIFFERENT'} across all {2 * pairs} runs")
    return 0 if identical else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        _child(*sys.argv[2:])
    else:
        sys.exit(main(sys.argv[1:]))
