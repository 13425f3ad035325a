"""HARQ decisions and effective SNRs of the rail sweep in two source trees.

    python tests/golden/harq_flips.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding an ``nrtransport`` package (a
checkout's ``src``). In each tree, one child interpreter runs the default
``[hst]`` sweep at seeds 1 and 11 for every scheme and hands back every
transport block. Per (scheme, seed) and in total, the report gives the number
of transport blocks, the HARQ decisions flipped (a block whose attempt count
or delivered bits differ, or whose start slot is in one tree only) and the
largest absolute (dB) and relative change of the first-attempt effective SNR
over the blocks both trees start. The exit code is 0 when no decision
flipped, and 1 otherwise.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

SEEDS = (1, 11)


def _dump() -> None:
    """Print every default ``[hst]`` sweep's blocks as JSON (child mode)."""
    from nrtransport import hst, runner
    from nrtransport.config import SCHEMAS

    setup = runner._hst_setup({k: f.default for k, f in SCHEMAS["hst"].items()})
    deployment, trajectory, numerology, params = setup
    out = {}
    for seed in SEEDS:
        for scheme in hst.Scheme:
            results = hst.run_hst_sweep(deployment, trajectory, scheme, numerology, hst.Mcs(), seed, params)
            out[f"{scheme.value} seed {seed}"] = [
                [r.slot_index, r.harq_attempts_used, r.delivered_bits, r.effective_snr_db] for r in results
            ]
    json.dump(out, sys.stdout)


def _sweeps(src: str) -> dict[str, list[list]]:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--dump"], env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(done.stdout)


def compare(old: list[list], new: list[list]) -> tuple[int, int, float, float]:
    """(blocks, decisions flipped, largest absolute and relative ESM change)."""
    by_start = {start: rest for start, *rest in new}
    flipped = len(set(by_start) - {start for start, *_ in old})
    max_abs = max_rel = 0.0
    for start, attempts, bits, esm in old:
        if start not in by_start:
            flipped += 1
            continue
        new_attempts, new_bits, new_esm = by_start[start]
        flipped += (attempts, bits) != (new_attempts, new_bits)
        delta = abs(new_esm - esm)
        max_abs = max(max_abs, delta)
        max_rel = max(max_rel, delta / abs(esm) if esm != 0.0 else (math.inf if delta else 0.0))
    return len(old), flipped, max_abs, max_rel


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    old, new = (_sweeps(src) for src in argv)
    total = [0, 0, 0.0, 0.0]
    for key in old:
        blocks, flipped, max_abs, max_rel = compare(old[key], new[key])
        total = [total[0] + blocks, total[1] + flipped, max(total[2], max_abs), max(total[3], max_rel)]
        print(f"{key}: {blocks:,} TBs, {flipped} HARQ decisions flipped, "
              f"largest ESM change {max_abs:.3g} dB ({max_rel:.3g} relative)")
    print(f"total: {total[0]:,} TBs, {total[1]} HARQ decisions flipped, "
          f"largest ESM change {total[2]:.3g} dB ({total[3]:.3g} relative)")
    return 0 if total[1] == 0 else 1


if __name__ == "__main__":
    if sys.argv[1:] == ["--dump"]:
        _dump()
    else:
        sys.exit(main(sys.argv[1:]))
