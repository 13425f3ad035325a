"""Acceptance margins across seeds.

    python tests/golden/margins.py --criteria 1,5 --seeds 1-20

Tier-1 checks each stochastic acceptance criterion at one seed. This script
recomputes a criterion's statistics at other seeds with the function the
acceptance test calls, and prints per seed every statistic, its bar and its
margin: how far the statistic lies inside the bar, negative when the part
fails. A summary gives each part's smallest margin and its seed. The exit
code is 0 when every part passes at every seed, and 1 otherwise.

Criteria: 1 (positioning accuracy, about 1 s per seed) and 5 (scheduler
orderings, about 20 s per seed on two cores).
"""

from __future__ import annotations

import argparse
import os
import sys
import time


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def margin(value: float, comparison: str, bar: float) -> float:
    return value - bar if comparison.startswith(">") else bar - value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--criteria", default="5", help="comma-separated criterion numbers")
    parser.add_argument("--seeds", default="1-20", help="seeds, e.g. 1-20 or 1,3,7")
    args = parser.parse_args(argv)
    from test_acceptance import (
        CRITERION_1_BARS,
        CRITERION_5_BARS,
        criterion_1_statistics,
        criterion_5_statistics,
        meets_bar,
    )

    criteria = {1: (criterion_1_statistics, CRITERION_1_BARS), 5: (criterion_5_statistics, CRITERION_5_BARS)}
    wanted = [int(c) for c in args.criteria.split(",")]
    unknown = [c for c in wanted if c not in criteria]
    if unknown:
        parser.error(f"no statistics for criteria {unknown}; known: {sorted(criteria)}")
    all_pass = True
    for number in wanted:
        statistics, bars = criteria[number]
        worst = {}
        print(f"criterion {number}")
        for seed in _seeds(args.seeds):
            t0 = time.time()
            stats = statistics(seed)
            cells = []
            for part, (comparison, bar) in bars.items():
                m = margin(stats[part], comparison, bar)
                passed = meets_bar(stats[part], comparison, bar)
                all_pass &= passed
                cells.append(f"{part}={stats[part]:.4g} ({comparison} {bar:g}, margin {m:+.4g}{'' if passed else ' FAIL'})")
                if part not in worst or m < worst[part][0]:
                    worst[part] = (m, seed, stats[part])
            print(f"  seed {seed:3d}: " + "  ".join(cells) + f"  {time.time() - t0:.0f}s", flush=True)
        for part, (m, seed, value) in worst.items():
            comparison, bar = bars[part]
            print(f"  smallest margin {part}: {m:+.4g} at seed {seed} ({value:.4g} {comparison} {bar:g})")
    return 0 if all_pass else 1


if __name__ == "__main__":
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.normpath(os.path.join(here, "..", "..", "src")), os.path.dirname(here)]
    sys.exit(main())
