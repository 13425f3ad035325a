"""Path-gain drop scheduling under rising traffic density.

Sweeps offered DL traffic density across a macro cell on a highway and
compares a plain round-robin scheduler against one that defers the weakest
half of the users until their channel improves. Also reports the headline
file-transfer experiment: median time to fetch a 500 MB file at the
calibrated 450 Mbps/km2 operating point.

Run with: python3 demos/drop_scheduling.py  (takes a couple of minutes)
"""

import numpy as np

from nrtransport import (
    DropPolicy,
    TrafficConfig,
    build_linear_deployment,
    density_sweep,
    median_file_time,
    simulate_cell,
)
from nrtransport.rng import substream


def main():
    deployment = build_linear_deployment(1732, 0, 35, 1732)
    densities = (10.0, 450.0, 1000.0, 2000.0, 3000.0)
    points = density_sweep(
        deployment, densities, (0.0, 0.5), reps=3, seed=7,
        duration=200.0, traffic=TrafficConfig(0.0, file_size_bits=50 * 8e6),
    )
    by = {(p.density_mbps_km2, p.drop_fraction): p for p in points}

    print(f"{'density':>9} {'tput rho=0':>11} {'tput rho=.5':>12} {'coverage rho=.5':>16}")
    for d in densities:
        p0, p5 = by[(d, 0.0)], by[(d, 0.5)]
        print(f"{d:>7.0f}   {p0.mean_user_tput_mbps:>9.2f}M {p5.mean_user_tput_mbps:>10.2f}M"
              f" {p5.coverage_fraction:>15.2f}")

    print("\n500 MB file transfers at 450 Mbps/km2 (median over 3 runs):")
    traffic = TrafficConfig(450.0)
    for rho in (0.0, 0.5):
        times = [
            median_file_time(simulate_cell(
                deployment, traffic, DropPolicy(rho), 600.0,
                int(substream(7, "ftr", rep).integers(2**62)),
            ))
            for rep in range(3)
        ]
        print(f"  rho = {rho}: {np.median(times):.1f} s")
    print("\nDeferring the weakest half keeps the cell out of overload, so the")
    print("typical transfer finishes in a fraction of the round-robin time.")


if __name__ == "__main__":
    main()
