"""Multi-TRP transmission schemes on a high-speed rail link.

Sweeps a 500 km/h train across three inter-site distances and reports the
binned downlink throughput for each joint-transmission scheme. The midpoint
between two masts is where the schemes separate: plain SFN suffers periodic
flat fades from the opposing Doppler shifts, CDD turns them into ordinary
frequency selectivity, Doppler precompensation aligns the carriers, and DPS
simply rides the stronger mast.

Run with: python3 demos/rail_multi_trp.py
"""

import numpy as np

from nrtransport import (
    Mcs,
    Numerology,
    Scheme,
    bin_by_position,
    build_rail_deployment,
    linear_trajectory,
    run_hst_sweep,
    transport_block_size,
)

ISD_M = 700.0
SPAN_M = 2100.0


def main():
    deployment = build_rail_deployment(ISD_M, 10.0)
    numerology = Numerology()
    trajectory = linear_trajectory(500.0, SPAN_M, numerology.slot_duration)
    peak = transport_block_size(numerology, Mcs(), 1) / numerology.slot_duration
    print(f"peak rate {peak / 1e6:.2f} Mbps, {len(trajectory)} slots over {SPAN_M:.0f} m\n")

    probes = (0.0, ISD_M / 2, ISD_M, 3 * ISD_M / 2)
    header = "".join(f"{f'x={x:.0f}m':>12}" for x in probes)
    print(f"{'scheme':<14}{header}")
    for scheme in Scheme:
        results = run_hst_sweep(
            deployment, trajectory, scheme, numerology, Mcs(), seed=1
        )
        bins = bin_by_position(results, 20.0, numerology.slot_duration)
        row = "".join(
            f"{bins.throughput_bps[np.argmin(np.abs(bins.centers_m - x))] / 1e6:>11.1f} " for x in probes
        )
        print(f"{scheme.name:<14}{row}")

    print("\nUnder the mast every scheme is near the peak; at the midpoints the")
    print("SFN fades cost roughly half the rate while CDD and precompensation")
    print("recover most of it and DPS stays at the peak.")


if __name__ == "__main__":
    main()
