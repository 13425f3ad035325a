"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL line.
Criterion 4b is expected to fail: with a 1 us cyclic delay across an 18 MHz
band the closed-form two-ray response puts 14.37% of subcarriers more than
10 dB below the per-symbol mean, which no implementation can push under the
10% bar. The test asserts the bar anyway so the gap stays visible.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import least_squares

from nrtransport import (
    CellParams,
    DropPolicy,
    EkfParams,
    Mcs,
    NoiseModel,
    Numerology,
    Scheme,
    ThroughputTrace,
    TrafficConfig,
    bin_by_position,
    build_linear_deployment,
    build_rail_deployment,
    density_sweep,
    ekf_fuse,
    empirical_cdf,
    horizon_errors,
    linear_trajectory,
    median_file_time,
    parse_config,
    point_fixes,
    prediction_error,
    run,
    run_hst_sweep,
    simulate_cell,
    simulate_measurements,
    snake_trajectory,
    transport_block_size,
)
from nrtransport.channel import batched_freq_response, pathloss_db
from nrtransport.hst import HstLinkParams
from nrtransport.positioning import StateEstimate, _measurement_model
from nrtransport.rng import substream
from nrtransport.runner import default_hst_trace
from nrtransport.scenario import KMH
from nrtransport.scheduler import _rate_bps, mean_user_throughput


def _report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status} {detail}".rstrip())
    assert ok, f"{name} {detail}"


def _positioning_scenario():
    deployment = build_linear_deployment(200, 40, 10, 10000)
    trajectory = snake_trajectory(130, 10000, 3.5, 500, 0.01)
    return deployment, trajectory


# Criterion 1's parts: statistic name -> (comparison, bar). The statistics
# are computed by criterion_1_statistics, which tests/golden/margins.py also
# calls to print the margins at other seeds.
CRITERION_1_BARS = {
    "q90_5": ("<=", 0.2),  # 90th-percentile fused error at 5 dB, m
    "q90_15": ("<=", 0.1),  # likewise at 15 dB
    # Least P(fused error <= e) - P(radio-only error <= e) over both SNRs and
    # 200 levels e from 0 to the largest radio-only error, less the levels
    # where both CDFs are 0 or both are 1 (their gap is exactly 0, which would
    # pin the statistic there): the fused CDF dominates the radio-only one
    # when it is not negative.
    "dominance": (">=", -1e-12),
}


def criterion_1_statistics(seed: int) -> dict[str, float]:
    """Criterion 1's statistics (``CRITERION_1_BARS``) at one seed."""
    deployment, trajectory = _positioning_scenario()
    results = {}
    for snr in (5.0, 15.0):
        point = point_fixes(deployment, trajectory, snr, 2, seed, decimation=10, speed_along_road=130 * KMH)
        nr_errs = point.nr_only_err
        results[snr] = (empirical_cdf(point.fused_err), empirical_cdf(nr_errs[~np.isnan(nr_errs)]))
    levels = [
        (fused.prob_at(e), nr.prob_at(e))
        for fused, nr in results.values()
        for e in np.linspace(0.0, nr.errors[-1], 200)
    ]
    return {
        "q90_5": results[5.0][0].quantile(0.9),
        "q90_15": results[15.0][0].quantile(0.9),
        "dominance": min(f - n for f, n in levels if (f, n) not in ((0.0, 0.0), (1.0, 1.0))),
    }


def test_criterion_1_positioning_accuracy():
    t0 = time.time()
    stats = criterion_1_statistics(1)
    ok = {part: meets_bar(stats[part], *bar) for part, bar in CRITERION_1_BARS.items()}
    elapsed = time.time() - t0
    _report(
        "criterion 1 (positioning accuracy)",
        all(ok.values()) and elapsed <= 120.0,
        f"q90@5dB={stats['q90_5']:.3f}m q90@15dB={stats['q90_15']:.3f}m "
        f"dominated={ok['dominance']} (gap {stats['dominance']:.3g}) {elapsed:.0f}s",
    )


def test_criterion_2_ekf_matches_batch_least_squares():
    t0 = time.time()
    deployment, trajectory = _positioning_scenario()
    noise = NoiseModel(angle_grid_step_rad=0.0, imu_accel_sigma=0.0)
    frames = simulate_measurements(
        deployment, trajectory, float("inf"), 2, seed=3, noise=noise, decimation=10
    )
    params = EkfParams(deployment=deployment, noise=noise)
    initial = StateEstimate(
        t=float(trajectory.t[0]),
        mean=np.array([trajectory.position[0, 0], trajectory.position[0, 1],
                       trajectory.velocity[0, 0], trajectory.velocity[0, 1]]),
        covariance=np.eye(4) * 1e-6,
    )
    estimates = ekf_fuse(frames, initial, params)

    sites = deployment.positions
    guess = trajectory.position[0, :2]
    gap = 0.0
    for frame, est in zip(frames, estimates):
        def resid(xy, frame=frame):
            return (frame.obs - [_measurement_model(xy, sites[k])[0] for k in frame.site_ids]).ravel()

        sol = least_squares(resid, guess, method="lm")
        guess = sol.x
        gap = max(gap, float(np.linalg.norm(est.mean[:2] - sol.x)))
    elapsed = time.time() - t0
    _report(
        "criterion 2 (EKF vs batch NLS)",
        gap < 1e-3 and elapsed <= 30.0,
        f"max gap={gap:.2e}m over {len(frames)} frames, {elapsed:.0f}s",
    )


def _rail_sweep_all_schemes():
    deployment = build_rail_deployment(700.0, 10.0)
    numerology = Numerology()
    trajectory = linear_trajectory(500.0, 2100.0, numerology.slot_duration)
    out = {}
    for scheme in Scheme:
        results = run_hst_sweep(
            deployment, trajectory, scheme, numerology, Mcs(), 1, HstLinkParams()
        )
        bins = bin_by_position(results, 20.0, numerology.slot_duration)
        out[scheme] = (bins.centers_m, bins.throughput_bps, results)
    return out, numerology


def test_criterion_3_hst_scheme_ordering():
    t0 = time.time()
    out, numerology = _rail_sweep_all_schemes()
    peak = transport_block_size(numerology, Mcs(), 1) / numerology.slot_duration
    centers = out[Scheme.SFN][0]
    mids = [np.argmin(np.abs(centers - x)) for x in (350.0, 1050.0, 1750.0)]

    def mid_min(scheme):
        return min(out[scheme][1][i] for i in mids)

    a = max(out[Scheme.SFN][1][i] for i in mids) < 0.9 * peak
    b = all(
        mid_min(s) >= mid_min(Scheme.SFN) + 0.1 * peak
        for s in (Scheme.SFN_CDD, Scheme.SFN_PRECOMP)
    )
    # (c) DPS hits the peak rate in every bin whose worst slot SNR is >= 12 dB.
    c_dps, t_dps, res_dps = out[Scheme.DPS]
    snr = np.array([r.effective_snr_db for r in res_dps])
    bins = np.floor(np.array([r.train_x for r in res_dps]) / 20.0).astype(int)
    gated = [b for b in np.unique(bins) if snr[bins == b].min() >= 12.0]
    c = all(
        t_dps[np.argmin(np.abs(c_dps - (b * 20 + 10)))] >= 0.99 * peak for b in gated
    )
    pre = out[Scheme.SFN_PRECOMP][1]
    best_alt = np.maximum.reduce(
        [out[s][1] for s in (Scheme.SFN, Scheme.SFN_CDD, Scheme.DPS)]
    )
    d = np.max(pre - best_alt) < 0.1 * peak
    elapsed = time.time() - t0
    _report(
        "criterion 3 (HST scheme ordering)",
        a and b and c and d and elapsed <= 300.0,
        f"a={a} b={b} c={c} ({len(gated)} gated bins) d={d} {elapsed:.0f}s",
    )


# The Doppler of a LoS ray seen head-on at 500 km/h and 2 GHz.
MIDPOINT_NU = (500.0 / 3.6) * 2e9 / 299792458.0


def _midpoint_two_ray(cdd_s, t, f):
    # LoS-only SFN seen from the midpoint between two TRPs: equal amplitudes,
    # opposite Doppler shifts from the approaching and receding sites, and
    # the CDD as the second TRP's base delay. One slot, two TRPs, one tap
    # each at offset 0; returns H (symbols, subcarriers).
    h = batched_freq_response(
        np.ones((1, 2, 1), dtype=complex), np.array([[0.0, cdd_s]]), np.zeros(1),
        np.array([[[MIDPOINT_NU], [-MIDPOINT_NU]]]), np.zeros(1), t, f,
    )
    return h[0]


def test_criterion_4a_flat_fade_without_cdd():
    nu = MIDPOINT_NU
    f = np.arange(600) * 30e3
    t_null = 1.0 / (4.0 * nu)
    power = np.abs(_midpoint_two_ray(0.0, [t_null], f)) ** 2
    deep = np.max(power) <= 4.0 * 1e-6  # every subcarrier >= 60 dB below peak
    t = np.linspace(0.0, 2.0 / nu, 41)
    h = _midpoint_two_ray(0.0, t, f)
    expected = 2.0 * np.abs(np.cos(2 * math.pi * nu * t))
    exact = np.max(np.abs(np.abs(h) - expected[:, None])) < 1e-9
    _report(
        "criterion 4a (SFN flat fade)",
        deep and exact,
        f"null depth={10 * math.log10(max(np.max(power), 1e-300) / 4.0):.0f}dB",
    )


def test_criterion_4b_cdd_fade_fraction():
    nu, cdd = MIDPOINT_NU, 1e-6
    f = np.arange(600) * 30e3
    t = np.linspace(0.0, 2.0 / nu, 41)
    power = np.abs(_midpoint_two_ray(cdd, t, f)) ** 2
    theta = 2 * math.pi * (2 * nu) * t
    expected = 2.0 + 2.0 * np.cos(2 * math.pi * f[None, :] * cdd + theta[:, None])
    exact = np.max(np.abs(power - expected)) < 1e-9
    mean = np.mean(power, axis=1, keepdims=True)
    frac = np.max(np.mean(power < 0.1 * mean, axis=1))
    # Closed form: P(2 + 2cos(phi) < 0.2) = (pi - acos(-0.9)) / pi = 0.1436,
    # independent of the symbol, so the 10% bar cannot be met. Kept honest.
    _report(
        "criterion 4b (CDD fade fraction)",
        exact and frac <= 0.10,
        f"exact={exact} worst fraction={frac:.4f} (closed form "
        f"{(math.pi - math.acos(-0.9)) / math.pi:.4f})",
    )


# Criterion 5's parts: statistic name -> (comparison, bar). The statistics
# are computed by criterion_5_statistics, which tests/golden/margins.py also
# calls to print the margins at other seeds.
CRITERION_5_BARS = {
    "a": ("<", 0.05),  # worst loaded rho = 0 throughput over the 10 Mbps/km^2 one
    "b": (">", 0.0),  # least gain of rho = 0.5 over rho = 0 at a loaded density, Mbps
    "c": ("<", 0.05),  # relative throughput change of rho = 0.5 at 10 Mbps/km^2
    "d": ("<", 0.05),  # worst |coverage - 0.5| of rho = 0.5 at a loaded density
    "e": ("<=", 0.5),  # median file time of rho = 0.5 over that of rho = 0 at 450 Mbps/km^2
}


def criterion_5_statistics(seed: int) -> dict[str, float]:
    """Criterion 5's statistics (``CRITERION_5_BARS``) at one seed, plus the
    two median file times of part e (``file_time_0.5``, ``file_time_0``)."""
    deployment = build_linear_deployment(1732, 0, 35, 1732)
    points = density_sweep(
        deployment, (10.0, 1000.0, 2000.0, 3000.0), (0.0, 0.5), 5, seed,
        duration=200.0, traffic=TrafficConfig(0.0, file_size_bits=50 * 8e6),
    )
    by = {(p.density_mbps_km2, p.drop_fraction): p for p in points}
    loaded = (1000.0, 2000.0, 3000.0)
    base = by[(10.0, 0.0)].mean_user_tput_mbps

    # (e) Median 500 MB file transfer time at the calibrated 450 Mbps/km^2
    # load: deferring the weakest half keeps the cell out of overload.
    traffic = TrafficConfig(450.0)
    medians = {}
    for rho in (0.0, 0.5):
        reps = [
            median_file_time(simulate_cell(
                deployment, traffic, DropPolicy(rho), 600.0,
                int(substream(seed, "ftr", rep).integers(2**62)),
            ))
            for rep in range(5)
        ]
        medians[rho] = float(np.median(reps))
    return {
        "a": max(by[(d, 0.0)].mean_user_tput_mbps for d in loaded) / base,
        "b": min(by[(d, 0.5)].mean_user_tput_mbps - by[(d, 0.0)].mean_user_tput_mbps for d in loaded),
        "c": abs(by[(10.0, 0.5)].mean_user_tput_mbps - base) / base,
        "d": max(abs(by[(d, 0.5)].coverage_fraction - 0.5) for d in loaded),
        "e": medians[0.5] / medians[0.0],
        "file_time_0.5": medians[0.5],
        "file_time_0": medians[0.0],
    }


def meets_bar(value: float, comparison: str, bar: float) -> bool:
    return {"<": value < bar, "<=": value <= bar, ">": value > bar, ">=": value >= bar}[comparison]


def test_criterion_5_scheduler_orderings():
    t0 = time.time()
    stats = criterion_5_statistics(7)
    ok = {part: meets_bar(stats[part], *bar) for part, bar in CRITERION_5_BARS.items()}
    elapsed = time.time() - t0
    _report(
        "criterion 5 (scheduler orderings)",
        all(ok.values()) and elapsed <= 600.0,
        " ".join(f"{part}={passed}" for part, passed in ok.items())
        + f" (file times {stats['file_time_0.5']:.1f}s vs {stats['file_time_0']:.1f}s) {elapsed:.0f}s",
    )


def test_criterion_6_two_user_closed_form():
    params = CellParams()
    deployment = build_linear_deployment(1732, 0, 35, 1732)

    def rate(gain_db):
        snr = params.cell_edge_snr_db + gain_db + float(pathloss_db(866.0))
        return _rate_bps(snr, params)

    def shadow(gain_db, x):
        return gain_db + float(pathloss_db(max(abs(x), 1.0)))

    traffic = TrafficConfig(0.0, file_size_bits=1e15, vehicle_speed_kmh=1e-9)
    users = [
        (100.0, 1.0, shadow(-100.0, 100.0), 1e15),
        (300.0, 1.0, shadow(-120.0, 300.0), 1e15),
    ]
    stats0 = simulate_cell(
        deployment, traffic, DropPolicy(0.0), 10.0, 1, params, initial_users=users
    )
    stats5 = simulate_cell(
        deployment, traffic, DropPolicy(0.5), 10.0, 1, params, initial_users=users
    )
    want0 = (rate(-100.0) / 2 + rate(-120.0) / 2) / 2
    want5 = rate(-100.0) / 2
    err0 = abs(mean_user_throughput(stats0) - want0) / want0
    err5 = abs(mean_user_throughput(stats5) - want5) / want5
    _report(
        "criterion 6 (two-user oracle)",
        err0 < 1e-6 and err5 < 1e-6,
        f"rel err rho=0: {err0:.1e}, rho=0.5: {err5:.1e}",
    )


def test_criterion_7_qos_exactness_and_u_shape():
    t0 = time.time()
    exact = (
        abs(prediction_error(1e6, 8e5, 0.1) - 2e6) < 1e-12
        and prediction_error(5.0, 5.0, 1.0) == 0.0
        and abs(prediction_error(6e6, 0.0, 2.0) - 3e6) < 1e-12
    )

    trace = default_hst_trace(1)
    medians = {
        dt: float(np.median(horizon_errors(trace, dt, "last_window")))
        for dt in (0.1, 1.0, 10.0)
    }
    u_shape = medians[1.0] >= medians[0.1] and medians[1.0] >= medians[10.0]

    rng = np.random.default_rng(3)
    iid = ThroughputTrace(0.05, rng.uniform(1e5, 3e5, 120_000))
    m_short = np.median(horizon_errors(iid, 0.5, "last_window", step_s=0.5))
    m_long = np.median(horizon_errors(iid, 5.0, "last_window", step_s=5.0))
    scaling = abs(m_short / m_long - math.sqrt(10.0)) / math.sqrt(10.0) < 0.2
    elapsed = time.time() - t0
    _report(
        "criterion 7 (QoS metric and U-shape)",
        exact and u_shape and scaling and elapsed <= 60.0,
        f"medians Mbps 0.1/1/10s = {medians[0.1] / 1e6:.2f}/"
        f"{medians[1.0] / 1e6:.2f}/{medians[10.0] / 1e6:.2f}, "
        f"scaling ratio {m_short / m_long:.2f}, {elapsed:.0f}s",
    )


def test_criterion_8_byte_identical_reruns(tmp_path):
    configs = {
        "positioning": "[positioning]\nseed = 3\nspan_m = 600\nsnr_db = 15\n",
        "hst": "[hst]\nseed = 1\nscheme = SFN\nspan_m = 300\n",
        "scheduler": (
            "[scheduler]\nseed = 7\nreplications = 2\nduration_s = 20\n"
            "densities_mbps_km2 = 10, 1000\n{workers}"
        ),
        "qos": "[qos]\nseed = 2\ntrace_repeats = 6\nhorizons_s = 0.5, 1\n",
    }
    ok = True
    details = []
    for study, text in configs.items():
        hashes = []
        variants = ("workers = 1\n", "workers = 3\n") if "{workers}" in text else ("", "")
        for i, w in enumerate(variants):
            cfg = parse_config(text.replace("{workers}", w))
            m = run(cfg, str(tmp_path / f"{study}_{i}"))
            hashes.append({k: v["sha256"] for k, v in m.outputs.items()})
        same = hashes[0] == hashes[1]
        ok = ok and same
        details.append(f"{study}={'ok' if same else 'DIFF'}")
    _report("criterion 8 (determinism)", ok, " ".join(details))
