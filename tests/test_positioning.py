"""Fusion positioning: measurement model, EKF, geometric solve, error CDFs."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import least_squares

from nrtransport import (
    EkfParams,
    NoiseModel,
    build_linear_deployment,
    ekf_fuse,
    empirical_cdf,
    error_cdf,
    horizontal_errors,
    initial_state_from_frame,
    nr_only_position,
    nr_only_positions,
    positioning,
    runner,
    simulate_measurements,
    snake_trajectory,
)
from nrtransport.channel import azimuth, elevation, los_geometry
from nrtransport.config import parse_config
from nrtransport.errors import ConfigurationError, EstimationError
from nrtransport.positioning import MeasurementFrame, SiteMeasurement, StateEstimate
from nrtransport.rng import substream
from nrtransport.scenario import UE_HEIGHT_M


def _scenario(span=1000.0):
    deployment = build_linear_deployment(200, 40, 10, span)
    trajectory = snake_trajectory(130, span, 3.5, 500, 0.01)
    return deployment, trajectory


def _truth(site, position):
    """(range, az, el) of the direct path, az/el seen from the vehicle toward the site."""
    delta, dist = los_geometry(site[None], np.asarray(position, dtype=float)[None])
    return float(dist[0, 0]), float(azimuth(-delta[0, 0])), float(elevation(-delta[0, 0]))


def test_range_noise_scales_with_snr():
    noise = NoiseModel()
    ratio = noise.range_sigma(5.0) / noise.range_sigma(15.0)
    assert abs(ratio - math.sqrt(10.0)) < 1e-12
    assert noise.range_sigma(float("inf")) == 0.0


def test_angle_noise_floor_is_grid_quantization():
    noise = NoiseModel()
    floor = noise.angle_grid_step_rad / math.sqrt(12.0)
    assert abs(noise.angle_sigma(float("inf")) - floor) < 1e-15
    assert noise.angle_sigma(5.0) > noise.angle_sigma(15.0) > floor


def test_nearest_sites_selected():
    deployment, trajectory = _scenario()
    frames = simulate_measurements(deployment, trajectory, float("inf"), 2, seed=1)
    # Find the frame closest to x = 100 m: sites 0 (x=0) and 1 (x=200) are nearest.
    i = int(np.argmin(np.abs([trajectory.position[int(round(f.t / 0.01))][0] - 100.0 for f in frames])))
    ids = sorted(m.site_id for m in frames[i].per_site)
    assert ids == [0, 1]


def test_noise_free_measurements_match_geometry():
    deployment, trajectory = _scenario()
    noise = NoiseModel(angle_grid_step_rad=0.0, imu_accel_sigma=0.0)
    frames = simulate_measurements(
        deployment, trajectory, float("inf"), 2, seed=1, noise=noise, decimation=50
    )
    for frame in frames[:5]:
        idx = int(round(frame.t / 0.01))
        for m in frame.per_site:
            r, az, el = _truth(deployment.positions[m.site_id], trajectory.position[idx])
            assert abs(m.range_m - r) < 1e-9
            assert abs(m.aoa_az - az) < 1e-12
            assert abs(m.aoa_el - el) < 1e-12
        assert np.allclose(frame.imu_accel, trajectory.acceleration[idx, :2])


def test_measurement_model_matches_los_geometry():
    # The estimators' scalar model and the array truth geometry are the two
    # geometry implementations; they must agree on any pose.
    rng = np.random.default_rng(12)
    for _ in range(200):
        site = rng.uniform([-500.0, -100.0, 0.0], [500.0, 100.0, 40.0])
        xy = rng.uniform(-500.0, 500.0, 2)
        (r, az, el), _ = positioning._measurement_model(xy, site)
        delta, dist = los_geometry(site[None], np.array([[xy[0], xy[1], UE_HEIGHT_M]]))
        to_site = -delta[0, 0]
        assert abs(r - dist[0, 0]) < 1e-12 * max(1.0, r)
        assert abs(az - azimuth(to_site)) < 1e-12
        assert abs(el - elevation(to_site)) < 1e-12


def test_measurement_validation():
    deployment, trajectory = _scenario()
    with pytest.raises(ConfigurationError):
        simulate_measurements(deployment, trajectory, 5.0, 0, seed=1)
    with pytest.raises(ConfigurationError):
        simulate_measurements(deployment, trajectory, 5.0, 99, seed=1)


def _batch_nls(frames, deployment, params, x0):
    """Independent oracle: per-frame nonlinear least squares over (x, y)."""
    from nrtransport.positioning import _measurement_model

    solutions = []
    guess = np.asarray(x0, dtype=float)
    for frame in frames:
        def resid(xy, frame=frame):
            out = []
            for m in frame.per_site:
                h, _ = _measurement_model(xy, deployment.positions[m.site_id])
                out.extend([m.range_m - h[0], m.aoa_az - h[1], m.aoa_el - h[2]])
            return np.asarray(out)

        sol = least_squares(resid, guess, method="lm")
        guess = sol.x
        solutions.append(sol.x.copy())
    return solutions


def test_ekf_matches_batch_least_squares_on_noise_free_data():
    deployment, trajectory = _scenario(span=2000.0)
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
    oracle = _batch_nls(frames, deployment, params, trajectory.position[0, :2])
    gap = max(
        float(np.linalg.norm(est.mean[:2] - xy)) for est, xy in zip(estimates, oracle)
    )
    assert gap < 1e-3


def test_covariance_contracts_on_repeated_static_updates():
    deployment, _ = _scenario()
    per_site = [SiteMeasurement(sid, *_truth(deployment.positions[sid], [100.0, 0.0, 1.5]), 15.0) for sid in (0, 1)]
    frames = [
        MeasurementFrame(t=0.01 * i, per_site=tuple(per_site), imu_accel=np.zeros(2))
        for i in range(50)
    ]
    params = EkfParams(deployment=deployment, noise=NoiseModel(imu_accel_sigma=0.0))
    initial = StateEstimate(
        t=0.0, mean=np.array([99.0, 1.0, 0.0, 0.0]), covariance=np.eye(4)
    )
    traces = [float(np.trace(e.covariance)) for e in ekf_fuse(frames, initial, params)]
    assert all(b <= a + 1e-9 for a, b in zip(traces, traces[1:]))


def test_nr_only_exact_on_noise_free_frames():
    deployment, trajectory = _scenario()
    noise = NoiseModel(angle_grid_step_rad=0.0, imu_accel_sigma=0.0)
    params = EkfParams(deployment=deployment, noise=noise)
    one = simulate_measurements(
        deployment, trajectory, float("inf"), 1, seed=2, noise=noise, decimation=100
    )
    two = simulate_measurements(
        deployment, trajectory, float("inf"), 2, seed=2, noise=noise, decimation=100
    )
    for f1, f2 in zip(one, two):
        truth = trajectory.position[int(round(f1.t / 0.01))][:2]
        p1 = nr_only_position(f1, params)
        p2 = nr_only_position(f2, params)
        assert np.linalg.norm(p1 - truth) < 1e-9
        assert np.linalg.norm(p2 - truth) < 1e-9
        assert np.linalg.norm(p1 - p2) < 1e-9


def test_nr_only_median_matches_monte_carlo_oracle():
    # Single-site solve with sigma_r = 0.5 m and 1 degree angles at ~100 m
    # range: the solve is a direct geometric inversion, so its error equals
    # the error of the perturbed intersection point. Compare medians.
    deployment, _ = _scenario()
    site = deployment.positions[0]
    position = np.array([90.0, 5.0, 1.5])
    true_range, true_az, true_el = _truth(site, position)
    sigma_r, sigma_a = 0.5, math.radians(1.0)
    params = EkfParams(deployment=deployment)

    rng = substream(11, "mc")
    n = 100_000
    dr = rng.normal(0, sigma_r, n)
    daz = rng.normal(0, sigma_a, n)
    del_ = rng.normal(0, sigma_a, n)
    # Monte-Carlo oracle: propagate the same perturbations analytically.
    r = true_range + dr
    az = true_az + daz
    el = true_el + del_
    x = site[0] - r * np.cos(az) * np.cos(el)
    y = site[1] - r * np.sin(az) * np.cos(el)
    oracle_median = np.median(np.hypot(x - position[0], y - position[1]))

    rng = substream(11, "solve")
    errs = []
    for _ in range(2000):
        m = SiteMeasurement(
            0,
            true_range + rng.normal(0, sigma_r),
            true_az + rng.normal(0, sigma_a),
            true_el + rng.normal(0, sigma_a),
            15.0,
        )
        frame = MeasurementFrame(t=0.0, per_site=(m,), imu_accel=np.zeros(2))
        errs.append(np.linalg.norm(nr_only_position(frame, params) - position[:2]))
    assert abs(np.median(errs) - oracle_median) / oracle_median < 0.2


def _weighted_nls(frame, deployment, params):
    """Independent oracle: the frame's weighted least-squares fix from scipy,
    with the solver's weights (1 / noise std of each observable), its angle
    wrap and its starting point, and the geometry written out in numpy."""
    snr = frame.per_site[0].snr_db
    w = np.array([1.0 / params.noise.range_sigma(snr)] + [1.0 / params.noise.angle_sigma(snr)] * 2)
    pos = deployment.positions[[m.site_id for m in frame.per_site]]
    z = np.array([[m.range_m, m.aoa_az, m.aoa_el] for m in frame.per_site])

    def resid(xy):
        d = pos - np.array([xy[0], xy[1], UE_HEIGHT_M])
        horiz = np.hypot(d[:, 0], d[:, 1])
        h = np.column_stack([np.hypot(horiz, d[:, 2]), np.arctan2(d[:, 1], d[:, 0]),
                             np.arctan2(d[:, 2], horiz)])
        r = z - h
        r[:, 1:] = (r[:, 1:] + np.pi) % (2 * np.pi) - np.pi
        return (r * w).ravel()

    best = frame.per_site[0]
    u = np.array([np.cos(best.aoa_az) * np.cos(best.aoa_el), np.sin(best.aoa_az) * np.cos(best.aoa_el)])
    x0 = deployment.positions[best.site_id, :2] - best.range_m * u
    return least_squares(resid, x0, jac="3-point", method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15).x


@pytest.mark.parametrize("n_sites", [2, 3])
def test_nr_only_matches_weighted_least_squares_oracle(n_sites):
    deployment, trajectory = _scenario()
    params = EkfParams(deployment=deployment)
    gap = 0.0
    for snr in (5.0, 15.0):
        frames = simulate_measurements(deployment, trajectory, snr, n_sites, seed=6, decimation=50)
        for frame in frames:
            xy = nr_only_position(frame, params)
            gap = max(gap, float(np.hypot(*(xy - _weighted_nls(frame, deployment, params)))))
    assert gap < 1e-6


def _two_site_frame(deployment):
    per_site = []
    for sid in (0, 1):
        r, az, el = _truth(deployment.positions[sid], [90.0, 5.0, 1.5])
        per_site.append(SiteMeasurement(sid, r + 0.1 * sid, az, el, 15.0))
    return MeasurementFrame(t=0.0, per_site=tuple(per_site), imu_accel=np.zeros(2))


def test_diverging_solve_raises_and_is_a_nan_row():
    deployment, _ = _scenario()
    params = EkfParams(deployment=deployment)
    good = _two_site_frame(deployment)
    far = dataclasses.replace(good.per_site[1], range_m=1e300)
    bad = dataclasses.replace(good, per_site=(good.per_site[0], far))
    with pytest.raises(EstimationError, match="diverged"):
        nr_only_position(bad, params)
    xy = nr_only_positions([good, bad, good], params)
    assert np.all(np.isnan(xy[1]))
    assert np.array_equal(xy[0], nr_only_position(good, params))
    assert np.array_equal(xy[2], xy[0])


def test_oscillating_solve_raises_and_is_a_nan_row():
    # Sites on the road axis: range says almost nothing about the lateral
    # coordinate near y = 0, which then rests on the two azimuths. Gauss-
    # Newton drops the curvature of the large range residual, so this frame's
    # lateral steps overshoot back and forth for all GN_MAX_ITER iterations
    # instead of converging.
    p = parse_config("[positioning]\nlateral_offset_m = 0\nspan_m = 2000\n").params
    deployment, trajectory = runner._positioning_scenario(p)
    frames = simulate_measurements(deployment, trajectory, 15.0, 2, 1, decimation=10)
    (frame,) = [f for f in frames if abs(f.t - 47.9) < 1e-9]
    params = EkfParams(deployment=deployment)
    with pytest.raises(EstimationError, match="did not converge"):
        nr_only_position(frame, params)
    assert np.all(np.isnan(nr_only_positions([frame], params)))


def test_solve_is_deterministic():
    deployment, trajectory = _scenario()
    params = EkfParams(deployment=deployment)
    frames = simulate_measurements(deployment, trajectory, 5.0, 3, seed=8, decimation=100)
    for frame in frames:
        a, b = nr_only_position(frame, params), nr_only_position(frame, params)
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("field", ["range_m", "aoa_az", "aoa_el"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_measurement_rejected(field, value):
    deployment, _ = _scenario()
    good = _two_site_frame(deployment)
    broken = dataclasses.replace(good.per_site[1], **{field: value})
    with pytest.raises(ConfigurationError, match="finite"):
        dataclasses.replace(good, per_site=(good.per_site[0], broken))


def test_ekf_rejects_initial_covariance_not_positive_definite():
    deployment, trajectory = _scenario()
    frames = simulate_measurements(deployment, trajectory, 15.0, 2, seed=4, decimation=100)
    params = EkfParams(deployment=deployment)
    mean = np.array([0.0, 0.0, 36.0, 0.0])
    for cov, match in ((np.diag([1.0, 1.0, 1.0, 0.0]), "positive definite"),
                       (np.eye(4) + np.eye(4, k=1), "symmetric"),
                       (np.eye(3), "symmetric")):
        with pytest.raises(ConfigurationError, match=match):
            ekf_fuse(frames, StateEstimate(t=0.0, mean=mean, covariance=cov), params)


def test_empirical_cdf_order_statistics():
    cdf = empirical_cdf([0.1, 0.2, 0.3, 0.4])
    assert cdf.prob_at(0.25) == 0.5
    zero = empirical_cdf([0.0, 0.0])
    assert zero.errors[0] == 0.0 and zero.prob_at(0.0) == 1.0


def test_error_cdf_permutation_invariant():
    deployment, trajectory = _scenario()
    frames = simulate_measurements(deployment, trajectory, 15.0, 2, seed=4, decimation=20)
    params = EkfParams(deployment=deployment)
    initial = initial_state_from_frame(frames[0], params, speed_along_road=130 / 3.6)
    estimates = ekf_fuse(frames, initial, params)
    cdf1 = error_cdf(estimates, trajectory)
    cdf2 = error_cdf(list(reversed(estimates)), trajectory)
    assert np.array_equal(cdf1.errors, cdf2.errors)


def test_failed_radio_only_solve_is_a_nan_row(monkeypatch):
    deployment, trajectory = _scenario()
    frames = simulate_measurements(deployment, trajectory, 15.0, 2, seed=4, decimation=100)
    params = EkfParams(deployment=deployment)
    solve = positioning.nr_only_position

    def fail_second(frame, params):
        if frame is frames[1]:
            raise EstimationError("Gauss-Newton diverged")
        return solve(frame, params)

    monkeypatch.setattr(positioning, "nr_only_position", fail_second)
    xy = nr_only_positions(frames, params)
    assert xy.shape == (len(frames), 2) and np.all(np.isnan(xy[1]))
    for i in (0, 2, len(frames) - 1):
        assert np.array_equal(xy[i], solve(frames[i], params))
    errs = horizontal_errors(xy, np.array([f.t for f in frames]), trajectory)
    assert np.isnan(errs[1]) and np.all(np.isfinite(np.delete(errs, 1)))
    with pytest.raises(ConfigurationError, match="NaN"):
        empirical_cdf(errs)


def test_horizontal_errors_against_the_sample_at_each_time():
    _, trajectory = _scenario()
    idx = np.array([0, 7, 250])
    truth = trajectory.position[idx, :2]
    xy = truth + np.array([[3.0, 4.0], [0.0, 0.0], [-6.0, 8.0]])
    np.testing.assert_allclose(horizontal_errors(xy, trajectory.t[idx], trajectory), [5, 0, 10], atol=1e-12)
    with pytest.raises(ConfigurationError, match="no matching trajectory sample"):
        horizontal_errors(xy, trajectory.t[idx] + 0.004, trajectory)
    with pytest.raises(ConfigurationError, match="no matching trajectory sample"):
        horizontal_errors(xy[:1], np.array([trajectory.t[-1] + 0.01]), trajectory)


def test_more_fused_sites_does_not_hurt():
    deployment, trajectory = _scenario(span=2000.0)
    q90 = {}
    for nb in (1, 2):
        frames = simulate_measurements(
            deployment, trajectory, 15.0, nb, seed=5, decimation=10
        )
        params = EkfParams(deployment=deployment)
        initial = initial_state_from_frame(frames[0], params, speed_along_road=130 / 3.6)
        cdf = error_cdf(ekf_fuse(frames, initial, params), trajectory)
        q90[nb] = cdf.quantile(0.9)
    assert q90[2] <= q90[1] * 1.25  # allow Monte-Carlo slack
