"""Highway fusion positioning study.

Generates noisy downlink range/angle measurements plus inertial acceleration
along a trajectory, fuses them with an extended Kalman filter (optionally from
several base stations at once), solves per-epoch geometric positions for the
radio-only baseline, and summarizes horizontal errors as empirical CDFs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channel import SPEED_OF_LIGHT, azimuth, elevation, los_geometry
from .errors import ConfigurationError, EstimationError, NumericalError
from .rng import substream
from .scenario import UE_HEIGHT_M, Deployment, Trajectory

EFF_BANDWIDTH_HZ = 400e6  # positioning reference signal bandwidth
ANGLE_SNR_COEFF_RAD = 0.02  # angle std at 0 dB SNR, before quantization
# Floors on the noise std the filter and the solver weight by.
SIGMA_FLOOR_M = 1e-6
SIGMA_FLOOR_RAD = 1e-9
PROCESS_JITTER = 1e-12  # added to the covariance diagonal every epoch
INITIAL_POS_SIGMA_M = 5.0
INITIAL_VEL_SIGMA_MPS = 2.0
# Gauss-Newton stops when a step is shorter than GN_STEP_TOL metres and
# fails after GN_MAX_ITER iterations.
GN_MAX_ITER = 50
GN_STEP_TOL = 1e-9


@dataclass(frozen=True)
class NoiseModel:
    """Measurement noise scales.

    Range std follows a bandwidth/SNR law, c / (2 B sqrt(2 SNR)); angle std
    combines the beam-grid quantization step with an SNR-dependent Gaussian
    term (root-sum-square). The IMU reports acceleration with white noise.
    """

    angle_grid_step_rad: float = 0.125  # 16-column half-wavelength DFT grid
    imu_accel_sigma: float = 0.05  # m/s^2 per axis

    def range_sigma(self, snr_db: float) -> float:
        if math.isinf(snr_db):
            return 0.0
        snr = 10.0 ** (snr_db / 10.0)
        return SPEED_OF_LIGHT / (2.0 * EFF_BANDWIDTH_HZ * math.sqrt(2.0 * snr))

    def angle_sigma(self, snr_db: float) -> float:
        quant = self.angle_grid_step_rad / math.sqrt(12.0)
        if math.isinf(snr_db):
            gauss = 0.0
        else:
            gauss = ANGLE_SNR_COEFF_RAD / math.sqrt(10.0 ** (snr_db / 10.0))
        return math.hypot(quant, gauss)


@dataclass(frozen=True)
class SiteMeasurement:
    site_id: int  # row of the site in the deployment's positions
    range_m: float
    aoa_az: float  # azimuth toward the site, seen from the vehicle
    aoa_el: float
    snr_db: float


@dataclass(frozen=True)
class MeasurementFrame:
    t: float
    per_site: tuple[SiteMeasurement, ...]
    imu_accel: np.ndarray  # 2-vector, road plane

    def __post_init__(self):
        ordered = tuple(sorted(self.per_site, key=lambda m: (-m.snr_db, m.range_m)))
        object.__setattr__(self, "per_site", ordered)
        for m in self.per_site:
            if not (math.isfinite(m.range_m) and math.isfinite(m.aoa_az) and math.isfinite(m.aoa_el)):
                raise ConfigurationError("measured range and angles must be finite")
            if m.range_m <= 0:
                raise ConfigurationError("measured range must be positive")


def simulate_measurements(
    deployment: Deployment,
    trajectory: Trajectory,
    snr_db: float,
    n_fused_bs: int,
    seed: int,
    *,
    noise: NoiseModel | None = None,
    decimation: int = 1,
) -> list[MeasurementFrame]:
    """One frame per (decimated) trajectory epoch from the nearest sites.

    The true ranges and arrival angles of every epoch come from one
    :func:`channel.los_geometry` call; the noise is one block of normal
    draws, frame by frame in the order range, az, el per site (each only when
    its sigma is non-zero), then the two IMU axes.
    """
    if n_fused_bs < 1:
        raise ConfigurationError("n_fused_bs must be at least 1")
    if n_fused_bs > len(deployment.positions):
        raise ConfigurationError("n_fused_bs exceeds the number of deployed sites")
    if decimation < 1:
        raise ConfigurationError("decimation must be >= 1")
    noise = noise or NoiseModel()
    sigma_r = noise.range_sigma(snr_db)
    sigma_ang = noise.angle_sigma(snr_db)
    rng = substream(seed, "positioning", "meas")

    idx = np.arange(0, len(trajectory), decimation)
    delta, dist = los_geometry(deployment.positions, trajectory.position[idx])
    nearest = np.argsort(dist, axis=1, kind="stable")[:, :n_fused_bs]
    to_site = -np.take_along_axis(delta, nearest[:, :, None], axis=1)
    truth = np.stack([np.take_along_axis(dist, nearest, axis=1), azimuth(to_site), elevation(to_site)], axis=-1)
    # Columns: (range, az, el) per site, then the IMU acceleration (x, y).
    obs = np.concatenate([truth.reshape(len(idx), -1), trajectory.acceleration[idx, :2]], axis=1)
    scales = np.array([sigma_r, sigma_ang, sigma_ang] * n_fused_bs + [noise.imu_accel_sigma] * 2)
    drawn = scales != 0.0
    obs[:, drawn] += rng.normal(0.0, scales[drawn], size=(len(idx), int(np.count_nonzero(drawn))))

    frames = []
    for i, (t, row) in enumerate(zip(trajectory.t[idx].tolist(), obs.tolist())):
        per_site = tuple(SiteMeasurement(k, *row[3 * j:3 * j + 3], snr_db=snr_db)
                         for j, k in enumerate(nearest[i].tolist()))
        frames.append(MeasurementFrame(t=t, per_site=per_site, imu_accel=obs[i, -2:]))
    return frames


# ---------------------------------------------------------------------------
# Extended Kalman filter


@dataclass(frozen=True)
class StateEstimate:
    """Planar state (x, y, vx, vy) with covariance."""

    t: float
    mean: np.ndarray
    covariance: np.ndarray


@dataclass(frozen=True)
class EkfParams:
    deployment: Deployment
    noise: NoiseModel = field(default_factory=NoiseModel)

    @cached_property
    def site_xyz(self) -> list[list[float]]:
        """Position of every deployed site by row, as floats."""
        return self.deployment.positions.tolist()


def _measurement_model(state_xy, site_pos):
    """Predicted ``(range, az, el)`` toward a site and its Jacobian rows wrt
    (x, y), ``((dr/dx, dr/dy), (daz/dx, daz/dy), (del/dx, del/dy))``, as float
    tuples."""
    dx = site_pos[0] - state_xy[0]
    dy = site_pos[1] - state_xy[1]
    dz = site_pos[2] - UE_HEIGHT_M
    d2 = math.hypot(dx, dy)
    r = math.sqrt(d2 * d2 + dz * dz)
    az = math.atan2(dy, dx)
    el = math.atan2(dz, d2)
    return (r, az, el), (
        (-dx / r, -dy / r),
        (dy / (d2 * d2), -dx / (d2 * d2)),
        (dx * dz / (r * r * d2), dy * dz / (r * r * d2)),
    )


def _wrap(angle):
    """Angle (float or array) wrapped into [-pi, pi)."""
    return (angle + math.pi) % (2.0 * math.pi) - math.pi


def ekf_fuse(
    frames: list[MeasurementFrame],
    initial: StateEstimate,
    params: EkfParams,
) -> list[StateEstimate]:
    """Fuse IMU acceleration (control input) with stacked per-site residuals.

    The initial covariance must be a symmetric positive-definite 4x4 matrix
    (``ConfigurationError``); every epoch's covariance is checked again
    (``NumericalError`` naming the epoch).
    """
    if not frames:
        raise ConfigurationError("no measurement frames")
    sites = params.site_xyz
    x = np.asarray(initial.mean, dtype=float).copy()
    p = np.asarray(initial.covariance, dtype=float).copy()
    if p.shape != (4, 4) or np.max(np.abs(p - p.T)) > 1e-12:
        raise ConfigurationError("initial covariance must be symmetric 4x4")
    if np.any(np.linalg.eigvalsh(p) <= 0):
        raise ConfigurationError("initial covariance must be positive definite")
    t_prev = initial.t
    out = []
    for epoch, frame in enumerate(frames):
        dt = frame.t - t_prev
        if dt < 0:
            raise ConfigurationError("frames must be time-ordered")
        t_prev = frame.t
        if dt > 0:
            f = np.eye(4)
            f[0, 2] = f[1, 3] = dt
            a = frame.imu_accel
            x = f @ x
            x[0] += 0.5 * a[0] * dt * dt
            x[1] += 0.5 * a[1] * dt * dt
            x[2] += a[0] * dt
            x[3] += a[1] * dt
            g = np.array([[0.5 * dt * dt, 0.0], [0.0, 0.5 * dt * dt], [dt, 0.0], [0.0, dt]])
            sig_a = max(params.noise.imu_accel_sigma, 1e-6)
            q = (sig_a**2) * (g @ g.T)
            p = f @ p @ f.T + q

        # Stack residuals from all reported sites.
        n = len(frame.per_site)
        if n:
            z = np.empty(3 * n)
            pred = np.empty(3 * n)
            jac = np.zeros((3 * n, 4))
            r_diag = np.empty(3 * n)
            sig_r = max(params.noise.range_sigma(frame.per_site[0].snr_db), SIGMA_FLOOR_M)
            sig_ang = max(params.noise.angle_sigma(frame.per_site[0].snr_db), SIGMA_FLOOR_RAD)
            for k, m in enumerate(frame.per_site):
                h, j = _measurement_model(x[:2], sites[m.site_id])
                sl = slice(3 * k, 3 * k + 3)
                z[sl] = (m.range_m, m.aoa_az, m.aoa_el)
                pred[sl] = h
                jac[sl, :2] = j
                r_diag[sl] = (sig_r**2, sig_ang**2, sig_ang**2)
            innov = z - pred
            innov[1::3] = _wrap(innov[1::3])
            innov[2::3] = _wrap(innov[2::3])
            s = jac @ p @ jac.T + np.diag(r_diag)
            try:
                gain = p @ jac.T @ np.linalg.inv(s)
            except np.linalg.LinAlgError as exc:
                raise NumericalError("innovation covariance is singular", epoch=epoch) from exc
            x = x + gain @ innov
            ikh = np.eye(4) - gain @ jac
            p = ikh @ p @ ikh.T + gain @ np.diag(r_diag) @ gain.T

        p = 0.5 * (p + p.T) + PROCESS_JITTER * np.eye(4)
        if np.any(np.linalg.eigvalsh(p) <= 0):
            raise NumericalError("covariance lost positive definiteness", epoch=epoch)
        out.append(StateEstimate(t=frame.t, mean=x.copy(), covariance=p.copy()))
    return out


def initial_state_from_frame(
    frame: MeasurementFrame,
    params: EkfParams,
    *,
    speed_along_road: float = 0.0,
) -> StateEstimate:
    """Seed the filter from the first frame's single-site geometric solve."""
    x, y = _single_site_position(frame.per_site[0], params)
    mean = np.array([x, y, speed_along_road, 0.0])
    cov = np.diag([INITIAL_POS_SIGMA_M**2] * 2 + [INITIAL_VEL_SIGMA_MPS**2] * 2)
    return StateEstimate(t=frame.t, mean=mean, covariance=cov)


# ---------------------------------------------------------------------------
# Radio-only geometric solve


def _single_site_position(m: SiteMeasurement, params: EkfParams) -> tuple[float, float]:
    sx, sy, _ = params.site_xyz[m.site_id]
    # Vehicle sits at site - range * u, with u the unit vector from the
    # vehicle toward the site (the measured arrival direction, reversed).
    cos_el = math.cos(m.aoa_el)
    return (
        sx - m.range_m * (math.cos(m.aoa_az) * cos_el),
        sy - m.range_m * (math.sin(m.aoa_az) * cos_el),
    )


def nr_only_position(frame: MeasurementFrame, params: EkfParams) -> np.ndarray:
    """Per-epoch geometric position (x, y) from radio measurements alone.

    One site: range/angle intersection. Several: weighted Gauss-Newton over
    the stacked (range, az, el) residuals of every site, initialized from the
    best-SNR site's intersection. Each iteration sums the 2x2 normal
    equations (J^T W^2 J) step = J^T W^2 res in floats and solves them in
    closed form (no ``lstsq``), with W the inverse noise std of each
    observable. Raises ``EstimationError`` when the determinant is zero
    ("singular"), a step is not finite or longer than 1e6 m ("diverged"), or
    no step is shorter than ``GN_STEP_TOL`` within ``GN_MAX_ITER`` iterations
    ("did not converge").
    """
    if not frame.per_site:
        raise ConfigurationError("frame has no site measurements")
    x, y = _single_site_position(frame.per_site[0], params)
    if len(frame.per_site) == 1:
        return np.array([x, y])

    w_r = 1.0 / max(params.noise.range_sigma(frame.per_site[0].snr_db), SIGMA_FLOOR_M)
    w_ang = 1.0 / max(params.noise.angle_sigma(frame.per_site[0].snr_db), SIGMA_FLOOR_RAD)
    sites = params.site_xyz
    meas = [(sites[m.site_id], float(m.range_m), float(m.aoa_az), float(m.aoa_el))
            for m in frame.per_site]

    for _ in range(GN_MAX_ITER):
        n00 = n01 = n11 = g0 = g1 = 0.0
        for site, range_m, az_m, el_m in meas:
            (r, az, el), (jr, ja, je) = _measurement_model((x, y), site)
            for w, res, (j0, j1) in (
                (w_r, range_m - r, jr),
                (w_ang, _wrap(az_m - az), ja),
                (w_ang, _wrap(el_m - el), je),
            ):
                a0 = w * j0
                a1 = w * j1
                b = w * res
                n00 += a0 * a0
                n01 += a0 * a1
                n11 += a1 * a1
                g0 += a0 * b
                g1 += a1 * b
        det = n00 * n11 - n01 * n01
        if det == 0.0:
            raise EstimationError("Gauss-Newton normal equations singular")
        sx = (n11 * g0 - n01 * g1) / det
        sy = (n00 * g1 - n01 * g0) / det
        step = math.hypot(sx, sy)
        if not step <= 1e6:  # also catches a NaN step
            raise EstimationError("Gauss-Newton diverged")
        x += sx
        y += sy
        if step < GN_STEP_TOL:
            return np.array([x, y])
    raise EstimationError("Gauss-Newton did not converge")


def nr_only_positions(frames: list[MeasurementFrame], params: EkfParams) -> np.ndarray:
    """Radio-only position of every frame, shape (frames, 2), from
    :func:`nr_only_position`; the row of a frame whose solve raises
    ``EstimationError`` is NaN."""
    xy = np.full((len(frames), 2), np.nan)
    for i, frame in enumerate(frames):
        try:
            xy[i] = nr_only_position(frame, params)
        except EstimationError:
            pass
    return xy


# ---------------------------------------------------------------------------
# Error CDFs


@dataclass(frozen=True)
class ErrorCdf:
    errors: np.ndarray  # sorted, m
    probabilities: np.ndarray  # non-decreasing, last = 1

    def __post_init__(self):
        e = np.asarray(self.errors, dtype=float)
        p = np.asarray(self.probabilities, dtype=float)
        if len(e) == 0:
            raise ConfigurationError("empty error CDF")
        if np.any(np.diff(e) < 0) or np.any(np.diff(p) < 0) or abs(p[-1] - 1.0) > 1e-12:
            raise ConfigurationError("CDF fields must be non-decreasing with final probability 1")

    def quantile(self, q: float) -> float:
        idx = int(np.searchsorted(self.probabilities, q))
        idx = min(idx, len(self.errors) - 1)
        return float(self.errors[idx])

    def prob_at(self, e: float) -> float:
        return float(np.searchsorted(self.errors, e, side="right")) / len(self.errors)


def empirical_cdf(errors) -> ErrorCdf:
    e = np.sort(np.asarray(errors, dtype=float))
    if len(e) == 0:
        raise ConfigurationError("no errors to summarize")
    if np.isnan(e[-1]):  # sorting puts NaN last
        raise ConfigurationError("errors to summarize contain NaN")
    p = np.arange(1, len(e) + 1, dtype=float) / len(e)
    return ErrorCdf(errors=e, probabilities=p)


def horizontal_errors(xy: np.ndarray, t: np.ndarray, trajectory: Trajectory) -> np.ndarray:
    """Horizontal distance (m) of each position ``xy`` (n, 2) from the
    trajectory sample at its time ``t`` (n,); a NaN position gives NaN."""
    truth = trajectory.position[trajectory.index_at(t)]
    return np.hypot(xy[:, 0] - truth[:, 0], xy[:, 1] - truth[:, 1])


def error_cdf(estimates: list[StateEstimate], trajectory: Trajectory) -> ErrorCdf:
    """Horizontal-error CDF of filter estimates against the trajectory."""
    if not estimates:
        raise ConfigurationError("no estimates")
    xy = np.array([est.mean[:2] for est in estimates])
    return empirical_cdf(horizontal_errors(xy, np.array([est.t for est in estimates]), trajectory))
