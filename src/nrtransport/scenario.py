"""Deployments and vehicle trajectories for the highway and rail scenarios.

All builders are pure functions returning immutable objects; coordinates use a
right-handed frame with x along the road/track, y lateral, z up (meters).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

KMH = 1.0 / 3.6  # km/h -> m/s
UE_HEIGHT_M = 1.5  # vehicle antenna height
# Bounds on the sizes a config can ask for, checked before anything is
# allocated; the default and golden studies use at most 51 sites and 30,241
# samples.
MAX_SITES = 1_000
MAX_TRAJECTORY_SAMPLES = 1_000_000
# Bound on every site coordinate: ranges are computed by squaring, which
# overflows near 1e154 m.
MAX_COORDINATE_M = 1e9


@dataclass(frozen=True)
class Deployment:
    """Fixed sites along the road, which runs along +x.

    Row i of ``positions`` (shape (sites, 3), m) is site i; every panel faces
    along +x with the one ``downtilt`` (rad, in [0, pi/2)).
    """

    positions: np.ndarray
    downtilt: float = 0.0

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        object.__setattr__(self, "positions", pos)
        if pos.ndim != 2 or pos.shape[1] != 3 or len(pos) == 0:
            raise ConfigurationError(f"site positions must have shape (n >= 1, 3), got {pos.shape}")
        if not np.all(np.abs(pos) <= MAX_COORDINATE_M):
            raise ConfigurationError(f"site coordinates must be finite and within {MAX_COORDINATE_M:g} m")
        if np.any(pos[:, 2] < 0):
            raise ConfigurationError("site height must be non-negative")
        if not 0 <= self.downtilt < math.pi / 2:
            raise ConfigurationError("downtilt must lie in [0, pi/2)")
        spacings = np.diff(pos[:, 0])
        if np.any(spacings <= 0):
            raise ConfigurationError("sites must be sorted by along-road coordinate")
        if len(spacings) > 1 and np.max(np.abs(spacings - spacings[0])) > 1e-9:
            raise ConfigurationError("inter-site spacing must be uniform")

    @property
    def isd(self) -> float:
        if len(self.positions) < 2:
            raise ConfigurationError("deployment has fewer than two sites")
        return float(self.positions[1, 0] - self.positions[0, 0])


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled vehicle poses; arrays are shaped (n, 3)."""

    t: np.ndarray
    position: np.ndarray
    velocity: np.ndarray
    acceleration: np.ndarray
    sample_period: float

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        if t.ndim != 1 or len(t) < 2:
            raise ConfigurationError("trajectory needs at least two samples")
        dt = np.diff(t)
        if np.any(dt <= 0) or np.max(np.abs(dt - self.sample_period)) > 1e-9:
            raise ConfigurationError("timestamps must be strictly increasing and uniform")
        for arr in (self.position, self.velocity, self.acceleration):
            if np.asarray(arr).shape != (len(t), 3) or not np.all(np.isfinite(arr)):
                raise ConfigurationError("pose arrays must be finite with shape (n, 3)")

    def __len__(self) -> int:
        return len(self.t)

    def index_at(self, t) -> np.ndarray:
        """Index of the sample at each time in ``t``, which must be sample times."""
        idx = np.rint(np.asarray(t, dtype=float) / self.sample_period).astype(np.intp)
        inside = (idx >= 0) & (idx < len(self.t))
        if not np.all(inside) or np.any(np.abs(self.t[idx] - t) > 1e-9):
            raise ConfigurationError("time has no matching trajectory sample")
        return idx


def build_linear_deployment(isd: float, lateral_offset: float, site_height: float, span: float) -> Deployment:
    """Sites at along-road coordinates 0, isd, 2*isd, ... <= span.

    All sites sit at (x, lateral_offset, site_height).
    """
    if isd <= 0:
        raise ConfigurationError("isd must be positive")
    if span < isd:
        raise ConfigurationError("span must be at least one inter-site distance")
    ratio = span / isd + 1e-9
    if not ratio < MAX_SITES:
        raise ConfigurationError(f"span {span:g} m at isd {isd:g} m needs more than {MAX_SITES:,} sites")
    n = int(math.floor(ratio)) + 1
    return Deployment(np.column_stack([np.arange(n) * isd, np.full(n, lateral_offset), np.full(n, site_height)]))


RAIL_SITE_HEIGHT_M = 35.0
RAIL_DOWNTILT_RAD = math.radians(10.0)
RAIL_N_SITES = 4


def build_rail_deployment(isd: float, offset: float) -> Deployment:
    """Four track-side sites at 35 m height with 10 degrees downtilt.

    Panels face along the track (boresight +x); the antenna gain model in the
    rail link treats them as fore/aft panel pairs.
    """
    return Deployment(
        build_linear_deployment(isd, offset, RAIL_SITE_HEIGHT_M, (RAIL_N_SITES - 1) * isd).positions,
        RAIL_DOWNTILT_RAD,
    )


def snake_trajectory(speed_kmh: float, span: float, amplitude: float, period: float, dt: float) -> Trajectory:
    """Sinusoidal lane-change trajectory with exact analytic derivatives.

    x(t) = v t, y(x) = amplitude * sin(2 pi x / period), at height UE_HEIGHT_M.
    """
    if speed_kmh <= 0 or dt <= 0:
        raise ConfigurationError("speed and dt must be positive")
    if period <= 0:
        raise ConfigurationError("snake period must be positive")
    if not span > 0:
        raise ConfigurationError(f"span must be positive, got {span}")
    v = speed_kmh * KMH
    steps = span / (v * dt)
    if not steps + 1.0 < MAX_TRAJECTORY_SAMPLES:
        raise ConfigurationError(
            f"span {span:g} m at {speed_kmh:g} km/h and {dt:g} s per sample needs more than "
            f"{MAX_TRAJECTORY_SAMPLES:,} samples"
        )
    n = int(round(steps)) + 1
    t = np.arange(n) * dt
    x = v * t
    k = 2.0 * math.pi / period
    y = 0.0 + amplitude * np.sin(k * x)  # 0.0 + turns -0.0 into 0.0
    vy = amplitude * k * v * np.cos(k * x)
    ay = -amplitude * (k * v) ** 2 * np.sin(k * x)
    zeros = np.zeros(n)
    position = np.column_stack([x, y, np.full(n, UE_HEIGHT_M)])
    velocity = np.column_stack([np.full(n, v), vy, zeros])
    acceleration = np.column_stack([zeros, ay, zeros])
    return Trajectory(t=t, position=position, velocity=velocity, acceleration=acceleration, sample_period=dt)


def linear_trajectory(speed_kmh: float, span: float, dt: float) -> Trajectory:
    """Straight constant-speed trajectory along +x."""
    return snake_trajectory(speed_kmh, span, amplitude=0.0, period=1.0, dt=dt)
