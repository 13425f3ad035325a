"""Deployments and vehicle trajectories for the highway and rail scenarios.

All builders are pure functions returning immutable objects; coordinates use a
right-handed frame with x along the road/track, y lateral, z up (meters).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigurationError

KMH = 1.0 / 3.6  # km/h -> m/s


class ScenarioKind(str, Enum):
    HIGHWAY_POSITIONING = "highway_positioning"
    RAIL_HST = "rail_hst"
    HIGHWAY_MACRO = "highway_macro"


@dataclass(frozen=True)
class Site:
    """One fixed radio site."""

    id: int
    position: np.ndarray  # 3-vector, m
    boresight_azimuth: float = 0.0  # rad, 0 = +x
    downtilt: float = 0.0  # rad, in [0, pi/2)

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=float)
        object.__setattr__(self, "position", pos)
        if pos.shape != (3,) or not np.all(np.isfinite(pos)):
            raise ConfigurationError("site position must be a finite 3-vector")
        if pos[2] < 0:
            raise ConfigurationError("site height must be non-negative")
        if not 0 <= self.downtilt < math.pi / 2:
            raise ConfigurationError("downtilt must lie in [0, pi/2)")


@dataclass(frozen=True)
class Deployment:
    sites: tuple[Site, ...]
    road_axis: np.ndarray  # unit 3-vector
    scenario_kind: ScenarioKind

    def __post_init__(self):
        axis = np.asarray(self.road_axis, dtype=float)
        axis = axis / np.linalg.norm(axis)
        object.__setattr__(self, "road_axis", axis)
        object.__setattr__(self, "sites", tuple(self.sites))
        coords = self.along_road_coordinates()
        if np.any(np.diff(coords) <= 0) and len(coords) > 1:
            raise ConfigurationError("sites must be sorted by along-road coordinate")
        if len(coords) > 2:
            spacings = np.diff(coords)
            if np.max(np.abs(spacings - spacings[0])) > 1e-9:
                raise ConfigurationError("inter-site spacing must be uniform")

    def along_road_coordinates(self) -> np.ndarray:
        return np.array([float(s.position @ self.road_axis) for s in self.sites])

    @property
    def isd(self) -> float:
        coords = self.along_road_coordinates()
        if len(coords) < 2:
            raise ConfigurationError("deployment has fewer than two sites")
        return float(coords[1] - coords[0])

    def site_positions(self) -> np.ndarray:
        return np.stack([s.position for s in self.sites])


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


def build_linear_deployment(
    isd: float,
    lateral_offset: float,
    site_height: float,
    span: float,
    kind: ScenarioKind | str,
    *,
    boresight_azimuth: float = 0.0,
    downtilt: float = 0.0,
) -> Deployment:
    """Sites at along-road coordinates 0, isd, 2*isd, ... <= span.

    All sites sit at (x, lateral_offset, site_height).
    """
    if isd <= 0:
        raise ConfigurationError("isd must be positive")
    if span < isd:
        raise ConfigurationError("span must be at least one inter-site distance")
    kind = ScenarioKind(kind)
    n_sites = int(math.floor(span / isd + 1e-9)) + 1
    sites = tuple(
        Site(
            id=i,
            position=np.array([i * isd, lateral_offset, site_height]),
            boresight_azimuth=boresight_azimuth,
            downtilt=downtilt,
        )
        for i in range(n_sites)
    )
    return Deployment(sites=sites, road_axis=np.array([1.0, 0.0, 0.0]), scenario_kind=kind)


RAIL_SITE_HEIGHT_M = 35.0
RAIL_DOWNTILT_RAD = math.radians(10.0)
RAIL_N_SITES = 4


def build_rail_deployment(isd: float, offset: float) -> Deployment:
    """Four track-side sites at 35 m height with 10 degrees downtilt.

    Panels face along the track (boresight +x); the antenna gain model in the
    rail link treats them as fore/aft panel pairs.
    """
    if isd <= 0:
        raise ConfigurationError("isd must be positive")
    sites = tuple(
        Site(
            id=i,
            position=np.array([i * isd, offset, RAIL_SITE_HEIGHT_M]),
            boresight_azimuth=0.0,
            downtilt=RAIL_DOWNTILT_RAD,
        )
        for i in range(RAIL_N_SITES)
    )
    return Deployment(sites=sites, road_axis=np.array([1.0, 0.0, 0.0]), scenario_kind=ScenarioKind.RAIL_HST)


def snake_trajectory(
    speed_kmh: float,
    span: float,
    amplitude: float,
    period: float,
    dt: float,
    *,
    lateral_offset: float = 0.0,
    height: float = 1.5,
) -> Trajectory:
    """Sinusoidal lane-change trajectory with exact analytic derivatives.

    x(t) = v t, y(x) = offset + amplitude * sin(2 pi x / period).
    """
    if speed_kmh <= 0 or dt <= 0:
        raise ConfigurationError("speed and dt must be positive")
    if period <= 0:
        raise ConfigurationError("snake period must be positive")
    if not span > 0:
        raise ConfigurationError(f"span must be positive, got {span}")
    v = speed_kmh * KMH
    n = int(round(span / (v * dt))) + 1
    t = np.arange(n) * dt
    x = v * t
    k = 2.0 * math.pi / period
    y = lateral_offset + amplitude * np.sin(k * x)
    vy = amplitude * k * v * np.cos(k * x)
    ay = -amplitude * (k * v) ** 2 * np.sin(k * x)
    zeros = np.zeros(n)
    position = np.column_stack([x, y, np.full(n, height)])
    velocity = np.column_stack([np.full(n, v), vy, zeros])
    acceleration = np.column_stack([zeros, ay, zeros])
    return Trajectory(t=t, position=position, velocity=velocity, acceleration=acceleration, sample_period=dt)


def linear_trajectory(
    speed_kmh: float,
    span: float,
    dt: float,
    *,
    lateral_offset: float = 0.0,
    height: float = 1.5,
) -> Trajectory:
    """Straight constant-speed trajectory along +x."""
    return snake_trajectory(
        speed_kmh, span, amplitude=0.0, period=1.0, dt=dt,
        lateral_offset=lateral_offset, height=height,
    )
