"""Propagation models: LoS mmWave geometry, the Doppler-shifted
tapped-delay-line channels of the rail link (one builder, ``tdl_taps``, over
slots x sites x taps), and macro path gain with lognormal shadowing for the
highway scheduler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, GeometryError

SPEED_OF_LIGHT = 299_792_458.0


# ---------------------------------------------------------------------------
# Line-of-sight geometry


def los_geometry(site_positions: np.ndarray, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Direct-path geometry of every (sample, site) link.

    ``site_positions`` has shape (sites, 3) and ``positions`` (samples, 3).
    Returns the vehicle-minus-site vectors, shape (samples, sites, 3), and
    the ranges, shape (samples, sites). Raises ``GeometryError`` when a
    vehicle position coincides with a site.
    """
    delta = positions[:, None, :] - site_positions[None, :, :]
    dist = np.linalg.norm(delta, axis=-1)
    if np.any(dist == 0.0):
        raise GeometryError("vehicle coincides with site")
    return delta, dist


def azimuth(v: np.ndarray) -> np.ndarray:
    """Azimuth of each vector along the last axis, rad."""
    return np.arctan2(v[..., 1], v[..., 0])


def elevation(v: np.ndarray) -> np.ndarray:
    """Elevation above the horizontal plane of each vector along the last axis, rad."""
    return np.arctan2(v[..., 2], np.hypot(v[..., 0], v[..., 1]))


# ---------------------------------------------------------------------------
# Tapped-delay-line channel


@dataclass(frozen=True)
class TapProfile:
    """Relative tap table: delays in ns, powers in dB, angle offsets in degrees.

    Angle offsets are relative to the LoS direction; exactly one row should be
    flagged as the LoS tap.
    """

    delay_ns: np.ndarray
    power_db: np.ndarray
    aoa_deg: np.ndarray
    los_flag: np.ndarray

    def __post_init__(self):
        if len(self.delay_ns) == 0:
            raise ConfigurationError("tap profile is empty")
        if int(np.sum(self.los_flag)) != 1:
            raise ConfigurationError("tap profile must flag exactly one LoS tap")

    def __len__(self) -> int:
        return len(self.delay_ns)

    @property
    def k_factor_db(self) -> float:
        p = 10.0 ** (np.asarray(self.power_db) / 10.0)
        los = self.los_flag.astype(bool)
        return 10.0 * math.log10(np.sum(p[los]) / np.sum(p[~los]))

    @property
    def rms_delay_spread_ns(self) -> float:
        p = 10.0 ** (np.asarray(self.power_db) / 10.0)
        p = p / np.sum(p)
        mean = float(p @ self.delay_ns)
        return math.sqrt(float(p @ (self.delay_ns - mean) ** 2))


def default_rail_profile() -> TapProfile:
    """LoS tap plus three late reflections (K factor ~13 dB)."""
    return TapProfile(
        delay_ns=np.array([0.0, 30.0, 70.0, 150.0]),
        power_db=np.array([0.0, -15.8, -18.0, -21.0]),
        aoa_deg=np.array([0.0, 110.0, 75.0, 150.0]),
        los_flag=np.array([1, 0, 0, 0]),
    )


@dataclass(frozen=True)
class TapArrays:
    """Tapped-delay-line parameters of every (sample, site) link.

    A tap's delay is its link's LoS delay plus its profile offset
    (``TapProfile.delay_ns``, the same for every link), so only the LoS delays
    are kept, shape (samples, sites). The other arrays have shape (samples,
    sites, taps), taps in profile order. Only the LoS phase is set; non-LoS
    phases are left at 0 for the caller to draw.
    """

    los_delays: np.ndarray  # s
    dopplers: np.ndarray  # Hz
    amps: np.ndarray  # linear amplitude; squares sum to the link gain
    phases: np.ndarray  # rad


def tdl_taps(
    site_positions: np.ndarray,
    positions: np.ndarray,
    velocities: np.ndarray,
    profile: TapProfile,
    carrier_hz: float,
    link_gains: np.ndarray,
) -> TapArrays:
    """LoS delays and tap Dopplers, amplitudes and LoS phases of every link.

    ``site_positions`` has shape (sites, 3), ``positions`` and ``velocities``
    (samples, 3), and ``link_gains`` (samples, sites) in linear power. Tap
    magnitudes follow the profile exactly, so the tap powers of a link sum to
    its gain. Each tap arrives from the LoS azimuth rotated by its profile
    offset (horizontal propagation for late reflections), and its Doppler is
    positive when the vehicle moves toward that incoming wavefront.
    """
    p_lin = 10.0 ** (profile.power_db / 10.0)
    p_lin = p_lin / np.sum(p_lin)
    los_idx = int(np.argmax(profile.los_flag))
    shape = (len(positions), len(site_positions), len(profile))
    out = TapArrays(
        los_delays=np.empty(shape[:2]), dopplers=np.empty(shape), amps=np.empty(shape), phases=np.zeros(shape),
    )
    for k, site in enumerate(site_positions):
        # One site at a time: the vectors of every site at once would add to
        # the builder's peak memory, which its output arrays already set.
        delta, dist = los_geometry(site[None], positions)
        u_to_site = -delta[:, 0] / dist
        tau_los = dist[:, 0] / SPEED_OF_LIGHT
        los_dop = np.einsum("ij,ij->i", velocities, u_to_site) * carrier_hz / SPEED_OF_LIGHT
        aoa = azimuth(u_to_site)[:, None] + np.radians(profile.aoa_deg)
        arrival = np.empty(aoa.shape + (2,))  # filled in place: no stacked temporaries
        arrival[..., 0] = np.cos(aoa)
        arrival[..., 1] = np.sin(aoa)
        dop = np.einsum("stj,sj->st", arrival, velocities[:, :2]) * carrier_hz / SPEED_OF_LIGHT
        dop[:, los_idx] = los_dop
        out.los_delays[:, k] = tau_los
        out.dopplers[:, k, :] = dop
        out.amps[:, k, :] = np.sqrt(p_lin[None, :] * link_gains[:, k][:, None])
        out.phases[:, k, los_idx] = -2.0 * math.pi * carrier_hz * tau_los % (2.0 * math.pi)
    return out


# ---------------------------------------------------------------------------
# Combined OFDM frequency response


def _grid_phases(coef, rate: np.ndarray, grid, name: str, origin=0.0) -> np.ndarray:
    """coef * exp(j 2 pi rate (origin + x)) at every x of a uniform grid, on a new
    axis 1: the first point's term times powers of one step's, by doubling."""
    grid = np.asarray(grid, dtype=float)
    step = (grid[-1] - grid[0]) / (len(grid) - 1) if len(grid) > 1 else 0.0
    if not np.all(np.abs(np.diff(grid) - step) <= 1e-9 * abs(step)):
        raise ConfigurationError(f"{name} must be a uniform grid")
    out = np.empty((len(rate), len(grid)) + rate.shape[1:], dtype=complex)
    out[:, 0] = coef * np.exp(2j * math.pi * rate * (origin + grid[0]))
    ratio, m = np.exp(2j * math.pi * rate * step), 1
    while m < len(grid):  # out[:, m:2m] = out[:, :m] * ratio**m
        out[:, m : 2 * m] = out[:, : min(m, len(grid) - m)] * ratio[:, None]
        ratio, m = ratio * ratio, 2 * m
    return out


def batched_freq_response(
    gains: np.ndarray,
    delays: np.ndarray,
    tap_delays: np.ndarray,
    dopplers: np.ndarray,
    slot_times: np.ndarray,
    symbol_offsets: np.ndarray,
    subcarrier_freqs: np.ndarray,
) -> np.ndarray:
    """Superpose per-TRP tapped-delay-line channels on OFDM grids, many slots at once.

    ``gains`` (complex) and ``dopplers`` have shape (slots, trp, taps), dopplers
    including any precompensation shift. ``delays`` (slots, trp) are the TRPs'
    base delays, including any cyclic delay; tap k arrives ``tap_delays[k]``
    later on every TRP. Symbol i of slot s lies at ``slot_times[s] +
    symbol_offsets[i]``. Returns H (slots, symbols, subcarriers):

    H_s(t, f) = sum_trp exp(-j 2 pi f delay) sum_tap g exp(j 2 pi doppler t) exp(-j 2 pi f tap_delay).

    The symbol offsets and subcarrier frequencies must be uniform grids
    (``ConfigurationError`` otherwise): each phase term is evaluated at the first
    point and powered up by one step, the trigonometric recurrence (Press et al.,
    Numerical Recipes, 3rd ed., 5.4). Against the direct sum the error is 2e-14
    of max |H| at slot times to 1 ms and 5e-12 at 15 s, where the direct sum's
    own phase arguments are rounded at that level. H is one product per slot of
    the (symbols, trp x tap) time terms by the (trp x tap, subcarriers) delay terms.
    """
    n_slots, n_trp, n_taps = gains.shape
    nu = dopplers.reshape(n_slots, n_trp * n_taps)
    time_phase = _grid_phases(gains.reshape(nu.shape), nu, symbol_offsets, "symbol offsets", slot_times[:, None])
    base = _grid_phases(1.0, -delays, subcarrier_freqs, "subcarrier frequencies")
    tap_freq = _grid_phases(1.0, -tap_delays, subcarrier_freqs, "subcarrier frequencies")
    table = base.transpose(0, 2, 1)[:, :, None, :] * tap_freq
    # Per slot: one flat product would run on a second OpenBLAS thread for no shorter wall time.
    return time_phase @ table.reshape(n_slots, n_trp * n_taps, -1)


# ---------------------------------------------------------------------------
# Macro path gain: log-distance path loss (128.1 + 37.6 log10 d_km style)
# with lognormal shadowing

MACRO_INTERCEPT_DB = 128.1
MACRO_EXPONENT = 3.76  # path loss slope is 10*exponent dB per decade
SHADOW_SIGMA_DB = 8.0


def pathloss_db(distance_m) -> np.ndarray:
    d_km = np.asarray(distance_m, dtype=float) / 1000.0
    return MACRO_INTERCEPT_DB + 10.0 * MACRO_EXPONENT * np.log10(d_km)


def macro_pathgain(site: np.ndarray, x, shadow_db) -> np.ndarray:
    """Path gain in dB (negative) from the site at position ``site`` (a
    3-vector, m) to road positions ``x`` (m, any shape), plus the per-user
    lognormal shadowing ``shadow_db``.

    Vehicles drive on the road axis y = 0; the horizontal offset to the site
    is floored at 1 m so a vehicle passing under the mast keeps a finite gain.
    """
    d2d = np.maximum(np.abs(x - site[0]), 1.0)
    return -pathloss_db(np.hypot(d2d, site[1])) + shadow_db


# ---------------------------------------------------------------------------
# Sector antenna pattern (used by the rail link gain model): a parabolic
# 3GPP-style element pattern with a side/back-lobe floor

SECTOR_PEAK_GAIN_DBI = 20.5
SECTOR_AZ_3DB_DEG = 65.0
SECTOR_EL_3DB_DEG = 15.0
SECTOR_BACKOFF_DB = 25.0


def sector_gain_db(az_off_rad, el_off_rad) -> np.ndarray:
    """Gain in dBi at azimuth and elevation offsets from boresight.

    The site carries fore/aft panel pairs along the boresight axis, as is
    common for track-side deployments: the azimuth offset is folded into
    [0, 90 deg].
    """
    az = np.abs(np.asarray(az_off_rad, dtype=float))
    az = np.minimum(az, math.pi - az)
    el = np.asarray(el_off_rad, dtype=float)
    a_az = np.minimum(12.0 * (np.degrees(az) / SECTOR_AZ_3DB_DEG) ** 2, SECTOR_BACKOFF_DB)
    a_el = np.minimum(12.0 * (np.degrees(el) / SECTOR_EL_3DB_DEG) ** 2, SECTOR_BACKOFF_DB)
    return SECTOR_PEAK_GAIN_DBI - np.minimum(a_az + a_el, SECTOR_BACKOFF_DB)
