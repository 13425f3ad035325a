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


def batched_freq_response(
    gains: np.ndarray,
    delays: np.ndarray,
    tap_delays: np.ndarray,
    dopplers: np.ndarray,
    symbol_times: np.ndarray,
    subcarrier_freqs: np.ndarray,
) -> np.ndarray:
    """Superpose per-TRP tapped-delay-line channels on OFDM grids, many slots at once.

    ``gains`` (complex) and ``dopplers`` have shape (slots, trp, taps), dopplers
    including any precompensation shift. ``delays`` (slots, trp) are the TRPs'
    base delays, including any cyclic delay; tap k arrives ``tap_delays[k]``
    later on every TRP, so the taps' frequency terms are one (taps x
    subcarriers) table, applied to each TRP's time terms in one matrix product.
    ``symbol_times`` has shape (slots, symbols). Returns H (slots, symbols, subcarriers):

    H_s(t, f) = sum_trp exp(-j 2 pi f delay) sum_tap g exp(j 2 pi doppler t) exp(-j 2 pi f tap_delay).
    """
    t = np.asarray(symbol_times, dtype=float)
    f = np.asarray(subcarrier_freqs, dtype=float)
    tap_freq = np.exp(-2j * math.pi * np.multiply.outer(tap_delays, f))
    time_phase = np.exp(2j * math.pi * (t[:, None, :, None] * dopplers[:, :, None])) * gains[:, :, None]
    base = np.exp(-2j * math.pi * (delays[:, :, None] * f))
    # TRP by TRP: one flat product over every TRP would hold a TRP axis more,
    # and OpenBLAS would run it on a second thread for no shorter wall time.
    h = (time_phase[:, 0] @ tap_freq) * base[:, 0, None]
    for k in range(1, gains.shape[1]):
        h += (time_phase[:, k] @ tap_freq) * base[:, k, None]
    return h


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
