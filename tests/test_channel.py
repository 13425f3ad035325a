"""Propagation models: LoS geometry, tap lines, macro path gain."""

import math

import numpy as np
import pytest

from nrtransport import (
    SPEED_OF_LIGHT,
    default_rail_profile,
    macro_pathgain,
)
from nrtransport.channel import (
    MACRO_EXPONENT,
    TapProfile,
    batched_freq_response,
    los_geometry,
    tdl_taps,
)
from nrtransport.errors import ConfigurationError, GeometryError


def _link(site_position, position, velocity, profile, carrier_hz, gain=1.0):
    """Tap delays, Dopplers and amplitudes of one (1 sample, 1 site) link."""
    taps = tdl_taps(
        np.array([site_position], dtype=float), np.array([position], dtype=float),
        np.array([velocity], dtype=float), profile, carrier_hz, np.array([[gain]]),
    )
    return taps.delays[0, 0], taps.dopplers[0, 0], taps.amps[0, 0]


def _los_profile():
    """One LoS tap: a link's only Doppler is the direct path's."""
    zero = np.array([0.0])
    return TapProfile(delay_ns=zero, power_db=zero, aoa_deg=zero, los_flag=np.array([1]))


def _los_doppler(site_position, position, velocity, carrier_hz):
    _, dopplers, _ = _link(site_position, position, velocity, _los_profile(), carrier_hz)
    return float(dopplers[0])


def test_static_vehicle_range_and_zero_doppler():
    site = np.array([0.0, 40.0, 10.0])
    delta, dist = los_geometry(site[None], np.array([[0.0, 0.0, 1.5]]))
    assert delta.shape == (1, 1, 3) and dist.shape == (1, 1)
    assert np.array_equal(delta[0, 0], [0.0, -40.0, -8.5])
    assert abs(dist[0, 0] - math.hypot(40.0, 8.5)) < 1e-9
    assert _los_doppler(site, [0, 0, 1.5], [0, 0, 0], 28e9) == 0.0


def test_doppler_zero_at_closest_approach():
    # Velocity along x, site displaced purely in y/z: v is orthogonal to LoS.
    assert abs(_los_doppler([100.0, 40.0, 10.0], [100, 0, 1.5], [36.111, 0, 0], 28e9)) < 1e-9


def test_head_on_doppler_magnitude_and_sign():
    site = [1000.0, 0.0, 1.5]
    v = 500 / 3.6
    closing = _los_doppler(site, [0, 0, 1.5], [v, 0, 0], 2e9)
    receding = _los_doppler(site, [0, 0, 1.5], [-v, 0, 0], 2e9)
    expected = v * 2e9 / SPEED_OF_LIGHT
    assert abs(closing - expected) < 1e-6
    assert abs(expected - 926.2) < 1.0
    assert abs(receding + expected) < 1e-6


def test_coincident_site_and_vehicle_rejected():
    sites = np.array([[0.0, 0.0, 1.5], [200.0, 0.0, 1.5]])
    with pytest.raises(GeometryError):
        los_geometry(sites, np.array([[50.0, 0.0, 1.5], [200.0, 0.0, 1.5]]))


def test_tap_power_normalization():
    delays, _, amps = _link(
        [500.0, 10.0, 35.0], [0, 0, 1.5], [138.9, 0, 0], default_rail_profile(), 2e9, gain=0.37,
    )
    assert abs(np.sum(amps**2) - 0.37) < 1e-12
    assert np.all(np.diff(delays) >= 0)


def test_tap_doppler_never_exceeds_kinematic_limit():
    v = 138.9
    _, dopplers, _ = _link([500.0, 10.0, 35.0], [0, 0, 1.5], [v, 0, 0], default_rail_profile(), 2e9)
    assert np.max(np.abs(dopplers)) <= v * 2e9 / SPEED_OF_LIGHT + 1e-9


def test_profile_statistics_match_table():
    # Tap magnitudes follow the table exactly (only the phases are random),
    # so one link's K factor and delay spread are the table's.
    profile = default_rail_profile()
    delays, _, amps = _link([300.0, 10.0, 35.0], [0, 0, 1.5], [100.0, 0, 0], profile, 2e9)
    p = amps**2
    los = int(np.argmax(profile.los_flag))
    k_db = 10 * math.log10(p[los] / (np.sum(p) - p[los]))
    rel = (delays - delays[los]) * 1e9
    w = p / np.sum(p)
    mean = float(w @ rel)
    ds = math.sqrt(float(w @ (rel - mean) ** 2))
    assert abs(k_db - profile.k_factor_db) < 1e-9
    assert abs(ds - profile.rms_delay_spread_ns) < 1e-9


def test_tap_builder_rejects_vehicle_at_site():
    sites = np.array([[0.0, 10.0, 35.0], [700.0, 10.0, 35.0]])
    positions = np.array([[100.0, 0.0, 1.5], [700.0, 10.0, 35.0]])
    with pytest.raises(GeometryError):
        tdl_taps(sites, positions, np.zeros((2, 3)), default_rail_profile(), 2e9, np.ones((2, 2)))


def test_tap_profile_needs_exactly_one_los_tap():
    one = np.array([0.0])
    with pytest.raises(ConfigurationError, match="empty"):
        TapProfile(delay_ns=one[:0], power_db=one[:0], aoa_deg=one[:0], los_flag=one[:0])
    with pytest.raises(ConfigurationError, match="exactly one LoS"):
        TapProfile(delay_ns=one, power_db=one, aoa_deg=one, los_flag=np.array([0]))
    two = np.array([0.0, 30.0])
    with pytest.raises(ConfigurationError, match="exactly one LoS"):
        TapProfile(delay_ns=two, power_db=two, aoa_deg=two, los_flag=np.array([1, 1]))


def _trps(*values):
    """A (1 slot, TRP, 1 tap) array holding one value per single-tap TRP."""
    return np.array(values, dtype=float).reshape(1, -1, 1)


def _response(t, f, dopplers, delays, gains=(1.0, 1.0)):
    """H (symbols, subcarriers) of one slot whose TRPs carry one tap each."""
    h = batched_freq_response(
        _trps(*gains).astype(complex), _trps(*delays), _trps(*dopplers),
        np.asarray(t, dtype=float)[None, :], f,
    )
    return h[0]


def test_single_tap_flat_unit_response():
    t = np.linspace(0, 5e-4, 14)
    f = np.arange(600) * 30e3
    h = _response(t, f, [0.0], [0.0], gains=[1.0])
    assert np.max(np.abs(np.abs(h) - 1.0)) < 1e-12


def test_two_ray_flat_deep_fade_without_cdd():
    # Opposite Doppler shifts beat in time; when the phases oppose, every
    # subcarrier fades at once: |H| = 2 |cos(2 pi nu t)| for zero delays.
    nu = 926.0
    t_null = 1.0 / (4.0 * nu)  # cos(2 pi nu t) = 0
    f = np.arange(600) * 30e3
    h = _response([t_null], f, [nu, -nu], [0.0, 0.0])
    assert np.max(np.abs(h)) < 1e-3
    # Closed-form agreement at arbitrary times.
    t = np.linspace(0, 1e-3, 29)
    h = _response(t, f, [nu, -nu], [0.0, 0.0])
    expected = 2.0 * np.abs(np.cos(2 * math.pi * nu * t))
    assert np.max(np.abs(np.abs(h) - expected[:, None])) < 1e-9


def test_two_ray_cdd_moves_fades_to_frequency():
    # With CDD the null condition depends on subcarrier: |H|^2 = 2 + 2cos(
    # 2 pi f delta + theta(t)); at least half the subcarriers keep |H|^2 >= 2.
    nu = 926.0
    delta = 1e-6
    f = np.arange(600) * 30e3
    t = np.linspace(0, 1e-3, 14)
    h = _response(t, f, [nu, -nu], [0.0, delta])  # the CDD is the second TRP's added delay
    theta = 2 * math.pi * (2 * nu) * t  # relative Doppler rotation
    expected = 2.0 + 2.0 * np.cos(
        2 * math.pi * f[None, :] * delta + theta[:, None]
    )
    assert np.max(np.abs(np.abs(h) ** 2 - expected)) < 1e-9
    frac_strong = np.mean(np.abs(h) ** 2 >= 2.0, axis=1)
    assert np.all(frac_strong >= 0.5 - 1e-12)


def test_cdd_is_power_invariant():
    # On a frequency-selective two-ray whose delay separation spans an integer
    # number of cycles across the band, the cross term sums to zero, so the
    # total per-slot power is the same with and without the extra CDD ramp.
    f = np.arange(600) * 30e3  # 18 MHz band: 1 us spans exactly 18 cycles
    t = np.linspace(0, 5e-4, 13)
    plain = _response(t, f, [926.0, -926.0], [0.0, 1e-6])
    shifted = _response(t, f, [926.0, -926.0], [0.0, 1e-6 + 1e-6])
    p0 = np.sum(np.abs(plain) ** 2)
    p1 = np.sum(np.abs(shifted) ** 2)
    assert abs(p1 - p0) / p0 < 1e-9
    assert abs(p0 - 2.0 * len(t) * len(f)) / p0 < 1e-9


def test_precompensation_identity_for_los_channels():
    # Shifting each TRP by its own LoS Doppler freezes the response in time.
    doppler = np.array([926.0, -926.0])
    f = np.arange(600) * 30e3
    t = np.linspace(0, 5e-4, 13)
    h = _response(t, f, doppler - doppler, [0.0, 0.0])
    assert np.max(np.abs(h - h[0, :])) < 1e-9


def test_response_linear_in_gains():
    f = np.arange(120) * 30e3
    t = np.linspace(0, 5e-4, 7)
    base = _response(t, f, [500.0, -500.0], [0.0, 0.0])
    scaled = _response(t, f, [500.0, -500.0], [0.0, 0.0], gains=(3.0, 3.0))
    assert np.max(np.abs(np.abs(scaled) ** 2 - 9.0 * np.abs(base) ** 2)) < 1e-9


def test_macro_pathgain_slope_and_determinism():
    site = np.array([500.0, 0.0, 35.0])
    g100 = macro_pathgain(site, 600.0, 0.0)
    g1000 = macro_pathgain(site, -500.0, 0.0)
    assert abs((g100 - g1000) - 10 * MACRO_EXPONENT) < 1e-9
    assert g100 == macro_pathgain(site, 400.0, 0.0)  # symmetric about the site
    assert macro_pathgain(site, 600.0, 4.0) == g100 + 4.0
    # Elementwise over any shape, each user with its own shadowing.
    x = np.array([[600.0, -500.0], [400.0, 1500.0]])
    shadow = np.array([[0.0, 0.0], [4.0, -2.0]])
    want = [[g100, g1000], [g100 + 4.0, g1000 - 2.0]]
    np.testing.assert_array_equal(macro_pathgain(site, x, shadow), want)


def test_macro_pathgain_at_the_site_is_the_gain_at_1_m():
    site = np.array([500.0, 0.0, 35.0])
    at_1m = macro_pathgain(site, 501.0, 0.0)
    assert macro_pathgain(site, 500.0, 0.0) == at_1m
    assert macro_pathgain(site, 500.4, 0.0) == at_1m
    assert math.isfinite(at_1m)
