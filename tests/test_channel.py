"""Propagation models: LoS geometry, tap lines, macro path gain."""

import math

import numpy as np
import pytest

from nrtransport import (
    HstLinkParams,
    MacroParams,
    Mcs,
    Numerology,
    SPEED_OF_LIGHT,
    Scheme,
    Site,
    build_rail_deployment,
    combined_freq_response,
    default_rail_profile,
    hst,
    hst_taps,
    linear_trajectory,
    macro_pathgain,
)
from nrtransport.channel import (
    ChannelTaps,
    TapProfile,
    los_geometry,
    tdl_taps,
)
from nrtransport.errors import ConfigurationError, GeometryError
from nrtransport.rng import substream
from nrtransport.scenario import PoseSample


def _pose(position, velocity):
    return PoseSample(
        t=0.0,
        position=np.asarray(position, dtype=float),
        velocity=np.asarray(velocity, dtype=float),
        acceleration=np.zeros(3),
    )


def _los_profile():
    """One LoS tap: a link's only Doppler is the direct path's."""
    zero = np.array([0.0])
    return TapProfile(delay_ns=zero, power_db=zero, aod_deg=zero, aoa_deg=zero, los_flag=np.array([1]))


def _los_doppler(site_position, position, velocity, carrier_hz):
    taps = tdl_taps(
        np.array([site_position], dtype=float), np.array([position], dtype=float),
        np.array([velocity], dtype=float), _los_profile(), carrier_hz, np.ones((1, 1)),
    )
    return float(taps.dopplers[0, 0, 0])


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
    site = Site(id=0, position=np.array([500.0, 10.0, 35.0]))
    taps = hst_taps(
        site, _pose([0, 0, 1.5], [138.9, 0, 0]), default_rail_profile(),
        carrier_hz=2e9, link_power=0.37, rng=substream(1, "t"),
    )
    assert abs(np.sum(np.abs(taps.gains) ** 2) - 0.37) < 1e-12
    assert np.all(np.diff(taps.delays) >= 0)


def test_tap_doppler_never_exceeds_kinematic_limit():
    site = Site(id=0, position=np.array([500.0, 10.0, 35.0]))
    v = 138.9
    taps = hst_taps(
        site, _pose([0, 0, 1.5], [v, 0, 0]), default_rail_profile(),
        carrier_hz=2e9, rng=substream(1, "t"),
    )
    assert np.max(np.abs(taps.dopplers)) <= v * 2e9 / SPEED_OF_LIGHT + 1e-9


def test_los_only_profile_single_tap_doppler():
    site = Site(id=0, position=np.array([1000.0, 0.0, 1.5]))
    v = 500 / 3.6
    taps = hst_taps(site, _pose([0, 0, 1.5], [v, 0, 0]), _los_profile(), carrier_hz=2e9)
    assert len(taps.delays) == 1
    assert abs(taps.dopplers[0] - v * 2e9 / SPEED_OF_LIGHT) < 1e-6


def test_profile_statistics_match_table():
    # Tap magnitudes are deterministic, so realized K factor and delay spread
    # match the table closely over repeated draws (only phases are random).
    profile = default_rail_profile()
    site = Site(id=0, position=np.array([300.0, 10.0, 35.0]))
    pose = _pose([0, 0, 1.5], [100.0, 0, 0])
    k_lin, ds = [], []
    rng = substream(9, "profile")
    for _ in range(1000):
        taps = hst_taps(site, pose, profile, carrier_hz=2e9, rng=rng)
        p = np.abs(taps.gains) ** 2
        los = int(np.argmin(taps.delays))
        k_lin.append(p[los] / (np.sum(p) - p[los]))
        rel = (taps.delays - taps.delays[los]) * 1e9
        w = p / np.sum(p)
        mean = float(w @ rel)
        ds.append(math.sqrt(float(w @ (rel - mean) ** 2)))
    k_db = 10 * math.log10(np.mean(k_lin))
    assert abs(k_db - profile.k_factor_db) / abs(profile.k_factor_db) < 0.05
    assert abs(np.mean(ds) - profile.rms_delay_spread_ns) / profile.rms_delay_spread_ns < 0.05


def test_hst_taps_is_one_link_of_the_sweep_builder(monkeypatch):
    # Capture the tap arrays the rail sweep builds; it writes its non-LoS
    # phases into them in place.
    built = []

    def capture(*args):
        built.append(tdl_taps(*args))
        return built[-1]

    monkeypatch.setattr(hst, "tdl_taps", capture)
    deployment = build_rail_deployment(700.0, 10.0)
    numerology = Numerology()
    trajectory = linear_trajectory(500.0, 40.0, numerology.slot_duration)
    params = HstLinkParams()
    hst.run_hst_sweep(deployment, trajectory, Scheme.SFN, numerology, Mcs(), 5, params)
    (sweep,) = built
    gains_lin = hst._link_gains_lin(deployment, trajectory.position, params)
    nlos = ~params.profile.los_flag.astype(bool)
    for s in (0, 57, len(trajectory) - 1):
        for k in (0, 1, 3):
            taps = hst_taps(
                deployment.sites[k], trajectory.sample(s), params.profile,
                carrier_hz=params.carrier_hz, link_power=gains_lin[s, k],
                nlos_phases=sweep.phases[s, k, nlos],
            )
            assert np.array_equal(taps.delays, sweep.delays[s, k])
            assert np.array_equal(taps.dopplers, sweep.dopplers[s, k])
            assert np.array_equal(taps.aoa, sweep.aoa[s, k])
            want = sweep.amps[s, k] * np.exp(1j * sweep.phases[s, k])
            assert np.max(np.abs(taps.gains - want)) < 1e-12


def test_tap_builder_rejects_vehicle_at_site():
    sites = np.array([[0.0, 10.0, 35.0], [700.0, 10.0, 35.0]])
    positions = np.array([[100.0, 0.0, 1.5], [700.0, 10.0, 35.0]])
    with pytest.raises(GeometryError):
        tdl_taps(sites, positions, np.zeros((2, 3)), default_rail_profile(), 2e9, np.ones((2, 2)))
    with pytest.raises(GeometryError):
        hst_taps(
            Site(id=1, position=sites[1]), _pose(sites[1], [1.0, 0, 0]), default_rail_profile(),
            carrier_hz=2e9, rng=substream(1, "t"),
        )


def test_tap_profile_needs_exactly_one_los_tap():
    one = np.array([0.0])
    with pytest.raises(ConfigurationError, match="empty"):
        TapProfile(delay_ns=one[:0], power_db=one[:0], aod_deg=one[:0], aoa_deg=one[:0], los_flag=one[:0])
    with pytest.raises(ConfigurationError, match="exactly one LoS"):
        TapProfile(delay_ns=one, power_db=one, aod_deg=one, aoa_deg=one, los_flag=np.array([0]))
    two = np.array([0.0, 30.0])
    with pytest.raises(ConfigurationError, match="exactly one LoS"):
        TapProfile(delay_ns=two, power_db=two, aod_deg=two, aoa_deg=two, los_flag=np.array([1, 1]))


def _two_ray(doppler_hz, cdd_s=0.0):
    taps = [
        ChannelTaps(
            delays=np.array([0.0]), dopplers=np.array([+doppler_hz]),
            gains=np.array([1.0 + 0j]), aod=np.zeros(1), aoa=np.zeros(1),
        ),
        ChannelTaps(
            delays=np.array([0.0]), dopplers=np.array([-doppler_hz]),
            gains=np.array([1.0 + 0j]), aod=np.zeros(1), aoa=np.zeros(1),
        ),
    ]
    return taps, [0.0, cdd_s]


def test_single_tap_flat_unit_response():
    taps = ChannelTaps(
        delays=np.array([0.0]), dopplers=np.array([0.0]),
        gains=np.array([1.0 + 0j]), aod=np.zeros(1), aoa=np.zeros(1),
    )
    t = np.linspace(0, 5e-4, 14)
    f = np.arange(600) * 30e3
    resp = combined_freq_response([taps], [0.0], [0.0], t, f)
    assert np.max(np.abs(np.abs(resp.h) - 1.0)) < 1e-12


def test_two_ray_flat_deep_fade_without_cdd():
    # Opposite Doppler shifts beat in time; when the phases oppose, every
    # subcarrier fades at once: |H| = 2 |cos(2 pi nu t)| for zero delays.
    nu = 926.0
    taps, cdd = _two_ray(nu)
    t_null = 1.0 / (4.0 * nu)  # cos(2 pi nu t) = 0
    f = np.arange(600) * 30e3
    resp = combined_freq_response(taps, cdd, [0.0, 0.0], np.array([t_null]), f)
    assert np.max(np.abs(resp.h)) < 1e-3
    # Closed-form agreement at arbitrary times.
    t = np.linspace(0, 1e-3, 29)
    resp = combined_freq_response(taps, cdd, [0.0, 0.0], t, f)
    expected = 2.0 * np.abs(np.cos(2 * math.pi * nu * t))
    assert np.max(np.abs(np.abs(resp.h) - expected[:, None])) < 1e-9


def test_two_ray_cdd_moves_fades_to_frequency():
    # With CDD the null condition depends on subcarrier: |H|^2 = 2 + 2cos(
    # 2 pi f delta + theta(t)); at least half the subcarriers keep |H|^2 >= 2.
    nu = 926.0
    delta = 1e-6
    taps, cdd = _two_ray(nu, delta)
    f = np.arange(600) * 30e3
    t = np.linspace(0, 1e-3, 14)
    resp = combined_freq_response(taps, cdd, [0.0, 0.0], t, f)
    theta = 2 * math.pi * (2 * nu) * t  # relative Doppler rotation
    expected = 2.0 + 2.0 * np.cos(
        2 * math.pi * f[None, :] * delta + theta[:, None]
    )
    assert np.max(np.abs(np.abs(resp.h) ** 2 - expected)) < 1e-9
    frac_strong = np.mean(np.abs(resp.h) ** 2 >= 2.0, axis=1)
    assert np.all(frac_strong >= 0.5 - 1e-12)


def test_cdd_is_power_invariant():
    # On a frequency-selective two-ray whose delay separation spans an integer
    # number of cycles across the band, the cross term sums to zero, so the
    # total per-slot power is the same with and without the extra CDD ramp.
    taps = [
        ChannelTaps(
            delays=np.array([0.0]), dopplers=np.array([+926.0]),
            gains=np.array([1.0 + 0j]), aod=np.zeros(1), aoa=np.zeros(1),
        ),
        ChannelTaps(
            delays=np.array([1e-6]), dopplers=np.array([-926.0]),
            gains=np.array([1.0 + 0j]), aod=np.zeros(1), aoa=np.zeros(1),
        ),
    ]
    f = np.arange(600) * 30e3  # 18 MHz band: 1 us spans exactly 18 cycles
    t = np.linspace(0, 5e-4, 13)
    plain = combined_freq_response(taps, [0.0, 0.0], [0.0, 0.0], t, f)
    shifted = combined_freq_response(taps, [0.0, 1e-6], [0.0, 0.0], t, f)
    p0 = np.sum(np.abs(plain.h) ** 2)
    p1 = np.sum(np.abs(shifted.h) ** 2)
    assert abs(p1 - p0) / p0 < 1e-9
    assert abs(p0 - 2.0 * len(t) * len(f)) / p0 < 1e-9


def test_precompensation_identity_for_los_channels():
    # Shifting each TRP by its own LoS Doppler freezes the response in time.
    taps, cdd = _two_ray(926.0)
    f = np.arange(600) * 30e3
    t = np.linspace(0, 5e-4, 13)
    resp = combined_freq_response(taps, cdd, [+926.0, -926.0], t, f)
    assert np.max(np.abs(resp.h - resp.h[0, :])) < 1e-9


def test_response_linear_in_gains():
    taps, cdd = _two_ray(500.0)
    f = np.arange(120) * 30e3
    t = np.linspace(0, 5e-4, 7)
    base = combined_freq_response(taps, cdd, [0.0, 0.0], t, f)
    scaled_taps = [
        ChannelTaps(
            delays=tp.delays, dopplers=tp.dopplers, gains=3.0 * tp.gains,
            aod=tp.aod, aoa=tp.aoa,
        )
        for tp in taps
    ]
    scaled = combined_freq_response(scaled_taps, cdd, [0.0, 0.0], t, f)
    assert np.max(np.abs(np.abs(scaled.h) ** 2 - 9.0 * np.abs(base.h) ** 2)) < 1e-9


def test_macro_pathgain_slope_and_determinism():
    params = MacroParams()
    site = Site(id=0, position=np.array([500.0, 0.0, 35.0]))
    g100 = macro_pathgain(site, 600.0, params, 0.0)
    g1000 = macro_pathgain(site, -500.0, params, 0.0)
    assert abs((g100 - g1000) - 10 * params.exponent) < 1e-9
    assert g100 == macro_pathgain(site, 400.0, params, 0.0)  # symmetric about the site
    assert macro_pathgain(site, 600.0, params, 4.0) == g100 + 4.0
    # Elementwise over any shape, each user with its own shadowing.
    x = np.array([[600.0, -500.0], [400.0, 1500.0]])
    shadow = np.array([[0.0, 0.0], [4.0, -2.0]])
    want = [[g100, g1000], [g100 + 4.0, g1000 - 2.0]]
    np.testing.assert_array_equal(macro_pathgain(site, x, params, shadow), want)


def test_macro_pathgain_at_the_site_is_the_gain_at_1_m():
    params = MacroParams()
    site = Site(id=0, position=np.array([500.0, 0.0, 35.0]))
    at_1m = macro_pathgain(site, 501.0, params, 0.0)
    assert macro_pathgain(site, 500.0, params, 0.0) == at_1m
    assert macro_pathgain(site, 500.4, params, 0.0) == at_1m
    assert math.isfinite(at_1m)
