"""Rail downlink link abstraction: TBS, effective SNR, BLER, HARQ, schemes."""

import math

import numpy as np
import pytest

from nrtransport import (
    Mcs,
    Numerology,
    Scheme,
    bler,
    build_rail_deployment,
    effective_snr,
    hst,
    linear_trajectory,
    run_hst_sweep,
    transport_block_size,
)
from nrtransport.errors import ConfigurationError
from nrtransport.hst import HstLinkParams, SlotResult, bin_by_position, bler_threshold_db


def test_transport_block_size_default_mcs():
    tbs = transport_block_size(Numerology(), Mcs(), overhead_symbols=1)
    assert tbs == math.floor(50 * 12 * 13 * 6 * 0.428)
    assert tbs == 20030
    peak = tbs / Numerology().slot_duration
    assert abs(peak - 40.06e6) < 0.01e6


def test_transport_block_size_simple_cases():
    assert transport_block_size(
        Numerology(n_rb=1), Mcs(modulation_order_bits=2, code_rate=1 - 1e-12), 0
    ) == 336
    with pytest.raises(ConfigurationError):
        transport_block_size(Numerology(), Mcs(), overhead_symbols=14)


def test_effective_snr_flat_is_exact():
    for beta in (1.0, 5.0):
        snr = effective_snr(np.full(600, 10 ** (7.0 / 10.0)), beta)
        assert abs(snr - 7.0) < 1e-12


def test_effective_snr_penalizes_nulls():
    # Half the REs at x = 10 dB, half in a deep null: the exponential mapping
    # with beta = 1 lands more than 3 dB below x.
    x_lin = 10.0
    sinr = np.concatenate([np.full(300, x_lin), np.full(300, 1e-12)])
    eff = effective_snr(sinr, beta=1.0)
    assert eff < 10.0 * math.log10(x_lin) - 3.0


def test_effective_snr_survives_underflow():
    # exp(-1e5 / 5) underflows to 0 for every RE; the shifted form is exact.
    assert effective_snr([1e5] * 10, beta=5.0) == 50.0


def test_effective_snr_of_a_tiny_sinr_is_not_the_floor():
    # exp(-2e-17) rounds to 1, and so would the mean and its log to 0; the
    # expm1/log1p form keeps the -160 dB.
    assert abs(effective_snr([1e-16] * 10, beta=5.0) - (-160.0)) < 1e-9


def test_effective_snr_maps_each_row_along_the_last_axis():
    # The sweep decodes (rows x REs) at once; each row must get exactly what
    # the 1-D call gives, including the underflow and tiny-SINR forms.
    rows = np.vstack([np.random.default_rng(3).exponential(5.0, 40), np.full(40, 1e5), np.full(40, 1e-16)])
    eff = effective_snr(rows, beta=5.0)
    assert eff.shape == (3,)
    assert eff.tolist() == [effective_snr(row, beta=5.0) for row in rows]
    for empty in ([], np.zeros((2, 0))):
        with pytest.raises(ConfigurationError, match="empty SINR set"):
            effective_snr(empty)


def test_bler_limits_and_threshold():
    mcs = Mcs()
    th = bler_threshold_db(mcs)
    expected = 10 * math.log10(2 ** (6 * 0.428) - 1) + 2.0
    assert abs(th - expected) < 1e-12
    assert abs(th - 8.93) < 0.01
    assert abs(bler(th, mcs) - 0.5) < 1e-12
    assert bler(th + 50.0, mcs) < 1e-6
    assert bler(th - 50.0, mcs) > 1 - 1e-6


def _sweep(scheme, span=300.0, **overrides):
    deployment = build_rail_deployment(700.0, 10.0)
    numerology = Numerology()
    trajectory = linear_trajectory(500.0, span, numerology.slot_duration)
    params = HstLinkParams(**overrides)
    return run_hst_sweep(deployment, trajectory, scheme, numerology, Mcs(), 1, params), numerology


@pytest.mark.parametrize("overrides", [{}, {"anchor_snr_db": 6.0, "max_harq_retx": 2}])
def test_chunk_size_does_not_change_results(monkeypatch, overrides):
    # The sweep evaluates slots in chunks; HARQ retransmissions that run past
    # the end of a chunk pull in the next one. The chunk size is not a
    # parameter of the model, so every size must give the same results.
    default = hst.SLOT_CHUNK
    by_chunk = {}
    for chunk in (1, 7, default):
        monkeypatch.setattr(hst, "SLOT_CHUNK", chunk)
        by_chunk[chunk] = [_sweep(scheme, span=40.0, **overrides)[0] for scheme in Scheme]
    assert by_chunk[1] == by_chunk[7] == by_chunk[default]
    if overrides:
        results = [r for per_scheme in by_chunk[7] for r in per_scheme]
        crossing = [r for r in results if r.slot_index // 7 != (r.slot_index + r.harq_attempts_used - 1) // 7]
        assert crossing, "no retransmission crossed a chunk boundary"
        assert any(r.harq_attempts_used == 3 and r.delivered_bits == 0 for r in results)


def test_retransmissions_are_decoded_per_chunk(monkeypatch):
    # Each chunk decodes its first attempts and then its retransmission
    # candidates level by level: at most 1 + max_harq_retx BLER evaluations
    # per chunk, however many transport blocks fail.
    calls = []
    monkeypatch.setattr(hst, "SLOT_CHUNK", 7)
    monkeypatch.setattr(hst, "bler", lambda *args, **kwargs: calls.append(1) or bler(*args, **kwargs))
    for scheme in Scheme:
        calls.clear()
        results, _ = _sweep(scheme, span=40.0, anchor_snr_db=6.0, max_harq_retx=2)
        chunks = math.ceil(len(linear_trajectory(500.0, 40.0, Numerology().slot_duration)) / 7)
        assert any(r.harq_attempts_used > 1 for r in results)
        assert len(calls) <= chunks * (1 + 2), scheme


def test_bin_size_must_be_positive():
    results, numerology = _sweep(Scheme.DPS, span=10.0)
    for bin_m in (0.0, -20.0, float("nan")):
        with pytest.raises(ConfigurationError, match="bin size"):
            bin_by_position(results, bin_m, numerology.slot_duration)


def test_all_success_gives_flat_peak_curve():
    # Force zero BLER with a huge negative threshold.
    results, numerology = _sweep(Scheme.DPS, bler_threshold_db=-500.0)
    assert all(r.delivered_bits == 20030 and r.harq_attempts_used == 1 for r in results)
    tput = bin_by_position(results, 20.0, numerology.slot_duration).throughput_bps
    assert np.max(np.abs(tput - 20030 / numerology.slot_duration)) < 1e-6


def test_alternating_success_failure_halves_throughput():
    numerology = Numerology()
    results = []
    for i in range(100):
        results.append(
            SlotResult(
                slot_index=i, train_x=1.0,
                delivered_bits=20030 if i % 2 == 0 else 0,
                harq_attempts_used=1, effective_snr_db=10.0,
            )
        )
    tput = bin_by_position(results, 20.0, numerology.slot_duration).throughput_bps
    assert abs(tput[0] - 0.5 * 20030 / numerology.slot_duration) < 1e-6


def test_all_failures_deliver_nothing():
    results, _ = _sweep(Scheme.SFN, bler_threshold_db=500.0)
    assert all(r.delivered_bits == 0 for r in results)
    assert all(r.harq_attempts_used <= 4 for r in results)


def test_throughput_non_increasing_in_bler_threshold():
    tputs = []
    for th in (5.0, 9.0, 13.0):
        results, numerology = _sweep(Scheme.SFN, bler_threshold_db=th)
        bits = sum(r.delivered_bits for r in results)
        slots = sum(r.harq_attempts_used for r in results)
        tputs.append(bits / (slots * numerology.slot_duration))
    assert tputs[0] >= tputs[1] >= tputs[2]


def test_harq_occupies_extra_slots():
    results, _ = _sweep(Scheme.SFN, span=2100.0, max_harq_retx=3)
    used = [r.harq_attempts_used for r in results]
    assert max(used) > 1  # retransmissions do occur along the sweep
    assert max(used) <= 4
    # Slot accounting: transport blocks tile the sweep without overlap.
    total = sum(used)
    starts = [r.slot_index for r in results]
    assert starts == sorted(starts)
    assert total >= starts[-1]


def test_dps_effective_snr_below_sfn_combined_power():
    # DPS transmits from one TRP, so its received power cannot exceed the
    # coherent SFN sum at positions where the two links are equal.
    dps, _ = _sweep(Scheme.DPS, span=2100.0)
    sfn, _ = _sweep(Scheme.SFN, span=2100.0)
    mid_dps = [r for r in dps if abs(r.train_x - 1050.0) < 20.0]
    mid_sfn = [r for r in sfn if abs(r.train_x - 1050.0) < 20.0]
    # Compare the best DPS slot against the best possible SFN power bound:
    # 3 dB combining gain at the equal-power midpoint.
    assert max(r.effective_snr_db for r in mid_dps) <= max(
        r.effective_snr_db for r in mid_sfn
    ) + 6.0


def test_scheme_validation_and_sample_period_check():
    deployment = build_rail_deployment(700.0, 10.0)
    numerology = Numerology()
    trajectory = linear_trajectory(500.0, 300.0, numerology.slot_duration)
    with pytest.raises(ConfigurationError):
        run_hst_sweep(deployment, trajectory, "NOT_A_SCHEME", numerology, Mcs(), 1)
    bad = linear_trajectory(500.0, 300.0, 1e-3)
    with pytest.raises(ConfigurationError):
        run_hst_sweep(deployment, bad, Scheme.SFN, numerology, Mcs(), 1)


@pytest.mark.parametrize("anchor", [4000.0, -4000.0, math.nan])
def test_link_params_reject_an_anchor_snr_outside_its_bound(anchor):
    with pytest.raises(ConfigurationError, match="anchor SNR"):
        HstLinkParams(anchor_snr_db=anchor)
    HstLinkParams(anchor_snr_db=math.copysign(300.0, anchor))


@pytest.mark.parametrize("cdd", [-1e-6, 1.001e-3, 1e302, math.nan])
def test_link_params_reject_a_cdd_delay_outside_its_bound(cdd):
    with pytest.raises(ConfigurationError, match="CDD delay"):
        HstLinkParams(cdd_delay_s=cdd)
    HstLinkParams(cdd_delay_s=1e-3)


def test_near_trp_anchor_reaches_peak():
    # At the anchor position (x = 0, 16 dB SFN-combined SNR) every scheme
    # delivers at or near the peak rate.
    for scheme in Scheme:
        results, numerology = _sweep(scheme, span=700.0)
        near = [r for r in results if r.train_x < 5.0]
        bits = sum(r.delivered_bits for r in near)
        slots = sum(r.harq_attempts_used for r in near)
        tput = bits / (slots * numerology.slot_duration)
        assert tput > 0.95 * 20030 / numerology.slot_duration, scheme
