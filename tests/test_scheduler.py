"""Macro-cell scheduler: drop-policy partition, round-robin service, sweep behavior."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from nrtransport import (
    CellParams,
    DropPolicy,
    TrafficConfig,
    build_linear_deployment,
    median_file_time,
    mean_user_throughput,
    simulate_cell,
)
from nrtransport import scheduler
from nrtransport.channel import pathloss_db
from nrtransport.cli import main as cli_main
from nrtransport.errors import ConfigurationError
from nrtransport.scheduler import _rate_bps, _snr_db, deferred_mask


def _deployment():
    return build_linear_deployment(1732, 0, 35, 1732)


def _deferred(gains, policy):
    """Deferred user ids, for users 0..n-1 with the given gains (dB)."""
    ids = np.arange(len(gains))
    return list(ids[deferred_mask(np.array(gains, dtype=float), ids, policy)])


def test_classify_all_eligible_at_rho_zero():
    assert _deferred([-100.0 - 10 * i for i in range(4)], DropPolicy(0.0)) == []


def test_classify_defers_lowest_gain_half():
    assert _deferred([-100.0, -110.0, -120.0, -130.0], DropPolicy(0.5)) == [2, 3]


def test_classify_quantile_invariant_to_gain_offset():
    gains = np.array([-97.0, -113.0, -108.0, -121.0, -105.0])
    deferred = _deferred(gains, DropPolicy(0.4))
    assert deferred == [1, 3]
    assert _deferred(gains + 17.0, DropPolicy(0.4)) == deferred


def test_rowwise_partition_is_the_one_row_partition_per_row():
    # Integer gains tie often; absent users (+inf) sit in random columns.
    rng = np.random.default_rng(5)
    gains = rng.integers(-106, -100, (60, 12)).astype(float)
    present = rng.random(gains.shape) < 0.6
    present[0], present[1] = False, True
    gains[~present] = np.inf
    ids = 3 * np.arange(12) + 5
    for rho in (0.0, 0.3, 0.5, 1.0):
        mask = deferred_mask(gains, ids, DropPolicy(rho))
        assert not mask[~present].any()
        for row_gains, row_mask, row_present in zip(gains, mask, present):
            one_row = deferred_mask(row_gains[row_present], ids[row_present], DropPolicy(rho))
            assert row_mask[row_present].tolist() == one_row.tolist()
        if rho == 1.0:
            assert (mask == present).all()
    # The cut falls inside a run of tied gains, so the id order decides.
    row = np.array([-101.0, -103.0, -103.0, -103.0, np.inf, -100.0])
    assert deferred_mask(np.stack([row, row]), np.arange(6), DropPolicy(0.5)).tolist() == [
        [False, True, True, False, False, False]
    ] * 2


def test_classify_validation():
    assert _deferred([], DropPolicy(0.5)) == []
    with pytest.raises(ConfigurationError):
        DropPolicy(1.5)


def _closed_form_rate(gain_db, params):
    snr = params.cell_edge_snr_db + gain_db + float(pathloss_db(866.0))
    if snr < params.min_snr_db:
        return 0.0
    se = min(math.log2(1 + 10 ** (snr / 10)), params.peak_se)
    return params.bandwidth_hz * se


def _shadow_for(gain_db, x):
    # Mirror the simulator's distance model: horizontal offset to the first
    # site (at the origin) combined with the site's lateral coordinate (0).
    d = math.hypot(max(abs(x), 1.0), 0.0)
    return gain_db + float(pathloss_db(d))


@pytest.mark.parametrize("isd", [1732.0, 4000.0])
def test_single_static_user_gets_full_shannon_rate(isd):
    # The link budget is anchored at 866 m whatever the ISD: a user's rate
    # depends on its gain alone, not on the size of its cell.
    params = CellParams()
    traffic = TrafficConfig(0.0, file_size_bits=1e15, vehicle_speed_kmh=1e-9)
    users = [(100.0, 1.0, _shadow_for(-100.0, 100.0), 1e15)]
    deployment = build_linear_deployment(isd, 0, 35, isd)
    stats = simulate_cell(deployment, traffic, DropPolicy(0.0), 10.0, 1, params, initial_users=users)
    expected = _closed_form_rate(-100.0, params)
    assert abs(mean_user_throughput(stats) - expected) / expected < 1e-9


def test_two_user_round_robin_matches_closed_form():
    # Gains -100 / -120 dB: TDM halves each rate at rho = 0; dropping 50%
    # defers the weak user entirely, giving the strong one the full rate.
    params = CellParams()
    traffic = TrafficConfig(0.0, file_size_bits=1e15, vehicle_speed_kmh=1e-9)
    users = [
        (100.0, 1.0, _shadow_for(-100.0, 100.0), 1e15),
        (300.0, 1.0, _shadow_for(-120.0, 300.0), 1e15),
    ]
    r_strong = _closed_form_rate(-100.0, params)
    r_weak = _closed_form_rate(-120.0, params)
    assert r_weak > 0  # the weak user is above the outage floor

    stats = simulate_cell(_deployment(), traffic, DropPolicy(0.0), 10.0, 1, params, initial_users=users)
    expected = (r_strong / 2 + r_weak / 2) / 2
    assert abs(mean_user_throughput(stats) - expected) / expected < 1e-6

    stats = simulate_cell(_deployment(), traffic, DropPolicy(0.5), 10.0, 1, params, initial_users=users)
    expected = r_strong / 2  # weak user contributes zero to the mean
    assert abs(mean_user_throughput(stats) - expected) / expected < 1e-6


def test_outage_floor_zeroes_rate():
    params = CellParams()
    assert _rate_bps(params.min_snr_db - 0.1, params) == 0.0
    assert _rate_bps(params.min_snr_db + 0.1, params) > 0.0


def test_infinite_capacity_file_time():
    # A single user at peak SE: completion takes file_size / peak_rate.
    params = CellParams()
    peak = params.bandwidth_hz * params.peak_se
    file_bits = 1e9
    traffic = TrafficConfig(0.0, file_size_bits=file_bits, vehicle_speed_kmh=1e-9)
    users = [(50.0, 1.0, _shadow_for(-80.0, 50.0), file_bits)]
    stats = simulate_cell(_deployment(), traffic, DropPolicy(0.0), 10.0, 1, params, initial_users=users)
    expected = file_bits / peak
    got = median_file_time(stats)
    assert abs(got - expected) <= params.slot_s + 1e-12


def test_work_conservation_and_power_budget():
    params = CellParams()
    traffic = TrafficConfig(1000.0, file_size_bits=4e8)
    stats = simulate_cell(_deployment(), traffic, DropPolicy(0.0), 50.0, 3, params)
    served = sum(u.served_bits for u in stats.users)
    peak = params.bandwidth_hz * params.peak_se
    assert served <= 50.0 * peak + 1e-6
    assert served > 0
    for u in stats.users:
        assert u.served_bits <= traffic.file_size_bits + 1e-6
        assert u.backlog_bits >= -1e-6


def test_drop_never_hurts_strongest_user():
    params = CellParams()
    traffic = TrafficConfig(800.0, file_size_bits=4e8)
    outcomes = {}
    for rho in (0.0, 0.5):
        stats = simulate_cell(_deployment(), traffic, DropPolicy(rho), 50.0, 9, params)
        best = max(stats.users, key=lambda u: u.current_gain_db)
        outcomes[rho] = best.throughput_bps
    assert outcomes[0.5] >= outcomes[0.0] - 1e-6


def test_coverage_fraction_half_under_load():
    params = CellParams()
    traffic = TrafficConfig(1000.0, file_size_bits=4e8)
    stats = simulate_cell(_deployment(), traffic, DropPolicy(0.5), 50.0, 5, params)
    assert abs(stats.eligible_fraction_time_avg - 0.5) < 0.05


def test_censored_median_counts_unfinished_transfers():
    # One fast finisher, two users stuck in outage: the median reflects the
    # censored slow transfers instead of the lone completed one.
    params = CellParams()
    traffic = TrafficConfig(0.0, file_size_bits=1e6, vehicle_speed_kmh=1e-9)
    users = [
        (50.0, 1.0, _shadow_for(-80.0, 50.0), 1e6),
        (800.0, 1.0, _shadow_for(-150.0, 800.0), 1e6),
        (820.0, 1.0, _shadow_for(-150.0, 820.0), 1e6),
    ]
    stats = simulate_cell(_deployment(), traffic, DropPolicy(0.0), 5.0, 1, params, initial_users=users)
    assert median_file_time(stats) == pytest.approx(5.0)


def test_unbounded_arrivals_rejected_before_drawing(tmp_path, capsys):
    # 1e12 Mbps/km2 expects about 1.7e7 arrivals in one 10 ms slot; without
    # the bound the default 200 s would ask numpy for gigabytes.
    cfg = tmp_path / "dense.cfg"
    cfg.write_text("[scheduler]\ndensities_mbps_km2 = 1e12\ndrop_fractions = 0\nduration_s = 0.01\n")
    tracemalloc.start()
    try:
        code = cli_main(["run", str(cfg), "--output-dir", str(tmp_path / "out")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1
    assert "file arrivals in the cell" in capsys.readouterr().err
    assert peak < 1_000_000


def test_density_sweep_takes_any_iterable_grid():
    # The grids are read once; a generator gives the points a tuple gives.
    traffic = TrafficConfig(0.0, file_size_bits=4e7)
    points = [
        scheduler.density_sweep(_deployment(), densities, rhos, 1, 3, duration=2.0, traffic=traffic)
        for densities, rhos in (((150.0, 300.0), (0.0, 0.5)), ((d for d in (150.0, 300.0)), iter((0.0, 0.5))))
    ]
    assert len(points[0]) == 4 and points[0] == points[1]
    assert [p.density_mbps_km2 for p in points[0]] == [150.0, 150.0, 300.0, 300.0]


def test_speed_past_the_coordinate_bound_rejected_before_drawing(monkeypatch):
    def no_draws(*args):
        raise AssertionError("arrivals drawn before the speed was checked")

    monkeypatch.setattr(scheduler, "substream", no_draws)
    for speed in (1e20, 1e308):
        with pytest.raises(ConfigurationError, match="travel more than 1e\\+09 m"):
            simulate_cell(_deployment(), TrafficConfig(150.0, vehicle_speed_kmh=speed), DropPolicy(0.0), 1.0, 1)


def test_run_shorter_than_one_slot_exits_1(tmp_path, capsys):
    # 1 ns is below the 10 ms slot: the cell would run no slot and report
    # throughput 0 and coverage 1 for users it never saw.
    cfg = tmp_path / "short.cfg"
    cfg.write_text("[scheduler]\nduration_s = 1e-9\n")
    assert cli_main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "configuration error:" in err and "shorter than one 0.01 s slot" in err
    assert not (tmp_path / "out" / "scheduler.csv").exists()


def _outcome(traffic, rho, duration, seed, initial_users=None):
    stats = simulate_cell(_deployment(), traffic, DropPolicy(rho), duration, seed, initial_users=initial_users)
    return [dataclasses.astuple(u) for u in stats.users], stats.eligible_fraction_time_avg


def test_block_size_does_not_change_results(monkeypatch):
    # The slot loop evaluates slots in blocks, and a completion ends a block
    # early. The block size is not a parameter of the model, so every size
    # must give the same results.
    seeded = [
        (50.0, 1.0, _shadow_for(-80.0, 50.0), 4e6),
        (800.0, 1.0, _shadow_for(-150.0, 800.0), 0.0),  # zero backlog: present, never served
        (-400.0, -1.0, 3.0, 3e7),
    ]
    cells = [
        (TrafficConfig(20.0, file_size_bits=2e6), 10.0, 1, None),  # small files, idle stretches
        (TrafficConfig(600.0, file_size_bits=2e7), 5.0, 2, None),  # about 100 users at once
        (TrafficConfig(300.0, file_size_bits=4e7), 5.0, 3, seeded),
    ]
    default = scheduler.SLOT_BLOCK
    by_block = {}
    for block in (1, 7, default):
        monkeypatch.setattr(scheduler, "SLOT_BLOCK", block)
        by_block[block] = [
            _outcome(traffic, rho, duration, seed, users)
            for rho in (0.0, 0.5, 1.0)
            for traffic, duration, seed, users in cells
        ]
    assert by_block[1] == by_block[7] == by_block[default]

    slot = CellParams().slot_s
    idle, _, seeded_cell = (users for users, _ in by_block[default][: len(cells)])
    # Some slots see no user at all: a user arrives after every earlier one left.
    ends = [math.inf if u[6] is None else u[6] for u in idle]
    assert any(u[1] > max(ends[:i], default=0.0) + 2 * slot for i, u in enumerate(idle))
    # Completions land inside blocks, and transfers run past a default block.
    spans = [round((u[6] - u[5]) / slot) for u in idle if u[6] is not None]
    assert min(spans) < 7 and max(spans) > default
    zero = seeded_cell[1]
    assert zero[2] == 0.0 and zero[3] == 0.0 and zero[6] is None
