"""Macro-cell downlink scheduling with path-gain-based user deferral.

Vehicles cross a highway cell while downloading fixed-size files. Each slot
the scheduler splits present users into a high and a low path-gain group; the
low group (a configurable fraction) is deferred until its gain improves, and a
TDM round-robin serves the eligible backlogged users.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import SHADOW_SIGMA_DB, macro_pathgain, pathloss_db
from .errors import ConfigurationError
from .rng import substream
from .scenario import KMH, MAX_COORDINATE_M, Deployment

# Upper bound on the expected Poisson file arrivals of one cell. Every arrival
# gets a row in the per-user columns, drawn at once, and the slot loop is
# linear in the users present; the default heaviest point expects about 1,000.
MAX_EXPECTED_ARRIVALS = 1_000_000
# Upper bound on the slots of one cell, which the slot loop walks in blocks;
# the default study runs 20,000.
MAX_SLOTS = 1_000_000
# Path loss at 866 m, the cell edge of the default 1,732 m inter-site
# distance. It anchors the link budget at every ISD: the transmit power is
# fixed, so a smaller or larger cell sees a higher or lower SNR at its edge.
EDGE_PATHLOSS_DB = pathloss_db(866.0)
# Slots the slot loop evaluates per step; a completion ends a block early.
# Not a model parameter: every block size gives the same results.
SLOT_BLOCK = 64


@dataclass(frozen=True)
class TrafficConfig:
    density_mbps_km2: float
    file_size_bits: float = 4e9  # 500 MB
    vehicle_speed_kmh: float = 140.0

    def __post_init__(self):
        if self.density_mbps_km2 < 0:
            raise ConfigurationError("traffic density must be non-negative")
        if not self.file_size_bits > 0:
            raise ConfigurationError(f"file size must be positive, got {self.file_size_bits} bits")


@dataclass(frozen=True)
class DropPolicy:
    drop_fraction: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.drop_fraction <= 1.0:
            raise ConfigurationError("drop fraction must lie in [0, 1]")


@dataclass(frozen=True)
class CellParams:
    bandwidth_hz: float = 50e6
    cell_edge_snr_db: float = 5.0  # shadowing-free SNR at 866 m, whatever the ISD
    peak_se: float = 7.4  # spectral efficiency cap, bit/s/Hz
    min_snr_db: float = 0.0  # below this the lowest MCS fails and the slot carries nothing
    slot_s: float = 0.01
    area_width_km: float = 0.4  # road strip width used for Mbps/km^2 loads


@dataclass
class UserRecord:
    id: int
    arrival_t: float
    backlog_bits: float
    served_bits: float = 0.0
    admitted: bool = False
    first_admitted_t: float | None = None
    completion_t: float | None = None
    exit_t: float | None = None  # censoring time when the run ends first
    current_gain_db: float = 0.0

    @property
    def time_in_system(self) -> float:
        end = self.completion_t if self.completion_t is not None else self.exit_t
        if end is None:
            raise ConfigurationError("user still active; run not finalized")
        return max(end - self.arrival_t, 1e-12)

    @property
    def throughput_bps(self) -> float:
        return self.served_bits / self.time_in_system


def deferred_mask(gains: np.ndarray, ids: np.ndarray, policy: DropPolicy) -> np.ndarray:
    """Which users the policy defers, given their path gains (dB) and ids.

    Users lie along the last axis of ``gains``; each row (a slot) is
    partitioned on its own, and a user absent from a row has gain +inf there.
    The policy defers the floor(rho * n) present users with the lowest gain;
    ties break by user id so the partition is deterministic. A 1-D ``gains``
    is the one-row case.
    """
    deferred = np.zeros(gains.shape, dtype=bool)
    if policy.drop_fraction == 0.0:
        return deferred
    n_defer = np.floor(policy.drop_fraction * np.sum(gains < np.inf, axis=-1))
    order = np.lexsort((np.broadcast_to(ids, gains.shape), gains), axis=-1)  # lowest gain first, ties by id
    np.put_along_axis(deferred, order, np.arange(gains.shape[-1]) < n_defer[..., None], axis=-1)
    return deferred


@dataclass
class CellStats:
    users: list[UserRecord]
    eligible_fraction_time_avg: float
    duration: float


def _snr_db(gain_db: float, params: CellParams) -> float:
    return params.cell_edge_snr_db + (gain_db + EDGE_PATHLOSS_DB)


def _rate_bps(snr_db: float, params: CellParams) -> float:
    if snr_db < params.min_snr_db:
        return 0.0
    return params.bandwidth_hz * min(np.log2(1.0 + 10.0 ** (snr_db / 10.0)), params.peak_se)


def simulate_cell(
    deployment: Deployment,
    traffic: TrafficConfig,
    policy: DropPolicy,
    duration: float,
    seed: int,
    params: CellParams | None = None,
    initial_users: list[tuple] | None = None,
) -> CellStats:
    """Event loop over TDM slots for one cell (the first deployed site).

    State is kept in parallel column arrays, and the loop advances up to
    ``SLOT_BLOCK`` slots per step. A block takes the users present at its
    start plus its arrivals (a user is present from the first slot at or
    after its arrival time) and evaluates, over (slots x users), positions,
    gains from macro_pathgain and the row-wise deferred_mask partition. It
    then walks its slots: each serves the round-robin pick, at the rate of
    its own gain, and a completion ends the block at that slot, so the users
    of a block only ever arrive. Admission times, last gains and the
    eligible-fraction terms (summed in slot order) come from the walked rows.

    ``initial_users`` places deterministic users at t = 0 in addition to the
    Poisson arrivals; each entry is (entry_x_m, direction, shadow_db,
    backlog_bits). Handy for closed-form checks with density 0.
    """
    params = params or CellParams()
    if not duration / params.slot_s < MAX_SLOTS:
        raise ConfigurationError(
            f"duration {duration:g} s is more than {MAX_SLOTS:,} slots of {params.slot_s:g} s"
        )
    n_slots = int(round(duration / params.slot_s))
    if n_slots < 1:
        raise ConfigurationError(f"duration {duration:g} s is shorter than one {params.slot_s:g} s slot")
    speed = traffic.vehicle_speed_kmh * KMH
    if not speed * duration <= MAX_COORDINATE_M:  # a wrapped position beyond it keeps no precision
        raise ConfigurationError(
            f"vehicles at {traffic.vehicle_speed_kmh:g} km/h over {duration:g} s travel more than "
            f"{MAX_COORDINATE_M:g} m"
        )
    site = deployment.positions[0]
    half_span = deployment.isd / 2.0

    rng = substream(seed, "scheduler", "arrivals")
    area_km2 = (2.0 * half_span / 1000.0) * params.area_width_km
    offered_bps = traffic.density_mbps_km2 * 1e6 * area_km2
    lam = offered_bps / traffic.file_size_bits  # files per second
    if lam * duration > MAX_EXPECTED_ARRIVALS:
        raise ConfigurationError(
            f"{traffic.density_mbps_km2:g} Mbps/km2 over {duration:g} s expects {lam * duration:.3g} "
            f"file arrivals in the cell, more than {MAX_EXPECTED_ARRIVALS:,}"
        )
    n_arrivals = int(rng.poisson(lam * duration)) if lam > 0 else 0
    arrival_t = np.sort(rng.uniform(0.0, duration, n_arrivals))
    direction = np.where(rng.random(n_arrivals) < 0.5, 1.0, -1.0)
    shadow = rng.normal(0.0, SHADOW_SIGMA_DB, n_arrivals)
    entry_x = -direction * half_span  # enter at the cell edge

    if initial_users:
        seeded = np.array([[u[0], u[1], u[2]] for u in initial_users], dtype=float)
        arrival_t = np.concatenate([np.zeros(len(seeded)), arrival_t])
        entry_x = np.concatenate([seeded[:, 0], np.broadcast_to(entry_x, (n_arrivals,))])
        direction = np.concatenate([seeded[:, 1], direction])
        shadow = np.concatenate([seeded[:, 2], shadow])
        seeded_backlog = np.array([float(u[3]) for u in initial_users])
        n_arrivals += len(seeded)

    backlog = np.full(n_arrivals, float(traffic.file_size_bits))
    if initial_users:
        backlog[: len(seeded_backlog)] = seeded_backlog
    served = np.zeros(n_arrivals)
    admitted = np.zeros(n_arrivals, dtype=bool)
    first_admitted_t = np.full(n_arrivals, np.nan)
    completion_t = np.full(n_arrivals, np.nan)
    last_gain = np.zeros(n_arrivals)
    ids = np.arange(n_arrivals)

    slot_t = np.arange(n_slots) * params.slot_s
    first_slot = np.searchsorted(slot_t, arrival_t)  # first slot at or after arrival
    present_ids = np.zeros(0, dtype=int)  # users in the system, by id
    rr_cursor = 0  # round-robin position by user id order
    elig_frac_sum = 0.0
    elig_frac_slots = 0
    next_arrival = 0
    span = 2.0 * half_span

    si = 0
    while si < n_slots:
        if not len(present_ids):  # skip the slots with no user
            if next_arrival == n_arrivals or first_slot[next_arrival] >= n_slots:
                break
            si = int(first_slot[next_arrival])
        stop = min(si + SLOT_BLOCK, n_slots)
        cols = np.concatenate([present_ids, np.arange(next_arrival, np.searchsorted(first_slot, stop))])
        present = first_slot[cols] <= np.arange(si, stop)[:, None]
        t = slot_t[si:stop, None]

        x = entry_x[cols] + direction[cols] * speed * (t - arrival_t[cols])
        x = (x + half_span) % span - half_span  # wrap to the next cell
        gains = np.where(present, macro_pathgain(site, x, shadow[cols]), np.inf)
        eligible = present & ~deferred_mask(gains, cols, policy)

        # Round-robin by id order: per row, the first backlogged eligible
        # column at or past each column (n_cols when there is none); a slot
        # takes the first at or past the cursor, wrapping to the first.
        n_rows, n_cols = present.shape
        cand = np.full((n_rows, n_cols + 1), n_cols)
        cand[:, :n_cols] = np.where(eligible & (backlog[cols] > 0), np.arange(n_cols), n_cols)
        nxt = np.minimum.accumulate(cand[:, ::-1], axis=1)[:, ::-1]
        pos = int(np.searchsorted(cols, rr_cursor))
        last = n_rows - 1
        completed = -1
        for r in range(n_rows):
            c = nxt.item(r, pos)
            if c == n_cols:
                c = nxt.item(r, 0)
                if c == n_cols:
                    continue
            chosen = int(cols[c])
            pos = c + 1
            rr_cursor = chosen + 1
            snr = _snr_db(gains[r, c], params)
            bits = min(_rate_bps(snr, params) * params.slot_s, backlog[chosen])
            served[chosen] += bits
            backlog[chosen] -= bits
            if backlog[chosen] <= 0:
                completion_t[chosen] = slot_t[si + r] + params.slot_s
                completed, last = chosen, r  # the block ends at a completion
                break

        eligible = eligible[: last + 1]
        n_present = np.sum(present[: last + 1], axis=1)
        for term in (np.sum(eligible, axis=1) / n_present).tolist():
            elig_frac_sum += term
        elig_frac_slots += last + 1
        newly = ~admitted[cols] & np.any(eligible, axis=0)
        admitted[cols[newly]] = True
        first_admitted_t[cols[newly]] = slot_t[si + np.argmax(eligible[:, newly], axis=0)]
        in_last = present[last]
        last_gain[cols[in_last]] = gains[last, in_last]
        present_ids = cols[in_last & (cols != completed)]
        next_arrival = int(np.searchsorted(first_slot, si + last + 1))
        si += last + 1

    users = []
    for i in range(n_arrivals):
        done = not math.isnan(completion_t[i])
        users.append(
            UserRecord(
                id=int(ids[i]),
                arrival_t=float(arrival_t[i]),
                backlog_bits=float(backlog[i]),
                served_bits=float(served[i]),
                admitted=bool(admitted[i]),
                first_admitted_t=None if math.isnan(first_admitted_t[i]) else float(first_admitted_t[i]),
                completion_t=float(completion_t[i]) if done else None,
                exit_t=None if done else duration,
                current_gain_db=float(last_gain[i]),
            )
        )
    frac = elig_frac_sum / elig_frac_slots if elig_frac_slots else 1.0
    return CellStats(users=users, eligible_fraction_time_avg=frac, duration=duration)


def mean_user_throughput(stats: CellStats) -> float:
    if not stats.users:
        return 0.0
    return float(np.mean([u.throughput_bps for u in stats.users]))


def median_file_time(stats: CellStats) -> float:
    """Median transfer time over admitted users, measured from first admission.

    Unfinished transfers are right-censored at the run end and enter the
    median at their lower bound, so an overloaded cell reports honestly long
    times instead of surviving on the few transfers that happened to finish.
    """
    times = []
    for u in stats.users:
        if u.first_admitted_t is None:
            continue
        end = u.completion_t if u.completion_t is not None else stats.duration
        times.append(end - u.first_admitted_t)
    if not times:
        return math.inf
    return float(np.median(times))


@dataclass(frozen=True)
class SweepPoint:
    density_mbps_km2: float
    drop_fraction: float
    mean_user_tput_mbps: float
    coverage_fraction: float
    median_file_time_s: float


def density_sweep(
    deployment: Deployment,
    densities,
    drop_fractions,
    reps: int,
    seed: int,
    *,
    duration: float = 200.0,
    traffic: TrafficConfig | None = None,
) -> list[SweepPoint]:
    """Mean user throughput etc. per (density, drop fraction), averaged over
    replications with matched seeds across drop fractions. Each density
    replaces that of ``traffic`` (default ``TrafficConfig(0.0)``)."""
    densities, drop_fractions = list(densities), list(drop_fractions)
    if not densities or not drop_fractions:
        raise ConfigurationError("empty sweep grids")
    traffic = traffic or TrafficConfig(density_mbps_km2=0.0)
    out = []
    for density in densities:
        point_traffic = replace(traffic, density_mbps_km2=density)
        for rho in drop_fractions:
            policy = DropPolicy(drop_fraction=rho)
            tputs, covs, ftimes = [], [], []
            for rep in range(reps):
                stats = simulate_cell(
                    deployment, point_traffic, policy, duration,
                    seed=int(substream(seed, "sched", rep).integers(2**62)),
                )
                tputs.append(mean_user_throughput(stats))
                covs.append(stats.eligible_fraction_time_avg)
                ftimes.append(median_file_time(stats))
            finite = [f for f in ftimes if math.isfinite(f)]
            out.append(
                SweepPoint(
                    density_mbps_km2=float(density),
                    drop_fraction=float(rho),
                    mean_user_tput_mbps=float(np.mean(tputs)) / 1e6,
                    coverage_fraction=float(np.mean(covs)),
                    median_file_time_s=float(np.median(finite)) if finite else math.inf,
                )
            )
    return out
