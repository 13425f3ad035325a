"""Multi-TRP downlink throughput versus train position.

Schemes: single-frequency network (SFN), SFN with per-TRP cyclic delay
diversity, SFN with genie Doppler precompensation, and dynamic point switching
(genie TRP selection). The physical layer is abstracted: per-resource-element
SINR -> exponential effective-SNR mapping per code block -> logistic block
error curve, with Chase-combining HARQ modeled as linear SNR accumulation.

The taps of every slot and TRP come from the one tapped-delay-line builder,
``channel.tdl_taps``; the sweep adds only the non-LoS phases, and each tap's
delay is its TRP's LoS delay (plus the CDD) and an offset from one constant
table, whose delay phases ``channel.response_grid`` tabulates once per sweep
after checking that the symbol and subcarrier grids are uniform. Per chunk of
``SLOT_CHUNK`` slots, one ``channel.batched_freq_response`` (phase recurrences
on those grids) gives the per-RE SINR of every slot. One decode function maps
rows of per-RE SINR to code-block ESM, BLER and pass/fail flags: a chunk's
first attempts at once, then level by level the Chase-combined retransmissions
of its failed first attempts, which may reach into the next chunk. The
transport-block walk only looks the outcomes up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import (
    SPEED_OF_LIGHT,
    azimuth,
    batched_freq_response,
    default_rail_profile,
    elevation,
    los_geometry,
    response_grid,
    sector_gain_db,
    tdl_taps,
)
from .errors import ConfigurationError
from .rng import substream
from .scenario import Deployment, Trajectory

# Slots evaluated per batched chunk. Each slot of a chunk adds about 39 kB to the
# sweep's traced peak at the default grid (four TRPs; time terms, delay table, H and
# the SINR held for HARQ candidates, which spans at most this chunk and the next), so
# memory does not grow with the sweep's length. 64 ran the SFN trace sweep about 7%
# faster than 32; 96 and 128 added 1.7 and 3.1 MB (4-7%) to the rail study's peak RSS.
SLOT_CHUNK = 64

CARRIER_HZ = 2e9
PATHLOSS_EXPONENT = 2.5
PROFILE = default_rail_profile()
CODEBLOCK_BITS = 8448  # max code block size; sets TB segmentation
SUBCARRIER_STEP = 12  # SINR sampled once per RB in the sweep
BLER_MARGIN_DB = 2.0  # BLER threshold above the Shannon limit of the MCS
BLER_SLOPE_DB = 0.5
MAX_CDD_DELAY_S = 1e-3  # longest cyclic delay, two 30 kHz slots; the response kernel is tested up to it


@dataclass(frozen=True)
class Numerology:
    scs_hz: float = 30e3
    n_rb: int = 50
    symbols_per_slot: int = 14

    def __post_init__(self):
        if self.scs_hz <= 0 or self.n_rb < 1 or self.symbols_per_slot < 1:
            raise ConfigurationError("invalid numerology")

    @property
    def slot_duration(self) -> float:
        # 0.5 ms at 30 kHz SCS, scaling inversely with subcarrier spacing.
        return 1e-3 * 15e3 / self.scs_hz

    @property
    def n_subcarriers(self) -> int:
        return self.n_rb * 12

    @property
    def symbol_duration(self) -> float:
        return self.slot_duration / self.symbols_per_slot

    def subcarrier_freqs(self, step: int = 1) -> np.ndarray:
        return np.arange(0, self.n_subcarriers, step) * self.scs_hz


@dataclass(frozen=True)
class Mcs:
    modulation_order_bits: int = 6
    code_rate: float = 0.428

    def __post_init__(self):
        if not 0.0 < self.code_rate < 1.0:
            raise ConfigurationError("code rate must lie in (0, 1)")

    @property
    def spectral_efficiency(self) -> float:
        return self.modulation_order_bits * self.code_rate


class Scheme(str, Enum):
    SFN = "SFN"
    SFN_CDD = "SFN_CDD"
    SFN_PRECOMP = "SFN_PRECOMP"
    DPS = "DPS"


@dataclass(frozen=True)
class SlotResult:
    """One transport block: starts at ``slot_index``, occupies
    ``harq_attempts_used`` consecutive slots."""

    slot_index: int
    train_x: float
    delivered_bits: int
    harq_attempts_used: int
    effective_snr_db: float


def transport_block_size(numerology: Numerology, mcs: Mcs, overhead_symbols: int) -> int:
    """Bits per slot: data REs times modulation order times code rate."""
    if overhead_symbols >= numerology.symbols_per_slot:
        raise ConfigurationError("overhead cannot consume the whole slot")
    data_symbols = numerology.symbols_per_slot - overhead_symbols
    bits = numerology.n_subcarriers * data_symbols * mcs.modulation_order_bits * mcs.code_rate
    # Guard the floor against float representation of exact products.
    return int(math.floor(bits + 1e-9))


def effective_snr(sinr_linear, beta: float = 1.0):
    """Exponential effective-SNR mapping (dB) of each row of resource elements
    along the last axis: a float for 1-D input, one value per row otherwise."""
    g = np.asarray(sinr_linear, dtype=float)
    if g.ndim == 0 or g.shape[-1] == 0:
        raise ConfigurationError("empty SINR set")
    rows = g.reshape(-1, g.shape[-1])
    means = np.mean(np.exp(-rows / beta), axis=-1)
    snrs = [-beta * math.log(m) if m and abs(m - 1.0) >= 1e-3 else None for m in means.tolist()]
    if None in snrs:
        for i in [i for i, snr in enumerate(snrs) if snr is None]:
            row = rows[i]
            if means[i] == 0.0:  # every exp(-g/beta) underflowed: shift by the row's g_min
                g_min = float(np.min(row))
                snrs[i] = g_min - beta * math.log(float(np.mean(np.exp(-(row - g_min) / beta))))
            else:  # the mean is so near 1 that log(mean) would lose a tiny SNR
                snrs[i] = -beta * math.log1p(float(np.mean(np.expm1(-row / beta))))
    eff = np.array([10.0 * math.log10(max(snr, 1e-300)) for snr in snrs]).reshape(g.shape[:-1])
    return float(eff) if g.ndim == 1 else eff


def bler_threshold_db(mcs: Mcs) -> float:
    """Shannon threshold of the MCS spectral efficiency plus BLER_MARGIN_DB."""
    return 10.0 * math.log10(2.0 ** mcs.spectral_efficiency - 1.0) + BLER_MARGIN_DB


def bler(snr_eff_db, mcs: Mcs, threshold_db: float | None = None):
    """Logistic block error probability, elementwise over an array of SNRs.

    The curve is 0.5 at ``threshold_db``, by default ``bler_threshold_db(mcs)``.
    """
    if threshold_db is None:
        threshold_db = bler_threshold_db(mcs)
    z = (np.asarray(snr_eff_db, dtype=float) - threshold_db) / BLER_SLOPE_DB
    e = np.exp(-np.abs(z))  # never overflows
    p = np.where(z > 0, e / (1.0 + e), 1.0 / (1.0 + e))
    return float(p) if p.ndim == 0 else p


@dataclass(frozen=True)
class HstLinkParams:
    anchor_snr_db: float = 16.0  # SFN-combined SNR at train position x = 0
    esm_beta: float = 5.0
    bler_threshold_db: float | None = None  # from the MCS when None
    max_harq_retx: int = 3
    cdd_delay_s: float = 1e-6  # applied to every second TRP, at most MAX_CDD_DELAY_S
    overhead_symbols: int = 1

    def __post_init__(self):
        if not -300.0 <= self.anchor_snr_db <= 300.0:  # the noise power is finite and non-zero
            raise ConfigurationError(f"anchor SNR must lie in [-300, 300] dB, got {self.anchor_snr_db}")
        if not self.esm_beta > 0:
            raise ConfigurationError(f"ESM beta must be positive, got {self.esm_beta}")
        if self.max_harq_retx < 0:
            raise ConfigurationError(f"max HARQ retransmissions must be >= 0, got {self.max_harq_retx}")
        if not 0 <= self.cdd_delay_s <= MAX_CDD_DELAY_S:
            raise ConfigurationError(f"CDD delay must lie in [0, {MAX_CDD_DELAY_S:g}] s, got {self.cdd_delay_s} s")


def _link_gains_lin(deployment: Deployment, positions: np.ndarray) -> np.ndarray:
    """Per-slot, per-TRP link power gain (free space x antenna pattern), linear.

    Absolute scale is arbitrary; the SNR anchor fixes the noise power.
    """
    delta, dist = los_geometry(deployment.positions, positions)
    # Boresight is +x, so the azimuth offset is the azimuth. Elevation offset:
    # the depression of the vehicle below the site, minus the downtilt.
    g_db = sector_gain_db(azimuth(delta), -elevation(delta) - deployment.downtilt)
    ref = SPEED_OF_LIGHT / (4.0 * math.pi * CARRIER_HZ)
    return ref**2 * dist ** (-PATHLOSS_EXPONENT) * 10.0 ** (g_db / 10.0)


def _codeblock_slices(n_data_symbols: int, n_codeblocks: int) -> list[slice]:
    bounds = np.linspace(0, n_data_symbols, n_codeblocks + 1).round().astype(int)
    return [slice(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]


def run_hst_sweep(
    deployment: Deployment,
    trajectory: Trajectory,
    scheme: Scheme | str,
    numerology: Numerology,
    mcs: Mcs,
    seed: int,
    params: HstLinkParams | None = None,
) -> list[SlotResult]:
    """Simulate every slot along the trajectory for one transmission scheme.

    The trajectory sample period must equal the slot duration. Each transport
    block occupies one slot per HARQ attempt (up to 1 + max_harq_retx slots).
    """
    try:
        scheme = Scheme(scheme)
    except ValueError as exc:
        raise ConfigurationError(f"unknown scheme: {scheme}") from exc
    params = params or HstLinkParams()
    if abs(trajectory.sample_period - numerology.slot_duration) > 1e-12:
        raise ConfigurationError("trajectory sample period must equal the slot duration")

    gains_lin = _link_gains_lin(deployment, trajectory.position)
    ch = tdl_taps(
        deployment.positions, trajectory.position, trajectory.velocity, PROFILE, CARRIER_HZ, gains_lin,
    )
    n_slots, n_trp = ch.los_delays.shape
    nlos = ~PROFILE.los_flag.astype(bool)
    for k in range(n_trp):
        rng = substream(seed, "hst", scheme.value, "phase", k)
        ch.phases[:, k, nlos] = rng.uniform(0.0, 2.0 * math.pi, (n_slots, int(np.sum(nlos))))
    los = int(np.argmax(PROFILE.los_flag))

    # Noise power from the SNR anchor: SFN-combined power at x = 0.
    noise = float(np.sum(gains_lin[0])) / 10.0 ** (params.anchor_snr_db / 10.0)

    tbs = transport_block_size(numerology, mcs, params.overhead_symbols)
    n_data_symbols = numerology.symbols_per_slot - params.overhead_symbols
    n_cb = max(1, math.ceil(tbs / CODEBLOCK_BITS))
    cb_slices = _codeblock_slices(n_data_symbols, n_cb)

    sym_t_rel = (np.arange(n_data_symbols) + 0.5) * numerology.symbol_duration
    grid = response_grid(PROFILE.delay_ns * 1e-9, sym_t_rel, numerology.subcarrier_freqs(SUBCARRIER_STEP))
    # The TRPs each slot transmits from: DPS serves from the strongest alone.
    trps = np.broadcast_to(np.arange(n_trp), gains_lin.shape)
    if scheme is Scheme.DPS:
        trps = np.argmax(gains_lin, axis=1)[:, None]
    base_delays = ch.los_delays.copy()
    if scheme is Scheme.SFN_CDD:
        base_delays[:, 1::2] += params.cdd_delay_s

    draw = substream(seed, "hst", scheme.value, "bler").uniform(size=(n_slots, n_cb))

    # Channel estimation model. CDD is transmitted with TRP-specific reference
    # signals, so the receiver tracks each TRP (genie estimate, no penalty).
    # The other schemes share one reference signal: the receiver corrects a
    # common frequency offset and tracks the composite channel linearly in
    # time across the slot; whatever varies faster (two opposite Doppler
    # shifts beating against each other) becomes residual estimation error
    # that adds to the noise. This is what separates plain SFN from the
    # Doppler-managed schemes.
    shared_rs = scheme is not Scheme.SFN_CDD
    basis = np.column_stack([np.ones(n_data_symbols), sym_t_rel - np.mean(sym_t_rel)])
    resid_proj = np.eye(n_data_symbols) - basis @ np.linalg.pinv(basis)

    def chunk_sinr(lo: int, hi: int) -> np.ndarray:
        """Per-RE SINR (slots x data symbols x sampled subcarriers) of slots [lo, hi)."""
        idx = (np.arange(lo, hi)[:, None], trps[lo:hi])
        amps, dopplers = ch.amps[idx], ch.dopplers[idx]
        if scheme is Scheme.SFN_PRECOMP:
            dopplers = dopplers - dopplers[:, :, los, None]
        if shared_rs:  # remove the power-weighted common offset; |H| does not change
            dopplers = dopplers - (np.sum(amps**2 * dopplers, (1, 2)) / np.sum(amps**2, (1, 2)))[:, None, None]
        gains = amps * np.exp(1j * ch.phases[idx])
        h = batched_freq_response(gains, base_delays[idx], dopplers, trajectory.t[lo:hi], grid)
        power = h.real**2 + h.imag**2
        if not shared_rs:
            return power / noise
        h = resid_proj @ h.view(float).reshape(len(h), n_data_symbols, -1)  # residual on (re, im) pairs; frees H
        return power / (noise + h[:, :, 0::2] ** 2 + h[:, :, 1::2] ** 2)

    def decode(sinr_rows: np.ndarray, draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Lowest code-block ESM (dB) of each row of per-RE SINR (rows x data symbols
        x subcarriers), and whether all its code blocks decode against ``draws``."""
        eff = np.column_stack([effective_snr(sinr_rows[:, sl].reshape(len(sinr_rows), -1), params.esm_beta)
                               for sl in cb_slices])
        return np.min(eff, axis=1), np.all(draws >= bler(eff, mcs, params.bler_threshold_db), axis=1)

    def slot_outcomes():
        """(first-attempt ESM in dB, HARQ level) per slot, SLOT_CHUNK slots at a
        time. The level is the first attempt that decodes if the slot starts a
        transport block (j: Chase-combined with the next j slots), or -1."""
        sinr = np.empty((0, n_data_symbols, grid.subcarriers[2]))  # rows from slot lo on
        for lo in range(0, n_slots, SLOT_CHUNK):
            hi = min(lo + SLOT_CHUNK, n_slots)
            while lo + len(sinr) < min(hi + params.max_harq_retx, n_slots):  # reach the last candidates
                sinr = np.concatenate([sinr, chunk_sinr(lo + len(sinr), min(lo + len(sinr) + SLOT_CHUNK, n_slots))])
            first_eff, ok = decode(sinr[: hi - lo], draw[lo:hi])
            level, rows, acc = np.where(ok, 0, -1), np.arange(hi - lo), sinr[: hi - lo]
            for j in range(1, params.max_harq_retx + 1):
                keep = ~ok & (lo + rows + j < n_slots)  # undecoded, with a slot for attempt j
                if not keep.any():
                    break
                rows, acc = rows[keep], acc[keep] + sinr[rows[keep] + j]  # Chase combining: SNRs add
                ok = decode(acc, draw[lo + rows + j])[1]
                level[rows[ok]] = j
            yield from zip(first_eff.tolist(), level.tolist())
            sinr = sinr[hi - lo :]

    results: list[SlotResult] = []
    end = 0  # the slot after the last transport block's last attempt
    for start, (first_eff, level) in enumerate(slot_outcomes()):
        if start < end:
            continue  # a retransmission slot of the block before
        attempts = level + 1 if level >= 0 else min(params.max_harq_retx + 1, n_slots - start)
        end = start + attempts
        results.append(SlotResult(start, float(trajectory.position[start, 0]), tbs if level >= 0 else 0, attempts,
                                  first_eff))
    return results


@dataclass(frozen=True)
class PositionBins:
    """Slot results aggregated in position bins; empty bins are dropped."""

    centers_m: np.ndarray
    throughput_bps: np.ndarray  # delivered bits per second of air time
    snr_eff_db: np.ndarray  # mean first-attempt effective SNR
    harq_attempts: np.ndarray  # mean slots per transport block


def bin_index(xs: np.ndarray, bin_m: float) -> np.ndarray:
    """The bin of each train position; ``ConfigurationError`` unless every index is exact."""
    if not bin_m > 0:
        raise ConfigurationError(f"bin size must be positive, got {bin_m}")
    idx = np.floor(xs / bin_m)
    if not np.all(np.abs(idx) < 2.0**53):  # beyond it a float bin index is no longer exact
        raise ConfigurationError(f"bin size {bin_m:g} m is too small for positions up to {np.max(np.abs(xs)):g} m")
    return idx


def bin_by_position(results: list[SlotResult], bin_m: float, slot_duration: float) -> PositionBins:
    """Aggregate slot results in bins of ``bin_m`` metres of train position."""
    if not results:
        raise ConfigurationError("no slot results")
    xs = np.array([r.train_x for r in results])
    bits = np.array([r.delivered_bits for r in results], dtype=float)
    slots = np.array([r.harq_attempts_used for r in results], dtype=float)
    snrs = np.array([r.effective_snr_db for r in results])
    idx = bin_index(xs, bin_m)
    rows = []
    for b in np.unique(idx):
        sel = idx == b
        rows.append((
            (b + 0.5) * bin_m,
            np.sum(bits[sel]) / (np.sum(slots[sel]) * slot_duration),
            np.mean(snrs[sel]),
            np.mean(slots[sel]),
        ))
    return PositionBins(*(np.array(col) for col in zip(*rows)))

