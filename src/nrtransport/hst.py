"""Multi-TRP downlink throughput versus train position.

Schemes: single-frequency network (SFN), SFN with per-TRP cyclic delay
diversity, SFN with genie Doppler precompensation, and dynamic point switching
(genie TRP selection). The physical layer is abstracted: per-resource-element
SINR -> exponential effective-SNR mapping per code block -> logistic block
error curve, with Chase-combining HARQ modeled as linear SNR accumulation.

The taps of every slot and TRP come from the one tapped-delay-line builder,
``channel.tdl_taps``; the sweep adds only the non-LoS phases. The sweep is
evaluated in fixed chunks of slots: per chunk, one batched frequency response
(``channel.batched_freq_response``) gives the per-RE SINR of every slot, and
the first attempt's ESM, BLER and pass/fail flags of every code block are
computed at once. Only Chase-combining retransmissions, which depend on
earlier outcomes, are evaluated slot by slot as the transport blocks are
walked in order.
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
    sector_gain_db,
    tdl_taps,
)
from .errors import ConfigurationError
from .rng import substream
from .scenario import Deployment, Trajectory

# Slots evaluated per batched chunk. At the default grid (13 data symbols x 50
# sampled subcarriers, 10.4 kB per slot) each complex chunk array stays under
# about 0.5 MB, so memory does not grow with the length of the sweep.
SLOT_CHUNK = 32

CARRIER_HZ = 2e9
PATHLOSS_EXPONENT = 2.5
PROFILE = default_rail_profile()
CODEBLOCK_BITS = 8448  # max code block size; sets TB segmentation
SUBCARRIER_STEP = 12  # SINR sampled once per RB in the sweep
BLER_MARGIN_DB = 2.0  # BLER threshold above the Shannon limit of the MCS
BLER_SLOPE_DB = 0.5


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


def _esm_db(sinr_rows: np.ndarray, beta: float) -> np.ndarray:
    """Exponential effective-SNR mapping of each row of REs, in dB."""
    means = np.mean(np.exp(-sinr_rows / beta), axis=-1)
    snrs = [-beta * math.log(m) if m and abs(m - 1.0) >= 1e-3 else None for m in means.tolist()]
    if None in snrs:
        for i in [i for i, snr in enumerate(snrs) if snr is None]:
            row = sinr_rows[i]
            if means[i] == 0.0:  # every exp(-g/beta) underflowed: shift by the row's g_min
                g_min = float(np.min(row))
                snrs[i] = g_min - beta * math.log(float(np.mean(np.exp(-(row - g_min) / beta))))
            else:  # the mean is so near 1 that log(mean) would lose a tiny SNR
                snrs[i] = -beta * math.log1p(float(np.mean(np.expm1(-row / beta))))
    return np.array([10.0 * math.log10(max(snr, 1e-300)) for snr in snrs])


def effective_snr(sinr_linear, beta: float = 1.0) -> float:
    """Exponential effective-SNR mapping over resource elements, in dB."""
    g = np.asarray(sinr_linear, dtype=float).ravel()
    if g.size == 0:
        raise ConfigurationError("empty SINR set")
    return float(_esm_db(g[None, :], beta)[0])


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
    cdd_delay_s: float = 1e-6  # applied to every second TRP
    overhead_symbols: int = 1

    def __post_init__(self):
        if not self.esm_beta > 0:
            raise ConfigurationError(f"ESM beta must be positive, got {self.esm_beta}")
        if self.max_harq_retx < 0:
            raise ConfigurationError(f"max HARQ retransmissions must be >= 0, got {self.max_harq_retx}")
        if not self.cdd_delay_s >= 0:
            raise ConfigurationError(f"CDD delay must be >= 0, got {self.cdd_delay_s} s")


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
    n_slots, n_trp, _ = ch.delays.shape
    nlos = ~PROFILE.los_flag.astype(bool)
    if np.any(nlos):
        for k in range(n_trp):
            rng = substream(seed, "hst", scheme.value, "phase", k)
            ch.phases[:, k, nlos] = rng.uniform(0.0, 2.0 * math.pi, (n_slots, int(np.sum(nlos))))
    los_dopplers = ch.dopplers[:, :, int(np.argmax(PROFILE.los_flag))]

    # Noise power from the SNR anchor: SFN-combined power at x = 0.
    noise = float(np.sum(gains_lin[0])) / 10.0 ** (params.anchor_snr_db / 10.0)

    tbs = transport_block_size(numerology, mcs, params.overhead_symbols)
    n_data_symbols = numerology.symbols_per_slot - params.overhead_symbols
    n_cb = max(1, math.ceil(tbs / CODEBLOCK_BITS))
    cb_slices = _codeblock_slices(n_data_symbols, n_cb)

    sym_t_rel = (np.arange(n_data_symbols) + 0.5) * numerology.symbol_duration
    freqs = numerology.subcarrier_freqs(SUBCARRIER_STEP)
    best_trp = np.argmax(gains_lin, axis=1)[:, None, None]

    cdd = np.zeros(n_trp)
    if scheme is Scheme.SFN_CDD:
        cdd[1::2] = params.cdd_delay_s

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
    tt = sym_t_rel - np.mean(sym_t_rel)
    basis = np.column_stack([np.ones(n_data_symbols), tt])
    resid_proj = np.eye(n_data_symbols) - basis @ np.linalg.pinv(basis)

    def chunk_sinr(lo: int, hi: int) -> np.ndarray:
        """Per-RE SINR (slots x data symbols x sampled subcarriers) of slots [lo, hi)."""
        taps = [ch.amps[lo:hi], ch.phases[lo:hi], ch.delays[lo:hi], ch.dopplers[lo:hi]]
        if scheme is Scheme.DPS:
            taps = [np.take_along_axis(a, best_trp[lo:hi], axis=1) for a in taps]
        amps, phases, delays, dopplers = taps
        if scheme is Scheme.SFN_PRECOMP:
            dopplers = dopplers - los_dopplers[lo:hi, :, None]
        if scheme is Scheme.SFN_CDD:
            delays = delays + cdd[:, None]
        t_abs = trajectory.t[lo:hi, None] + sym_t_rel
        h = batched_freq_response(amps * np.exp(1j * phases), delays, dopplers, t_abs, freqs)
        if not shared_rs:
            return (np.abs(h) ** 2) / noise
        # Power-weighted common frequency offset, accumulated TRP by TRP.
        w = amps**2
        p_tot = np.zeros(hi - lo)
        nu_acc = np.zeros(hi - lo)
        for k in range(w.shape[1]):
            p_tot = p_tot + np.sum(w[:, k], axis=-1)
            nu_acc = nu_acc + np.sum(w[:, k] * dopplers[:, k], axis=-1)
        nu_hat = nu_acc / p_tot
        detrended = h * np.exp(-2j * math.pi * nu_hat[:, None] * t_abs)[:, :, None]
        est_err = np.abs(resid_proj @ detrended) ** 2
        return (np.abs(h) ** 2) / (noise + est_err)

    def slot_stream():
        """(per-RE SINR, first-attempt ESM in dB, first-attempt success) per
        slot, evaluated SLOT_CHUNK slots at a time."""
        for lo in range(0, n_slots, SLOT_CHUNK):
            hi = min(lo + SLOT_CHUNK, n_slots)
            sinr = chunk_sinr(lo, hi)
            first_eff = np.full(hi - lo, np.inf)
            failed = np.zeros(hi - lo, dtype=bool)
            for ci, sl in enumerate(cb_slices):
                eff = _esm_db(sinr[:, sl, :].reshape(hi - lo, -1), params.esm_beta)
                first_eff = np.minimum(first_eff, eff)
                failed |= draw[lo:hi, ci] < bler(eff, mcs, params.bler_threshold_db)
            yield from zip(sinr, first_eff.tolist(), (~failed).tolist())

    def decoded(acc: np.ndarray, s: int) -> bool:
        return all(
            draw[s, ci] >= bler(effective_snr(acc[sl], params.esm_beta), mcs, params.bler_threshold_db)
            for ci, sl in enumerate(cb_slices)
        )

    slots = enumerate(slot_stream())
    results: list[SlotResult] = []
    for start, (acc, first_eff, ok) in slots:
        attempts = 1
        while not ok and attempts <= params.max_harq_retx:
            retx = next(slots, None)
            if retx is None:
                break
            s, (sinr, _, _) = retx
            attempts += 1
            acc = acc + sinr  # Chase combining: linear SNR accumulation
            ok = decoded(acc, s)
        results.append(
            SlotResult(
                slot_index=start,
                train_x=float(trajectory.position[start, 0]),
                delivered_bits=tbs if ok else 0,
                harq_attempts_used=attempts,
                effective_snr_db=first_eff,
            )
        )
    return results


@dataclass(frozen=True)
class PositionBins:
    """Slot results aggregated in position bins; empty bins are dropped."""

    centers_m: np.ndarray
    throughput_bps: np.ndarray  # delivered bits per second of air time
    snr_eff_db: np.ndarray  # mean first-attempt effective SNR
    harq_attempts: np.ndarray  # mean slots per transport block


def bin_by_position(results: list[SlotResult], bin_m: float, slot_duration: float) -> PositionBins:
    """Aggregate slot results in bins of ``bin_m`` metres of train position."""
    if not bin_m > 0:
        raise ConfigurationError(f"bin size must be positive, got {bin_m}")
    if not results:
        raise ConfigurationError("no slot results")
    xs = np.array([r.train_x for r in results])
    bits = np.array([r.delivered_bits for r in results], dtype=float)
    slots = np.array([r.harq_attempts_used for r in results], dtype=float)
    snrs = np.array([r.effective_snr_db for r in results])
    idx = np.floor(xs / bin_m).astype(int)
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

