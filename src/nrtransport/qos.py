"""Throughput-prediction error over delivered-bits traces.

The error metric is |B_delivered - B_predicted| / dt in bits per second,
evaluated for pluggable baseline predictors over sliding windows at several
horizons; the study summarizes each horizon as an empirical CDF
(``positioning.empirical_cdf``).

A trace keeps the cumulative bits at its epoch boundaries. Between two
boundaries the cumulative curve is linear, so the bits delivered in
[t, t + dt] are the difference of the curve at t + dt and at t: whole epochs
count fully and a partially covered epoch counts in proportion to its
overlap. Every predictor is then a few array operations over all start times
of a horizon at once; ar1 is one recursion along each chain of start times
dt apart, so its cost grows linearly with the trace, not quadratically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

# Largest number of windows a predictor sums in one window_bits call, which
# bounds its memory: ar1 walks its chains in calls of at most this many
# windows, and a horizon whose longest ar1 chain, or whose moving-average
# (ma_windows x starts) table, is larger is rejected before allocating.
_WINDOW_CELLS = 1 << 20


@dataclass(frozen=True)
class ThroughputTrace:
    """Delivered bits per uniform epoch, with their cumulative curve.

    ``cumulative_bits[k]`` is the sum of the first ``k`` epochs (k = 0..N).
    """

    epoch_s: float
    delivered_bits: np.ndarray
    cumulative_bits: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bits = np.asarray(self.delivered_bits, dtype=float)
        object.__setattr__(self, "delivered_bits", bits)
        if not (self.epoch_s > 0 and math.isfinite(self.epoch_s)):
            raise ConfigurationError("epoch duration must be positive and finite")
        if bits.ndim != 1 or len(bits) == 0:
            raise ConfigurationError("delivered bits must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(bits)) or np.any(bits < 0):
            raise ConfigurationError("delivered bits must be finite and non-negative")
        object.__setattr__(self, "cumulative_bits", np.concatenate(([0.0], np.cumsum(bits))))

    @property
    def duration(self) -> float:
        return len(self.delivered_bits) * self.epoch_s

    @classmethod
    def from_csv(cls, path) -> "ThroughputTrace":
        """Read ``epoch_s,delivered_bits`` rows; every row has the same epoch."""
        try:
            data = np.genfromtxt(path, delimiter=",", names=True, ndmin=1)
        except ValueError as exc:  # genfromtxt reports bad rows over several lines
            raise ConfigurationError(f"{path}: {' '.join(str(exc).split())}") from None
        if data.dtype.names is None or set(data.dtype.names) != {"epoch_s", "delivered_bits"}:
            raise ConfigurationError(f"{path}: trace CSV needs header: epoch_s, delivered_bits")
        epochs = data["epoch_s"]
        if len(epochs) == 0:
            raise ConfigurationError(f"{path}: trace CSV has no data rows")
        if np.any(epochs != epochs[0]):
            raise ConfigurationError(f"{path}: epoch_s differs between rows")
        try:
            return cls(epoch_s=float(epochs[0]), delivered_bits=data["delivered_bits"])
        except ConfigurationError as exc:
            raise ConfigurationError(f"{path}: {exc}") from None


def window_bits(trace: ThroughputTrace, t, dt: float):
    """Bits delivered in [t, t + dt]: the cumulative curve at t + dt minus at t.

    ``t`` is one start time (the result is a float) or an array of them (the
    result has its shape). The difference is summed as the whole epochs
    between the two ends plus the covered part of each end epoch, so every
    term is non-negative and no large cumulative value cancels.
    """
    if not dt > 0:
        raise ConfigurationError("window length must be positive")
    t = np.asarray(t, dtype=float)
    if t.size and not (t.min() >= -1e-12 and t.max() + dt <= trace.duration + 1e-9):
        raise ConfigurationError("window outside the trace")
    bits, cum = trace.delivered_bits, trace.cumulative_bits
    last = len(bits) - 1
    lo = np.clip(t / trace.epoch_s, 0.0, last + 1.0)
    hi = np.clip((t + dt) / trace.epoch_s, 0.0, last + 1.0)
    i = np.minimum(lo.astype(np.intp), last)
    k = np.minimum(hi.astype(np.intp), last)
    f_lo, f_hi = lo - i, hi - k
    spans = cum[k] - cum[i + 1] + (1.0 - f_lo) * bits[i] + f_hi * bits[k]
    total = np.where(k > i, spans, (f_hi - f_lo) * bits[i])
    return float(total) if total.ndim == 0 else total


def prediction_error(b_delivered, b_predicted, horizon_s: float):
    """e' = |delivered - predicted| / horizon in bits per second, elementwise
    over bit counts of one horizon."""
    if not horizon_s > 0:
        raise ConfigurationError("horizon must be positive")
    delivered = np.asarray(b_delivered, dtype=float)
    predicted = np.asarray(b_predicted, dtype=float)
    if np.any(delivered < 0) or np.any(predicted < 0):
        raise ConfigurationError("bit counts must be non-negative")
    return np.abs(delivered - predicted) / horizon_s


PREDICTORS = ("last_window", "moving_average", "ar1")


def _ar1(trace: ThroughputTrace, starts: np.ndarray, dt: float, lam: float) -> np.ndarray:
    """ar1 predictions: pred(t) = lam W(t - dt) + (1 - lam) pred(t - dt), where
    W(s) is the window [s, s + dt], down to pred(t) = W(t - dt) when n = 1.

    A start t uses its n = floor(t / dt) trailing windows, the first of which
    begins at its phase t - n dt. Starts whose phases agree to float noise
    share one chain of windows, and the recursion runs along all chains at once.
    """
    n = np.maximum(1, np.floor((starts + 1e-9) / dt)).astype(np.intp)
    if n.max() > _WINDOW_CELLS:
        raise ConfigurationError(
            f"ar1 at horizon {dt:g} s needs a chain of {n.max():,} windows, more than {_WINDOW_CELLS:,}"
        )
    phase = starts - n * dt
    order = np.argsort(phase, kind="stable")
    split = np.diff(phase[order]) > 1e-12 * trace.duration
    chain = np.empty(len(starts), np.intp)
    chain[order] = np.concatenate(([0], np.cumsum(split)))
    heads = phase[order][np.concatenate(([True], split))]
    length = np.zeros(len(heads), np.intp)
    np.maximum.at(length, chain, n)
    lag = np.arange(length.max())[:, None]

    pred = np.empty(len(starts))
    per_call = _WINDOW_CELLS // len(lag)
    for c0 in range(0, len(heads), per_call):
        c1 = c0 + per_call
        inside = lag < length[c0:c1]
        walk = np.zeros(inside.shape)
        walk[inside] = window_bits(trace, (heads[c0:c1] + lag * dt)[inside], dt)
        for j in range(1, len(walk)):
            walk[j] = lam * walk[j] + (1.0 - lam) * walk[j - 1]
        mine = (chain >= c0) & (chain < c1)
        pred[mine] = walk[n[mine] - 1, chain[mine] - c0]
    return pred


def _predictions(
    trace: ThroughputTrace,
    starts: np.ndarray,
    dt: float,
    method: str,
    ma_windows: int,
    ar1_lambda: float,
) -> np.ndarray:
    """Predicted bits for the windows [t, t + dt] at every start t, from history before t."""
    if not dt > 0:
        raise ConfigurationError("window length must be positive")
    if method not in PREDICTORS:
        raise ConfigurationError(f"unknown predictor: {method}")
    if method == "moving_average" and ma_windows < 1:
        raise ConfigurationError("moving_average needs k >= 1")
    if method == "ar1" and not 0.0 < ar1_lambda <= 1.0:
        raise ConfigurationError("ar1 lambda must lie in (0, 1]")
    lags = ma_windows if method == "moving_average" else 1
    if starts.size and starts.min() - lags * dt < -1e-9:
        raise ConfigurationError(f"insufficient history for {method}")
    if method == "ar1":
        return _ar1(trace, starts, dt, ar1_lambda) if starts.size else np.zeros(0)
    if method == "moving_average" and lags * starts.size > _WINDOW_CELLS:
        raise ConfigurationError(
            f"moving_average at horizon {dt:g} s needs {lags:,} x {starts.size:,} windows, more than {_WINDOW_CELLS:,}"
        )
    trailing = starts - np.arange(1, lags + 1)[:, None] * dt
    return np.mean(window_bits(trace, trailing, dt), axis=0)


def predict(
    trace: ThroughputTrace,
    t: float,
    dt: float,
    method: str = "last_window",
    *,
    ma_windows: int = 4,
    ar1_lambda: float = 0.5,
) -> float:
    """Predicted bits for the window [t, t + dt] from history before t."""
    return float(_predictions(trace, np.array([float(t)]), dt, method, ma_windows, ar1_lambda)[0])


def horizon_errors(
    trace: ThroughputTrace,
    horizon_s: float,
    method: str = "last_window",
    *,
    step_s: float | None = None,
    min_windows: int = 100,
    ma_windows: int = 4,
    ar1_lambda: float = 0.5,
) -> np.ndarray:
    """Prediction-error samples over sliding windows for one horizon."""
    if not horizon_s > 0:
        raise ConfigurationError("horizon must be positive")
    history = ma_windows * horizon_s if method == "moving_average" else horizon_s
    step = step_s if step_s is not None else max(trace.epoch_s, horizon_s / 10.0)
    starts = np.arange(history, trace.duration - horizon_s + 1e-9, step)
    if len(starts) < min_windows:
        raise ConfigurationError(
            f"only {len(starts)} evaluable windows at horizon {horizon_s}s; need {min_windows}"
        )
    predicted = _predictions(trace, starts, horizon_s, method, ma_windows, ar1_lambda)
    return prediction_error(window_bits(trace, starts, horizon_s), predicted, horizon_s)

