"""Throughput-prediction error metric and baseline predictors."""

import math

import numpy as np
import pytest

from nrtransport import (
    ThroughputTrace,
    empirical_cdf,
    horizon_errors,
    predict,
    prediction_error,
    window_bits,
)
from nrtransport.errors import ConfigurationError
from nrtransport.rng import substream


def test_window_bits_constant_trace():
    trace = ThroughputTrace(1.0, np.full(100, 1000.0))
    assert window_bits(trace, 10.0, 5.0) == pytest.approx(5000.0, abs=1e-12)
    assert window_bits(trace, 3.0, 2.5) == pytest.approx(2500.0, abs=1e-12)


def test_window_bits_empty_window():
    trace = ThroughputTrace(1.0, np.zeros(10))
    assert window_bits(trace, 2.0, 3.0) == 0.0


def test_window_bits_fractional_epochs():
    trace = ThroughputTrace(1.0, np.array([100.0, 200.0, 400.0]))
    # [0.5, 1.5] takes half of epoch 0 and half of epoch 1.
    assert window_bits(trace, 0.5, 1.0) == pytest.approx(150.0, abs=1e-12)
    with pytest.raises(ConfigurationError):
        window_bits(trace, 2.5, 1.0)  # runs past the trace end
    with pytest.raises(ConfigurationError):
        window_bits(trace, 0.0, -1.0)


def test_prediction_error_arithmetic():
    assert prediction_error(1e6, 8e5, 0.1) == pytest.approx(2e6, abs=1e-12)
    assert prediction_error(5.0, 5.0, 1.0) == 0.0
    # Zero prediction against constant rate R gives e' = R.
    rate = 3e6
    assert prediction_error(rate * 2.0, 0.0, 2.0) == pytest.approx(rate, abs=1e-12)
    with pytest.raises(ConfigurationError, match="horizon must be positive"):
        prediction_error(1.0, 1.0, 0.0)
    with pytest.raises(ConfigurationError, match="non-negative"):
        prediction_error(np.array([1.0, 2.0]), np.array([1.0, -2.0]), 1.0)


def test_error_symmetry_and_homogeneity():
    a = prediction_error(4.0, 10.0, 0.5)
    assert a == prediction_error(10.0, 4.0, 0.5)
    assert prediction_error(12.0, 30.0, 0.5) == pytest.approx(3 * a, abs=1e-12)


@pytest.mark.parametrize("method", ["last_window", "moving_average", "ar1"])
def test_horizon_errors_are_prediction_error_over_the_windows(method):
    # Elementwise over arrays, prediction_error gives every window's e' as
    # horizon_errors does for its starts (to float noise: ar1 shares one chain
    # of windows among starts whose phases agree to 1e-12 of the trace).
    rng = np.random.default_rng(27)
    trace = ThroughputTrace(0.1, rng.uniform(0.0, 1e6, 300))
    dt, step = 0.5, 0.1
    history = 4 * dt if method == "moving_average" else dt
    starts = np.arange(history, trace.duration - dt + 1e-9, step)
    predicted = np.array([predict(trace, float(t), dt, method) for t in starts])
    got = horizon_errors(trace, dt, method, min_windows=10)
    want = prediction_error(window_bits(trace, starts, dt), predicted, dt)
    assert got.shape == want.shape == starts.shape
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * 1e7)  # rates up to 1e7 bit/s


def test_constant_trace_all_predictors_exact():
    trace = ThroughputTrace(0.5, np.full(400, 250.0))
    for method in ("last_window", "moving_average", "ar1"):
        errs = horizon_errors(trace, 2.0, method, min_windows=10)
        assert np.max(errs) < 1e-12


def test_step_trace_last_window_error_equals_rate_jump():
    # Rate doubles at t0: predicting the first post-step window from the last
    # pre-step window misses by exactly R (the per-second increment).
    epoch = 1.0
    rate = 1000.0
    bits = np.concatenate([np.full(50, rate), np.full(50, 2 * rate)])
    trace = ThroughputTrace(epoch, bits)
    t0 = 50.0
    dt = 5.0
    pred = predict(trace, t0, dt, "last_window")
    delivered = window_bits(trace, t0, dt)
    e = prediction_error(delivered, pred, dt)
    assert e == pytest.approx(rate, abs=1e-9)


def test_ar1_with_unit_lambda_degenerates_to_last_window():
    rng = substream(5, "qos")
    trace = ThroughputTrace(0.1, rng.uniform(0, 1e5, 500))
    for t in (1.3, 7.7, 40.0):
        lw = predict(trace, t, 0.5, "last_window")
        ar = predict(trace, t, 0.5, "ar1", ar1_lambda=1.0)
        assert ar == pytest.approx(lw, abs=1e-9)


def test_moving_average_is_mean_of_trailing_windows():
    trace = ThroughputTrace(1.0, np.arange(100, dtype=float))
    t, dt = 20.0, 2.0
    manual = np.mean([window_bits(trace, t - (i + 1) * dt, dt) for i in range(4)])
    assert predict(trace, t, dt, "moving_average", ma_windows=4) == pytest.approx(manual)
    with pytest.raises(ConfigurationError):
        predict(trace, 1.0, 2.0, "moving_average", ma_windows=4)  # not enough history
    with pytest.raises(ConfigurationError):
        predict(trace, 20.0, 2.0, "nope")


def test_error_bounded_by_max_bits_over_horizon():
    rng = substream(6, "qos")
    trace = ThroughputTrace(0.2, rng.uniform(0, 1e6, 400))
    for t in np.linspace(2.0, 70.0, 15):
        dt = 1.0
        pred = predict(trace, float(t), dt, "last_window")
        deliv = window_bits(trace, float(t), dt)
        e = prediction_error(deliv, pred, dt)
        assert 0.0 <= e <= max(pred, deliv) / dt + 1e-9


def test_cdf_invariant_to_whole_epoch_origin_shift():
    rng = substream(8, "qos")
    bits = rng.uniform(0, 1e5, 600)
    t1 = ThroughputTrace(0.5, bits)
    t2 = ThroughputTrace(0.5, np.roll(bits, 0))  # same trace, same origin
    c1 = empirical_cdf(horizon_errors(t1, 2.0, "last_window"))
    c2 = empirical_cdf(horizon_errors(t2, 2.0, "last_window"))
    assert np.array_equal(c1.errors, c2.errors)


def test_iid_trace_error_scales_with_inverse_sqrt_horizon():
    # On white-noise delivered bits the last-window error behaves like a CLT
    # sum: median e' drops by sqrt(10) across one decade of horizons.
    rng = np.random.default_rng(3)
    trace = ThroughputTrace(0.05, rng.uniform(1e5, 3e5, 120_000))
    m_short = np.median(horizon_errors(trace, 0.5, "last_window", step_s=0.5))
    m_long = np.median(horizon_errors(trace, 5.0, "last_window", step_s=5.0))
    assert abs(m_short / m_long - math.sqrt(10.0)) / math.sqrt(10.0) < 0.2


def test_trace_csv_round_trip(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("epoch_s,delivered_bits\n0.05,100\n0.05,0\n0.05,250\n")
    loaded = ThroughputTrace.from_csv(path)
    assert loaded.epoch_s == 0.05
    assert np.array_equal(loaded.delivered_bits, [100.0, 0.0, 250.0])
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(ConfigurationError):
        ThroughputTrace.from_csv(bad)


def test_trace_validation():
    with pytest.raises(ConfigurationError):
        ThroughputTrace(0.0, np.ones(5))
    with pytest.raises(ConfigurationError):
        ThroughputTrace(1.0, np.array([1.0, -2.0]))
    with pytest.raises(ConfigurationError):
        horizon_errors(ThroughputTrace(1.0, np.ones(5)), 1.0, min_windows=100)


# ---------------------------------------------------------------------------
# Differential test: the per-window loop the vectorised predictors replaced,
# kept here as the reference.


def _loop_window_bits(trace, t, dt):
    e = trace.epoch_s
    lo, hi = t / e, (t + dt) / e
    total = 0.0
    for i in range(max(int(math.floor(lo)), 0), min(int(math.ceil(hi)), len(trace.delivered_bits))):
        total += trace.delivered_bits[i] * max(min(hi, i + 1) - max(lo, i), 0.0)
    return total


def _loop_predict(trace, t, dt, method, ma_windows, ar1_lambda):
    if method == "last_window":
        return _loop_window_bits(trace, t - dt, dt)
    if method == "moving_average":
        return float(np.mean([_loop_window_bits(trace, t - (i + 1) * dt, dt) for i in range(ma_windows)]))
    n = max(1, int(math.floor((t + 1e-9) / dt)))
    pred = _loop_window_bits(trace, t - n * dt, dt)
    for i in range(n - 1, 0, -1):
        pred = ar1_lambda * _loop_window_bits(trace, t - i * dt, dt) + (1.0 - ar1_lambda) * pred
    return pred


def _loop_horizon_errors(trace, dt, method, step_s, ma_windows, ar1_lambda):
    history = ma_windows * dt if method == "moving_average" else dt
    step = step_s if step_s is not None else max(trace.epoch_s, dt / 10.0)
    starts = np.arange(history, trace.duration - dt + 1e-9, step)
    return np.array([
        abs(_loop_window_bits(trace, float(t), dt)
            - _loop_predict(trace, float(t), dt, method, ma_windows, ar1_lambda)) / dt
        for t in starts
    ])


DIFFERENTIAL_CASES = [
    # (seed, epoch_s, epochs, horizon_s, step_s)
    (21, 0.05, 400, 0.1, None),   # whole epochs per horizon
    (22, 0.1, 300, 0.25, None),   # fractional epoch/horizon ratio
    (23, 0.1, 300, 0.37, 0.05),   # step finer than an epoch
    (24, 0.2, 250, 1.0, 0.3),     # step that does not divide the horizon
    (25, 0.05, 600, 0.7, 0.07),   # step and horizon both off the epoch grid
]


@pytest.mark.parametrize("seed,epoch_s,epochs,horizon_s,step_s", DIFFERENTIAL_CASES)
def test_vectorised_predictors_match_per_window_loop(seed, epoch_s, epochs, horizon_s, step_s):
    rng = np.random.default_rng(seed)
    trace = ThroughputTrace(epoch_s, rng.uniform(0.0, 1e6, epochs))
    settings = [("last_window", {}), ("moving_average", {"ma_windows": 1}),
                ("moving_average", {"ma_windows": 4})]
    settings += [("ar1", {"ar1_lambda": lam}) for lam in (0.05, 0.5, 0.9, 1.0)]
    for method, kw in settings:
        want = _loop_horizon_errors(trace, horizon_s, method, step_s,
                                    kw.get("ma_windows", 4), kw.get("ar1_lambda", 0.5))
        got = horizon_errors(trace, horizon_s, method, step_s=step_s, min_windows=10, **kw)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0, err_msg=f"{method} {kw}")
        t = float(trace.duration - horizon_s - 0.123)
        np.testing.assert_allclose(
            predict(trace, t, horizon_s, method, **kw),
            _loop_predict(trace, t, horizon_s, method,
                          kw.get("ma_windows", 4), kw.get("ar1_lambda", 0.5)),
            rtol=1e-9, atol=0)


def test_window_bits_matches_loop_on_arrays():
    rng = np.random.default_rng(26)
    trace = ThroughputTrace(0.1, rng.uniform(0.0, 1e6, 200))
    starts = rng.uniform(0.0, trace.duration - 0.73, 500)
    want = [_loop_window_bits(trace, float(t), 0.73) for t in starts]
    np.testing.assert_allclose(window_bits(trace, starts, 0.73), want, rtol=1e-9, atol=0)
    assert window_bits(trace, starts[:1], 0.73).shape == (1,)
    assert isinstance(window_bits(trace, float(starts[0]), 0.73), float)


@pytest.mark.parametrize("method", ["last_window", "moving_average", "ar1"])
def test_constant_trace_zero_error_at_fractional_horizon(method):
    # A constant rate makes every window of one length carry the same bits,
    # so every predictor is exact up to float rounding of the overlaps.
    rate = 2e6
    trace = ThroughputTrace(0.1, np.full(500, rate * 0.1))
    errs = horizon_errors(trace, 0.37, method, step_s=0.13, min_windows=100)
    assert np.max(errs) <= 1e-12 * rate


def test_prediction_checks_raise_configuration_error():
    trace = ThroughputTrace(0.1, np.ones(100))
    with pytest.raises(ConfigurationError, match="lambda"):
        horizon_errors(trace, 0.5, "ar1", ar1_lambda=0.0, min_windows=1)
    with pytest.raises(ConfigurationError, match="lambda"):
        predict(trace, 5.0, 0.5, "ar1", ar1_lambda=1.5)
    with pytest.raises(ConfigurationError, match="insufficient history"):
        predict(trace, 0.3, 0.5, "ar1")
    with pytest.raises(ConfigurationError, match="insufficient history"):
        predict(trace, 0.3, 0.5, "last_window")
    with pytest.raises(ConfigurationError, match="k >= 1"):
        horizon_errors(trace, 0.5, "moving_average", ma_windows=0, min_windows=1)
    with pytest.raises(ConfigurationError, match="horizon must be positive"):
        horizon_errors(trace, 0.0)
    with pytest.raises(ConfigurationError, match="window length must be positive"):
        predict(trace, 5.0, -0.5)
    with pytest.raises(ConfigurationError, match="outside the trace"):
        window_bits(trace, np.array([1.0, 9.8]), 0.5)
    with pytest.raises(ConfigurationError, match="unknown predictor"):
        horizon_errors(trace, 0.5, "oracle", min_windows=1)
