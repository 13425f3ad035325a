"""End-to-end study execution: configs in, CSVs + SVG plots + manifest out.

Each study builds its scenario from the validated config, runs the simulation,
and renders rows deterministically, so identical (config, seed) always yields
byte-identical outputs. Replications and per-parameter tasks may fan out to a
process pool; every task derives its randomness from counter-based substreams,
so the worker count never changes the numbers.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from . import hst, positioning, qos, scheduler
from .config import SCHEMAS, RunConfig
from .errors import ConfigurationError
from .scenario import (
    KMH,
    build_linear_deployment,
    build_rail_deployment,
    linear_trajectory,
    snake_trajectory,
)
from .svgplot import Series, line_plot

VERSION = "0.1.0"


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv(header: tuple[str, ...], rows: list[tuple]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _map_tasks(fn, tasks, workers: int) -> list[tuple]:
    """The rows of every task, in task order, from a pool no wider than the
    task list (the fork start method starts every worker at once)."""
    if workers <= 1 or len(tasks) <= 1:
        chunks = [fn(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            chunks = list(pool.map(fn, tasks))
    return [row for chunk in chunks for row in chunk]


@dataclass(frozen=True)
class StudySpec:
    """How one study's result rows become its CSV and its SVG plot.

    The plot has one series per distinct value of the ``keys`` columns, in
    order of first appearance, named by ``label`` over the key values as the
    CSV writes them. Each series is drawn in order of its ``x`` column; with
    no ``y`` column it is the empirical CDF of ``x``.
    """

    csv: str
    svg: str
    header: tuple[str, ...]
    keys: tuple[str, ...]
    label: Callable[..., str]
    x: str
    y: str | None
    title: str
    xlabel: str
    ylabel: str


STUDY_SPECS = {
    "positioning": StudySpec(
        "positioning.csv", "positioning_cdf.svg",
        ("t", "truth_x", "truth_y", "est_x", "est_y", "err_m", "method", "nb_fused_bs", "snr_db"),
        keys=("method", "snr_db"), label="{} SNR {} dB".format, x="err_m", y=None,
        title="Horizontal positioning error CDF", xlabel="error (m)", ylabel="P(error <= x)",
    ),
    "hst": StudySpec(
        "hst.csv", "hst_throughput.svg",
        ("scheme", "train_x_m", "throughput_mbps", "snr_eff_db", "harq_attempts"),
        keys=("scheme",), label=str, x="train_x_m", y="throughput_mbps",
        title="Downlink throughput vs train position",
        xlabel="train position (m)", ylabel="throughput (Mbps)",
    ),
    "scheduler": StudySpec(
        "scheduler.csv", "scheduler_tput.svg",
        ("density_mbps_km2", "drop_fraction", "mean_user_tput_mbps",
         "coverage_fraction", "median_file_time_s"),
        keys=("drop_fraction",), label=lambda rho: f"drop {int(round(float(rho) * 100))}%",
        x="density_mbps_km2", y="mean_user_tput_mbps",
        title="Mean user throughput vs traffic density",
        xlabel="traffic density (Mbps/km^2)", ylabel="mean user throughput (Mbps)",
    ),
    "qos": StudySpec(
        "qos.csv", "qos_cdf.svg",
        ("horizon_s", "method", "e_prime_bps", "cdf_p"),
        keys=("horizon_s",), label="horizon {} s".format, x="e_prime_bps", y="cdf_p",
        title="Throughput prediction error CDF", xlabel="e' (bit/s)", ylabel="P(e' <= x)",
    ),
}


def _svg(spec: StudySpec, rows) -> str:
    """The study's plot of its rows: tuples from a run, or cell strings from its CSV."""
    col = spec.header.index
    keys, xi = [col(k) for k in spec.keys], col(spec.x)
    groups: dict[tuple, list] = {}
    for row in rows:
        groups.setdefault(tuple([_fmt(row[i]) for i in keys]), []).append(row)
    series = []
    for key, sel in groups.items():
        x = np.array([float(r[xi]) for r in sel])
        if spec.y is None:
            cdf = positioning.empirical_cdf(x)
            x, y = cdf.errors, cdf.probabilities
        else:
            order = np.argsort(x, kind="stable")
            x, y = x[order], np.array([float(r[col(spec.y)]) for r in sel])[order]
        series.append(Series(spec.label(*key), x, y))
    return line_plot(series, title=spec.title, xlabel=spec.xlabel, ylabel=spec.ylabel)


def _render(spec: StudySpec, rows: list[tuple]) -> dict[str, str]:
    """The study's CSV and SVG, both drawn from the rows already in memory."""
    return {spec.csv: _csv(spec.header, rows), spec.svg: _svg(spec, rows)}


# ---------------------------------------------------------------------------
# Positioning study


def _positioning_scenario(p: dict):
    deployment = build_linear_deployment(p["isd_m"], p["lateral_offset_m"], p["site_height_m"], p["span_m"])
    trajectory = snake_trajectory(
        p["speed_kmh"], p["span_m"], p["snake_amplitude_m"], p["snake_period_m"], p["dt_s"]
    )
    return deployment, trajectory


def _positioning_one(task):
    """Rows for one SNR point: fused estimates plus the radio-only solve."""
    p, seed, snr = task
    pt = positioning.point_fixes(
        *_positioning_scenario(p), snr, p["nb_fused_bs"], seed,
        decimation=p["decimation"], speed_along_road=p["speed_kmh"] * KMH,
    )
    rows = []
    for t, (tx, ty), (fx, fy), fe, (nx, ny), ne in zip(
        pt.t.tolist(), pt.truth.tolist(), pt.fused.tolist(), pt.fused_err.tolist(),
        pt.nr_only.tolist(), pt.nr_only_err.tolist(),
    ):
        rows.append((t, tx, ty, fx, fy, fe, "fused", p["nb_fused_bs"], snr))
        if not math.isnan(ne):  # a failed radio-only solve has no row
            rows.append((t, tx, ty, nx, ny, ne, "nr_only", p["nb_fused_bs"], snr))
    return rows


def run_positioning(config: RunConfig) -> dict[str, str]:
    p = config.params
    tasks = [(p, config.seed, snr) for snr in p["snr_db"]]
    return _render(STUDY_SPECS["positioning"], _map_tasks(_positioning_one, tasks, config.workers))


# ---------------------------------------------------------------------------
# HST study


def _hst_setup(p: dict):
    deployment = build_rail_deployment(p["isd_m"], p["track_offset_m"])
    numerology = hst.Numerology()
    trajectory = linear_trajectory(p["speed_kmh"], p["span_m"], numerology.slot_duration)
    params = hst.HstLinkParams(
        anchor_snr_db=p["anchor_snr_db"],
        esm_beta=p["esm_beta"],
        cdd_delay_s=p["cdd_us"] * 1e-6,
        max_harq_retx=p["max_harq_retx"],
    )
    return deployment, trajectory, numerology, params


def _hst_one(task):
    """Binned throughput curve rows for one transmission scheme."""
    p, seed, scheme = task
    deployment, trajectory, numerology, params = _hst_setup(p)
    results = hst.run_hst_sweep(
        deployment, trajectory, scheme, numerology, hst.Mcs(), seed, params
    )
    bins = hst.bin_by_position(results, p["bin_m"], numerology.slot_duration)
    return [
        (scheme, float(x), float(tput / 1e6), float(snr), float(attempts))
        for x, tput, snr, attempts in zip(
            bins.centers_m, bins.throughput_bps, bins.snr_eff_db, bins.harq_attempts
        )
    ]


def run_hst(config: RunConfig) -> dict[str, str]:
    p = config.params
    hst.bin_index(_hst_setup(p)[1].position[:, 0], p["bin_m"])  # a bin too small fails before any sweep
    schemes = [s.value for s in hst.Scheme] if p["scheme"] == "all" else [p["scheme"]]
    tasks = [(p, config.seed, s) for s in schemes]
    return _render(STUDY_SPECS["hst"], _map_tasks(_hst_one, tasks, config.workers))


# ---------------------------------------------------------------------------
# Scheduler study


def _scheduler_deployment(p: dict):
    return build_linear_deployment(p["isd_m"], 0.0, 35.0, p["isd_m"])


def _scheduler_one(task):
    p, seed, reps, density, rho = task
    deployment = _scheduler_deployment(p)
    traffic = scheduler.TrafficConfig(0.0, p["file_size_mb"] * 8e6, p["speed_kmh"])
    (point,) = scheduler.density_sweep(
        deployment, [density], [rho], reps, seed, duration=p["duration_s"], traffic=traffic
    )
    return [(point.density_mbps_km2, point.drop_fraction, point.mean_user_tput_mbps,
             point.coverage_fraction, point.median_file_time_s)]


def run_scheduler(config: RunConfig) -> dict[str, str]:
    p = config.params
    tasks = [
        (p, config.seed, config.replications, d, rho)
        for d in p["densities_mbps_km2"]
        for rho in p["drop_fractions"]
    ]
    return _render(STUDY_SPECS["scheduler"], _map_tasks(_scheduler_one, tasks, config.workers))


# ---------------------------------------------------------------------------
# QoS study


# Longest built-in trace in epochs (repeats x one pass), checked before the rail
# sweep; 20 repeats of the default 302 epochs, or of the finest 30,241, fit.
MAX_TRACE_EPOCHS = 1 << 20


def default_hst_trace(seed: int, epoch_s: float = 0.05, repeats: int = 20) -> qos.ThroughputTrace:
    """Delivered-bits trace of the SFN scheme on the default rail downlink
    study, tiled for length.

    The single pass over the track (about 15 s) is repeated so that long
    prediction horizons still have enough evaluable windows.
    """
    if repeats < 1 or epoch_s <= 0:
        raise ConfigurationError("invalid trace parameters")
    deployment, trajectory, numerology, params = _hst_setup({k: f.default for k, f in SCHEMAS["hst"].items()})
    per_epoch = int(round(epoch_s / numerology.slot_duration))
    if per_epoch < 1 or abs(per_epoch * numerology.slot_duration - epoch_s) > 1e-12:
        raise ConfigurationError("trace epoch must be a multiple of the slot duration")
    if per_epoch > len(trajectory):
        raise ConfigurationError(
            f"trace epoch {epoch_s:g} s is longer than the "
            f"{len(trajectory) * numerology.slot_duration:g} s rail pass"
        )
    n_epochs = len(trajectory) // per_epoch
    if n_epochs * repeats > MAX_TRACE_EPOCHS:
        raise ConfigurationError(f"{repeats:,} trace repeats of {n_epochs:,} epochs exceed {MAX_TRACE_EPOCHS:,} epochs")
    results = hst.run_hst_sweep(deployment, trajectory, hst.Scheme.SFN, numerology, hst.Mcs(), seed, params)
    bits_per_slot = np.zeros(len(trajectory))
    for r in results:
        bits_per_slot[r.slot_index + r.harq_attempts_used - 1] += r.delivered_bits
    epochs = bits_per_slot[: n_epochs * per_epoch].reshape(n_epochs, per_epoch).sum(axis=1)
    return qos.ThroughputTrace(
        epoch_s=epoch_s,
        delivered_bits=np.tile(epochs, repeats),
    )


def _qos_one(task):
    trace, p, horizon = task
    cdf = positioning.empirical_cdf(qos.horizon_errors(
        trace, horizon, p["method"], ma_windows=p["ma_windows"], ar1_lambda=p["ar1_lambda"]
    ))
    return [(horizon, p["method"], float(e), float(cp))
            for e, cp in zip(cdf.errors, cdf.probabilities)]


def run_qos(config: RunConfig) -> dict[str, str]:
    p = config.params
    if p["trace_csv"]:
        trace = qos.ThroughputTrace.from_csv(p["trace_csv"])
    else:
        trace = default_hst_trace(config.seed, p["trace_epoch_s"], p["trace_repeats"])
    tasks = [(trace, p, h) for h in p["horizons_s"]]
    return _render(STUDY_SPECS["qos"], _map_tasks(_qos_one, tasks, config.workers))


# ---------------------------------------------------------------------------
# Orchestration


STUDY_RUNNERS = {
    "positioning": run_positioning,
    "hst": run_hst,
    "scheduler": run_scheduler,
    "qos": run_qos,
}


@dataclass(frozen=True)
class RunManifest:
    study: str
    seed: int
    config_sha256: str
    version: str
    outputs: dict  # filename -> {"sha256": ..., "rows": ...}
    wall_time_s: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


def plot_csv(csv_path: str, out_path: str | None = None) -> str:
    """Redraw the SVG of a study CSV (identified by its header) as the run drew it."""
    import csv  # only here: a run never reads CSV text back

    with open(csv_path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        data = [(reader.line_num, row) for row in reader if row]
    if header is None or not data:
        raise ConfigurationError(f"{csv_path}: empty CSV")
    spec = next((s for s in STUDY_SPECS.values() if list(s.header) == header), None)
    if spec is None:
        raise ConfigurationError(f"{csv_path}: unrecognized CSV header {header}")
    plotted = [spec.header.index(c) for c in (spec.x, spec.y) if c]
    keys = [spec.header.index(k) for k in spec.keys]
    for line, row in data:
        try:
            if len(row) != len(header):
                raise ValueError(f"expected {len(header)} cells, got {len(row)}")
            if not all(math.isfinite(float(row[i])) for i in plotted):
                raise ValueError(f"plotted cell is not finite: {row}")
            spec.label(*(row[i] for i in keys))
        except (ValueError, OverflowError) as exc:
            raise ConfigurationError(f"{csv_path}: line {line}: {exc}") from None
    svg = _svg(spec, [row for _, row in data])

    out = out_path or os.path.splitext(csv_path)[0] + ".svg"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return out


def run(config: RunConfig, output_dir: str | None = None) -> RunManifest:
    """Execute one study and write its CSVs, plots, and manifest."""
    t0 = time.perf_counter()
    outputs = STUDY_RUNNERS[config.study](config)
    outdir = output_dir or config.output_dir
    os.makedirs(outdir, exist_ok=True)
    summary = {}
    for name in sorted(outputs):
        content = outputs[name]
        with open(os.path.join(outdir, name), "w", encoding="utf-8", newline="") as fh:
            fh.write(content)
        entry = {"sha256": hashlib.sha256(content.encode()).hexdigest()}
        if name.endswith(".csv"):
            entry["rows"] = content.count("\n") - 1
        summary[name] = entry
    manifest = RunManifest(
        study=config.study,
        seed=config.seed,
        config_sha256=config.sha256(),
        version=VERSION,
        outputs=summary,
        wall_time_s=time.perf_counter() - t0,
    )
    with open(os.path.join(outdir, "manifest.json"), "w", encoding="utf-8") as fh:
        fh.write(manifest.to_json())
    return manifest
