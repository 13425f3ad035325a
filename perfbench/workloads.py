"""The four study workloads: config generator, work unit, and output checks.

Each workload turns the benchmark seed into one study config, which is all the
program receives. Sizes are fixed; the seed only changes the random draws, so
the work per study run is the same for every seed. ``smoke`` selects the
smallest sizes that still exercise the same layers (used by the smoke test).
README.md in this directory says why each workload exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from nrtransport import hst, scheduler
from nrtransport.config import RunConfig
from nrtransport.scenario import linear_trajectory

# Expected CSV layout per study, written out here rather than read from the
# program, so a change to the program's output format shows as a failure.
HEADERS = {
    "positioning.csv": ["t", "truth_x", "truth_y", "est_x", "est_y", "err_m",
                        "method", "nb_fused_bs", "snr_db"],
    "hst.csv": ["scheme", "train_x_m", "throughput_mbps", "snr_eff_db", "harq_attempts"],
    "scheduler.csv": ["density_mbps_km2", "drop_fraction", "mean_user_tput_mbps",
                      "coverage_fraction", "median_file_time_s"],
    "qos.csv": ["horizon_s", "method", "e_prime_bps", "cdf_p"],
}
TEXT_COLUMNS = {"method", "scheme"}
# median_file_time_s is documented as inf when no user of a point was admitted.
INF_COLUMNS = {"median_file_time_s"}
OUTPUTS = {
    "positioning": ("positioning.csv", "positioning_cdf.svg"),
    "hst": ("hst.csv", "hst_throughput.svg"),
    "scheduler": ("scheduler.csv", "scheduler_tput.svg"),
    "qos": ("qos.csv", "qos_cdf.svg"),
}


@dataclass(frozen=True)
class Workload:
    name: str
    work_unit: str
    work_counter: str  # per-layer count that must equal the work units
    config: Callable[[int, bool], str]  # (seed, smoke) -> config text
    work: Callable[[RunConfig, dict], int]  # (config, parsed CSV rows) -> work units
    check: Callable[[RunConfig, list[dict]], list[str]]  # -> problems
    headline: Callable[[RunConfig, list[dict]], dict]


def _cfg(study: str, seed: int, **keys) -> str:
    lines = [f"[{study}]", f"seed = {seed}", "workers = 1"]
    lines += [f"{k} = {v}" for k, v in keys.items()]
    return "\n".join(lines) + "\n"


def _groups(rows: list[dict], *keys: str) -> dict:
    """Rows grouped by the value of ``keys`` (a tuple when more than one)."""
    out: dict = {}
    for r in rows:
        k = tuple(r[key] for key in keys) if len(keys) > 1 else r[keys[0]]
        out.setdefault(k, []).append(r)
    return out


# ---------------------------------------------------------------------------
# rail_schemes: [hst] with every scheme over a shortened span


def _rail_config(seed: int, smoke: bool) -> str:
    return _cfg("hst", seed, scheme="all", span_m=10.0 if smoke else 120.0)


def _rail_work(cfg: RunConfig, rows) -> int:
    p = cfg.params
    slots = len(linear_trajectory(p["speed_kmh"], p["span_m"], hst.Numerology().slot_duration))
    return slots * len(hst.Scheme)


def _rail_check(cfg: RunConfig, rows) -> list[str]:
    p = cfg.params
    num = hst.Numerology()
    tbs = hst.transport_block_size(num, hst.Mcs(), hst.HstLinkParams().overhead_symbols)
    peak_mbps = tbs / num.slot_duration / 1e6
    problems = []
    by_scheme = _groups(rows, "scheme")
    if set(by_scheme) != {s.value for s in hst.Scheme}:
        problems.append(f"hst.csv schemes {sorted(by_scheme)}")
    for r in rows:
        if (r["train_x_m"] / p["bin_m"] - 0.5) % 1.0 > 1e-9:
            problems.append(f"hst.csv train_x_m {r['train_x_m']} is not a bin centre")
        if not 0.0 <= r["throughput_mbps"] <= peak_mbps * (1 + 1e-12):
            problems.append(f"hst.csv throughput {r['throughput_mbps']} outside [0, {peak_mbps}]")
        if not 1.0 <= r["harq_attempts"] <= 1 + p["max_harq_retx"]:
            problems.append(f"hst.csv harq_attempts {r['harq_attempts']}")
        if not 0.0 <= r["train_x_m"] <= p["span_m"] + p["bin_m"]:
            problems.append(f"hst.csv train_x_m {r['train_x_m']}")
    return problems


def _rail_headline(cfg, rows) -> dict:
    return {f"mean_tput_mbps.{s}": float(np.mean([r["throughput_mbps"] for r in rs]))
            for s, rs in _groups(rows, "scheme").items()}


# ---------------------------------------------------------------------------
# drop_sweep: [scheduler] density grid x two drop fractions, replicated


def _drop_config(seed: int, smoke: bool) -> str:
    # With 50 MB files over 15 s, 150 Mbps/km^2 brings about 4.5 users per
    # replication and keeps 60% of slots busy; 3000 brings about 78 and
    # keeps 99% busy (README.md has the per-density counts).
    if smoke:
        return _cfg("scheduler", seed, densities_mbps_km2="150, 3000", drop_fractions="0.0, 0.5",
                    duration_s=2.0, replications=2)
    return _cfg("scheduler", seed, densities_mbps_km2="150, 450, 1000, 3000",
                drop_fractions="0.0, 0.5", duration_s=15.0, replications=5)


def _drop_work(cfg: RunConfig, rows) -> int:
    p = cfg.params
    slots = int(round(p["duration_s"] / scheduler.CellParams().slot_s))
    return slots * cfg.replications * len(p["densities_mbps_km2"]) * len(p["drop_fractions"])


def _drop_check(cfg: RunConfig, rows) -> list[str]:
    p = cfg.params
    problems = []
    grid = [(d, rho) for d in p["densities_mbps_km2"] for rho in p["drop_fractions"]]
    got = [(r["density_mbps_km2"], r["drop_fraction"]) for r in rows]
    if got != grid:
        problems.append(f"scheduler.csv grid {got} != {grid}")
    for r in rows:
        if not 0.0 <= r["coverage_fraction"] <= 1.0:
            problems.append(f"scheduler.csv coverage_fraction {r['coverage_fraction']}")
        if r["mean_user_tput_mbps"] < 0 or not r["median_file_time_s"] > 0:
            problems.append(f"scheduler.csv negative value in {r}")
    return problems


def _drop_headline(cfg, rows) -> dict:
    return {f"mean_tput_mbps.d{r['density_mbps_km2']:g}.rho{r['drop_fraction']:g}":
            r["mean_user_tput_mbps"] for r in rows}


# ---------------------------------------------------------------------------
# qos_trace_ar1: [qos] on the built-in SFN rail trace, ar1 predictor


def _qos_config(seed: int, smoke: bool) -> str:
    # The built-in trace always sweeps the full 2,100 m span once per
    # horizon, so two horizons is both the minimum and the smoke size.
    return _cfg("qos", seed, horizons_s="0.1, 1.0", method="ar1",
                trace_repeats=1 if smoke else 4)


def _qos_work(cfg: RunConfig, rows) -> int:
    return len(rows)


def _qos_check(cfg: RunConfig, rows) -> list[str]:
    p = cfg.params
    problems = []
    by_h = _groups(rows, "horizon_s")
    if list(by_h) != list(p["horizons_s"]):
        problems.append(f"qos.csv horizons {list(by_h)}")
    for h, rs in by_h.items():
        e = np.array([r["e_prime_bps"] for r in rs])
        cp = np.array([r["cdf_p"] for r in rs])
        if len(rs) < 100:
            problems.append(f"qos.csv horizon {h}: {len(rs)} windows < 100")
        if np.any(e < 0) or np.any(np.diff(e) < 0):
            problems.append(f"qos.csv horizon {h}: errors not sorted non-negative")
        if np.any(np.diff(cp) <= 0) or abs(cp[-1] - 1.0) > 1e-12:
            problems.append(f"qos.csv horizon {h}: cdf_p not increasing to 1")
        if {r["method"] for r in rs} != {p["method"]}:
            problems.append(f"qos.csv horizon {h}: method column")
    return problems


def _qos_headline(cfg, rows) -> dict:
    return {f"median_e_prime_bps.h{h:g}": float(np.median([r["e_prime_bps"] for r in rs]))
            for h, rs in _groups(rows, "horizon_s").items()}


# ---------------------------------------------------------------------------
# highway_fusion: [positioning] two SNR points, two fused sites


def _fusion_config(seed: int, smoke: bool) -> str:
    return _cfg("positioning", seed, snr_db="5, 15", nb_fused_bs=2,
                span_m=400.0 if smoke else 5000.0)


def _fusion_work(cfg: RunConfig, rows) -> int:
    return sum(1 for r in rows if r["method"] == "fused")


def _fusion_check(cfg: RunConfig, rows) -> list[str]:
    p = cfg.params
    problems = []
    keys = {(r["method"], r["snr_db"]) for r in rows}
    want = {(m, s) for m in ("fused", "nr_only") for s in p["snr_db"]}
    if not keys <= want or not {("fused", s) for s in p["snr_db"]} <= keys:
        problems.append(f"positioning.csv series {sorted(keys)}")
    fused = _groups([r for r in rows if r["method"] == "fused"], "snr_db")
    if len({len(v) for v in fused.values()}) != 1:
        problems.append("positioning.csv fused epochs differ per SNR")
    for r in rows:
        err = math.hypot(r["est_x"] - r["truth_x"], r["est_y"] - r["truth_y"])
        if abs(err - r["err_m"]) > 1e-9 * max(1.0, err):
            problems.append(f"positioning.csv err_m {r['err_m']} != {err}")
        if r["nb_fused_bs"] != p["nb_fused_bs"]:
            problems.append(f"positioning.csv nb_fused_bs {r['nb_fused_bs']}")
    return problems


def _fusion_headline(cfg, rows) -> dict:
    out = {}
    for (m, s), rs in sorted(_groups(rows, "method", "snr_db").items()):
        out[f"p90_err_m.{m}.snr{s:g}"] = float(np.quantile([r["err_m"] for r in rs], 0.9))
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload("rail_schemes", "slot-scheme", "hst.slots",
                 _rail_config, _rail_work, _rail_check, _rail_headline),
        Workload("drop_sweep", "cell-slot", "scheduler.cell_slots",
                 _drop_config, _drop_work, _drop_check, _drop_headline),
        Workload("qos_trace_ar1", "window", "qos.windows",
                 _qos_config, _qos_work, _qos_check, _qos_headline),
        Workload("highway_fusion", "epoch-snr", "positioning.epochs",
                 _fusion_config, _fusion_work, _fusion_check, _fusion_headline),
    )
}
