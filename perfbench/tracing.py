"""Per-layer spans and counters, recorded from outside the program.

Each probe replaces one public function at the module attribute (or dict
entry) that its caller resolves at call time, for example ``hst.effective_snr``
inside ``hst.run_hst_sweep`` or ``runner.STUDY_RUNNERS["hst"]`` inside
``runner.run``. Nothing in ``src/`` is edited, and every probe is removed
again when the traced study run ends.

A span records (id, parent id, name, start, end). Hot leaf functions that run
hundreds of thousands of times per study run (ESM, BLER, QoS window sums,
Gauss-Newton solves) are not stored one by one: their call count and time are
summed per name and charged to the enclosing span, which keeps memory flat
and the tracing overhead low. Self time of a span is its duration minus its
child spans and the leaf time charged to it.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from nrtransport import config, hst, positioning, qos, runner, scheduler
from nrtransport.errors import EstimationError


class Tracer:
    """Spans and counters of one traced study run, kept in memory."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.leaf_calls: Counter = Counter()
        self.leaf_s: defaultdict = defaultdict(float)
        self.leaf_by_parent: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self._stack = [0]  # id 0 is the (unrecorded) caller of the study run
        self._next_id = 1

    def span_stats(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        child = defaultdict(float, self.leaf_by_parent)
        for _sid, parent, _name, start, end in self.spans:
            child[parent] += end - start
        calls: Counter = Counter(self.leaf_calls)
        total = defaultdict(float, self.leaf_s)
        own = defaultdict(float, self.leaf_s)
        for sid, _parent, name, start, end in self.spans:
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[sid]
        return {name: (calls[name], total[name], own[name]) for name in calls}

    def to_json(self) -> dict:
        return {
            "spans": [list(s) for s in self.spans],
            "leaves": {n: [self.leaf_calls[n], self.leaf_s[n]] for n in sorted(self.leaf_calls)},
            "leaf_s_by_parent": {str(k): v for k, v in sorted(self.leaf_by_parent.items())},
            "counters": dict(sorted(self.counters.items())),
        }


@dataclass(frozen=True)
class Probe:
    owner: object  # module, or dict for runner.STUDY_RUNNERS
    attr: str
    span: str | None  # None: run the counter only, record no span
    leaf: bool = False
    count: Callable | None = None  # (counters, bound arguments, result) -> None
    failure: tuple[type, str] | None = None  # (exception type, counter name)


def _wrap(tracer: Tracer, probe: Probe, fn):
    sig = inspect.signature(fn) if probe.count else None

    def account(args, kwargs, result):
        if probe.count:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            probe.count(tracer.counters, bound.arguments, result)

    if probe.span is None:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            account(args, kwargs, result)
            return result
        return counted

    name = probe.span
    clock = time.perf_counter

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        parent = tracer._stack[-1]
        if probe.leaf:
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if probe.failure and isinstance(exc, probe.failure[0]):
                    tracer.counters[probe.failure[1]] += 1
                raise
            finally:
                dt = clock() - start
                tracer.leaf_calls[name] += 1
                tracer.leaf_s[name] += dt
                tracer.leaf_by_parent[parent] += dt
        else:
            sid = tracer._next_id
            tracer._next_id += 1
            tracer._stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._stack.pop()
                tracer.spans.append((sid, parent, name, start, end))
        account(args, kwargs, result)
        return result

    return traced


@contextmanager
def installed(tracer: Tracer, probes: list[Probe]):
    """Swap every probe in for the duration of the block, then restore."""
    saved = []
    try:
        for p in probes:
            if isinstance(p.owner, dict):
                original = p.owner[p.attr]
                p.owner[p.attr] = _wrap(tracer, p, original)
            else:
                original = getattr(p.owner, p.attr)
                setattr(p.owner, p.attr, _wrap(tracer, p, original))
            saved.append((p.owner, p.attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Counters derived from the arguments and results at each boundary


def _count_sweep(c, a, results):
    c["hst.slots"] += len(a["trajectory"])
    c["hst.tbs"] += len(results)
    c["hst.harq_attempts"] += sum(r.harq_attempts_used for r in results)
    c["hst.failed_tbs"] += sum(1 for r in results if r.delivered_bits == 0)


def _count_cell(c, a, stats):
    slot_s = (a["params"] or scheduler.CellParams()).slot_s
    n_slots = int(round(a["duration"] / slot_s))
    c["scheduler.cell_slots"] += n_slots
    c["scheduler.users"] += len(stats.users)
    if not stats.users:
        return
    arrival = np.array([u.arrival_t for u in stats.users])
    done = np.array([math.nan if u.completion_t is None else u.completion_t for u in stats.users])
    # A user is in the cell from the first slot at or after its arrival until
    # the slot that served its last bit (completion = that slot + slot_s).
    first = np.ceil(arrival / slot_s - 1e-9)
    last = np.where(np.isnan(done), n_slots - 1, np.round(done / slot_s) - 1)
    c["scheduler.user_slots"] += int(np.sum(np.maximum(last - first + 1, 0)))
    c["scheduler.censored"] += int(np.sum(np.isnan(done)))
    c["scheduler.never_admitted"] += sum(1 for u in stats.users if not u.admitted)


def _count_ekf(c, a, estimates):
    c["positioning.epochs"] += len(a["frames"])


def _count_horizon(c, a, errs):
    c["qos.windows"] += len(errs)


def _count_substream(c, a, generator):
    c["rng.substream_calls"] += 1


def probes() -> list[Probe]:
    """Every boundary the benchmark times; ``owner`` is where the caller looks."""
    return [
        Probe(config, "parse_config", "config.parse_config"),
        Probe(runner, "run", "runner.run"),
        Probe(runner.STUDY_RUNNERS, "positioning", "runner.study"),
        Probe(runner.STUDY_RUNNERS, "hst", "runner.study"),
        Probe(runner.STUDY_RUNNERS, "scheduler", "runner.study"),
        Probe(runner.STUDY_RUNNERS, "qos", "runner.study"),
        Probe(runner, "_csv", "runner.csv"),
        Probe(runner, "line_plot", "svgplot.line_plot"),
        Probe(runner, "build_linear_deployment", "scenario.build"),
        Probe(runner, "build_rail_deployment", "scenario.build"),
        Probe(runner, "linear_trajectory", "scenario.build"),
        Probe(runner, "snake_trajectory", "scenario.build"),
        Probe(runner, "default_hst_trace", "qos.trace"),
        Probe(hst, "run_hst_sweep", "hst.sweep", count=_count_sweep),
        Probe(hst, "effective_snr", "hst.esm", leaf=True),
        Probe(hst, "bler", "hst.bler", leaf=True),
        Probe(scheduler, "density_sweep", "scheduler.sweep"),
        Probe(scheduler, "simulate_cell", "scheduler.cell", count=_count_cell),
        Probe(positioning, "simulate_measurements", "positioning.meas"),
        Probe(positioning, "ekf_fuse", "positioning.ekf", count=_count_ekf),
        Probe(positioning, "nr_only_position", "positioning.gn", leaf=True,
              failure=(EstimationError, "positioning.gn_failed")),
        Probe(qos, "horizon_errors", "qos.horizon", count=_count_horizon),
        Probe(qos, "window_bits", "qos.window_bits", leaf=True),
        # substream is imported by name into each module that draws randomness.
        Probe(hst, "substream", None, count=_count_substream),
        Probe(positioning, "substream", None, count=_count_substream),
        Probe(scheduler, "substream", None, count=_count_substream),
    ]


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced study run


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_values(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced study run: name -> (value, unit)."""
    st = tracer.span_stats()
    c = tracer.counters

    def calls(n):
        return st.get(n, (0, 0.0, 0.0))[0]

    def total(n):
        return st.get(n, (0, 0.0, 0.0))[1]

    def own(n):
        return st.get(n, (0, 0.0, 0.0))[2]

    esm, blr = calls("hst.esm"), calls("hst.bler")
    return {
        "hst.sweep_calls": (calls("hst.sweep"), "count"),
        "hst.sweep_s": (total("hst.sweep"), "s"),
        "hst.self_s": (own("hst.sweep"), "s"),
        "hst.slots": (c["hst.slots"], "count"),
        "hst.slot_us": (_ratio(total("hst.sweep"), c["hst.slots"], 1e6), "us"),
        "hst.esm_calls": (esm, "count"),
        "hst.esm_s": (total("hst.esm"), "s"),
        "hst.bler_calls": (blr, "count"),
        "hst.bler_s": (total("hst.bler"), "s"),
        "hst.tbs": (c["hst.tbs"], "count"),
        "hst.harq_attempts": (c["hst.harq_attempts"], "count"),
        "hst.retx_frac": (_ratio(c["hst.harq_attempts"] - c["hst.tbs"], c["hst.harq_attempts"]), "ratio"),
        "hst.residual_bler": (_ratio(c["hst.failed_tbs"], c["hst.tbs"]), "ratio"),
        "hst.esm_useful_ratio": (_ratio(blr, esm), "ratio"),
        "scheduler.sweep_s": (total("scheduler.sweep"), "s"),
        "scheduler.cell_calls": (calls("scheduler.cell"), "count"),
        "scheduler.cell_s": (total("scheduler.cell"), "s"),
        "scheduler.cell_slots": (c["scheduler.cell_slots"], "count"),
        "scheduler.slot_us": (_ratio(total("scheduler.cell"), c["scheduler.cell_slots"], 1e6), "us"),
        "scheduler.users": (c["scheduler.users"], "count"),
        "scheduler.user_slots": (c["scheduler.user_slots"], "count"),
        "scheduler.censored": (c["scheduler.censored"], "count"),
        "scheduler.never_admitted": (c["scheduler.never_admitted"], "count"),
        "positioning.meas_s": (total("positioning.meas"), "s"),
        "positioning.ekf_s": (total("positioning.ekf"), "s"),
        "positioning.epochs": (c["positioning.epochs"], "count"),
        "positioning.ekf_epoch_us": (_ratio(total("positioning.ekf"), c["positioning.epochs"], 1e6), "us"),
        "positioning.gn_calls": (calls("positioning.gn"), "count"),
        "positioning.gn_s": (total("positioning.gn"), "s"),
        "positioning.gn_us": (_ratio(total("positioning.gn"), calls("positioning.gn"), 1e6), "us"),
        "positioning.gn_failed": (c["positioning.gn_failed"], "count"),
        "qos.trace_builds": (calls("qos.trace"), "count"),
        "qos.trace_s": (total("qos.trace"), "s"),
        "qos.horizon_s": (total("qos.horizon"), "s"),
        "qos.windows": (c["qos.windows"], "count"),
        "qos.window_us": (_ratio(total("qos.horizon"), c["qos.windows"], 1e6), "us"),
        "qos.window_bits_calls": (calls("qos.window_bits"), "count"),
        "qos.window_bits_s": (total("qos.window_bits"), "s"),
        "runner.render_s": (total("runner.csv"), "s"),
        "runner.write_s": (own("runner.run"), "s"),
        "svgplot.plot_s": (total("svgplot.line_plot"), "s"),
        "scenario.build_s": (total("scenario.build"), "s"),
        "config.parse_s": (total("config.parse_config"), "s"),
        "rng.substream_calls": (c["rng.substream_calls"], "count"),
    }


def self_seconds(tracer: Tracer) -> float:
    """Self times of every span and leaf, summed."""
    return sum(own for _calls, _total, own in tracer.span_stats().values())


#: Metrics that are counts of work or outcomes; they must repeat exactly for a
#: fixed seed. The remaining metrics are times and ratios of times.
EXACT = frozenset((
    "hst.sweep_calls", "hst.slots", "hst.esm_calls", "hst.bler_calls", "hst.tbs",
    "hst.harq_attempts", "hst.retx_frac", "hst.residual_bler", "hst.esm_useful_ratio",
    "scheduler.cell_calls", "scheduler.cell_slots", "scheduler.users",
    "scheduler.user_slots", "scheduler.censored", "scheduler.never_admitted",
    "positioning.epochs", "positioning.gn_calls", "positioning.gn_failed",
    "qos.trace_builds", "qos.windows", "qos.window_bits_calls", "rng.substream_calls",
))
