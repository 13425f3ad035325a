"""Config parsing, CLI behavior, and run manifests."""

import csv
import json
import os
import re
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from nrtransport import (
    ConfigurationError,
    EkfParams,
    build_linear_deployment,
    ekf_fuse,
    empirical_cdf,
    error_cdf,
    horizontal_errors,
    initial_state_from_frame,
    load_config,
    nr_only_positions,
    parse_config,
    run,
    runner,
    simulate_measurements,
    snake_trajectory,
)
from nrtransport.cli import main as cli_main
from nrtransport.runner import plot_csv
from nrtransport.scenario import KMH

from golden.compare import compare_csv, main as compare_main
from test_svgplot import deadline


def test_minimal_config_fills_defaults():
    cfg = parse_config("[positioning]\nsnr_db = 5\nnb_fused_bs = 2\n")
    assert cfg.study == "positioning"
    assert cfg.params["snr_db"] == (5.0,)
    assert cfg.params["nb_fused_bs"] == 2
    assert cfg.params["isd_m"] == 200.0
    assert cfg.params["span_m"] == 10000.0
    assert cfg.seed == 1 and cfg.workers == 1


def test_misspelled_key_names_line():
    with pytest.raises(ConfigurationError, match="line 2.*snrr_db"):
        parse_config("[positioning]\nsnrr_db = 5\n")


def test_duplicate_key_rejected_with_line():
    with pytest.raises(ConfigurationError, match="line 3.*duplicate"):
        parse_config("[positioning]\nseed = 1\nseed = 2\n")


def test_type_mismatch_names_key_and_line():
    with pytest.raises(ConfigurationError, match="line 2.*decimation"):
        parse_config("[positioning]\ndecimation = fast\n")


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_non_finite_floats_rejected_with_key_and_line(raw):
    with pytest.raises(ConfigurationError, match=f"line 3: key 'speed_kmh' must be finite, got '{raw}'"):
        parse_config(f"[hst]\nseed = 1\nspeed_kmh = {raw}\n")
    with pytest.raises(ConfigurationError, match="line 2: key 'horizons_s' must be finite"):
        parse_config(f"[qos]\nhorizons_s = 0.1, {raw}\n")


def test_unknown_study_and_missing_section():
    with pytest.raises(ConfigurationError, match="unknown study"):
        parse_config("[warp_drive]\n")
    with pytest.raises(ConfigurationError, match="no \\[study\\] section"):
        parse_config("# just a comment\n")
    with pytest.raises(ConfigurationError, match="before any"):
        parse_config("seed = 1\n")


def test_hst_scheme_choice_accepted_and_validated():
    cfg = parse_config("[hst]\nscheme = SFN_CDD\ncdd_us = 1.0\n")
    assert cfg.params["scheme"] == "SFN_CDD"
    assert cfg.params["cdd_us"] == 1.0
    with pytest.raises(ConfigurationError, match="one of"):
        parse_config("[hst]\nscheme = MAGIC\n")


def test_replications_only_for_scheduler():
    parse_config("[scheduler]\nreplications = 5\n")
    with pytest.raises(ConfigurationError, match="single replication"):
        parse_config("[qos]\nreplications = 5\n")


def test_canonical_text_is_stable_and_hashable():
    a = parse_config("[qos]\nseed = 9\nma_windows = 4\n")
    b = parse_config("[qos]\nma_windows = 4\nseed = 9  # comment\n")
    assert a.canonical_text() == b.canonical_text()
    assert a.sha256() == b.sha256()


def _tiny_positioning_config(outdir, seed=3):
    return (
        "[positioning]\n"
        f"seed = {seed}\n"
        "span_m = 400\n"
        "snr_db = 15\n"
        f"output_dir = {outdir}\n"
    )


def test_run_twice_identical_checksums(tmp_path):
    text = _tiny_positioning_config(tmp_path / "a")
    m1 = run(parse_config(text), str(tmp_path / "a"))
    m2 = run(parse_config(text), str(tmp_path / "b"))
    assert {k: v["sha256"] for k, v in m1.outputs.items()} == {
        k: v["sha256"] for k, v in m2.outputs.items()
    }
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["config_sha256"] == parse_config(text).sha256()
    # Row counts in the manifest match the CSV on disk.
    rows = manifest["outputs"]["positioning.csv"]["rows"]
    n_lines = (tmp_path / "a" / "positioning.csv").read_text().count("\n")
    assert rows == n_lines - 1


def test_parallel_workers_do_not_change_outputs(tmp_path):
    base = (
        "[qos]\nseed = 2\ntrace_repeats = 6\nhorizons_s = 0.5, 1\n"
    )
    m1 = run(parse_config(base + "workers = 1\n"), str(tmp_path / "w1"))
    m2 = run(parse_config(base + "workers = 3\n"), str(tmp_path / "w3"))
    assert {k: v["sha256"] for k, v in m1.outputs.items()} == {
        k: v["sha256"] for k, v in m2.outputs.items()
    }


def test_cli_validate_and_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.cfg"
    good.write_text("[qos]\nseed = 4\n")
    assert cli_main(["validate", str(good)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("[qos]")

    bad = tmp_path / "bad.cfg"
    bad.write_text("[qos]\nhorizon = 1\n")
    assert cli_main(["validate", str(bad)]) == 1
    assert cli_main(["validate", str(tmp_path / "missing.cfg")]) == 3


TINY_CONFIGS = {
    "positioning": "[positioning]\nseed = 3\nspan_m = 400\nsnr_db = 5, 15\n",
    "hst": "[hst]\nseed = 3\nspan_m = 40\n",
    "scheduler": "[scheduler]\nseed = 3\nduration_s = 20\nreplications = 2\n",
    "qos": "[qos]\nseed = 3\ntrace_repeats = 3\nhorizons_s = 0.1, 1\n",
}
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """Each study run through the CLI on its tiny config: study -> output directory."""
    root = tmp_path_factory.mktemp("tiny")
    outs = {}
    for study, text in TINY_CONFIGS.items():
        cfg = root / f"{study}.cfg"
        cfg.write_text(text)
        outs[study] = root / study
        assert cli_main(["run", str(cfg), "--output-dir", str(outs[study])]) == 0
    return outs


def test_cli_run_and_plot(tiny_runs, tmp_path):
    for study, out in tiny_runs.items():
        spec = runner.STUDY_SPECS[study]
        replot = tmp_path / f"{study}_replot.svg"
        assert cli_main(["plot", str(out / spec.csv), "-o", str(replot)]) == 0
        assert replot.read_bytes() == (out / spec.svg).read_bytes(), study


def test_tiny_runs_match_golden(tiny_runs):
    # tests/golden holds these CSVs as committed; keys and integers must match
    # exactly, floats within a relative 1e-9 (see tests/golden/compare.py).
    for study, out in tiny_runs.items():
        name = runner.STUDY_SPECS[study].csv
        report = compare_csv(str(GOLDEN / name), str(out / name))
        assert report.exact_parts_match, report.lines()
        assert all(d.max_rel <= 1e-9 for d in report.floats.values()), report.lines()


def test_compare_reports_svg_byte_identity(tiny_runs, tmp_path, capsys):
    old = tiny_runs["hst"]
    svg = runner.STUDY_SPECS["hst"].svg
    new = tmp_path / "new"
    new.mkdir()
    for name in ("hst.csv", svg):
        (new / name).write_bytes((old / name).read_bytes())
    assert compare_main([str(old), str(new)]) == 0
    assert f"{svg}: byte-identical yes" in capsys.readouterr().out
    (new / svg).write_bytes((old / svg).read_bytes().replace(b"</svg>", b"</svg>\n"))
    assert compare_main([str(old), str(new)]) == 0  # reported, not judged
    assert f"{svg}: byte-identical no" in capsys.readouterr().out


def test_positioning_errors_are_the_tested_error_path(tiny_runs):
    # The err_m cells the study writes are, bit for bit, what error_cdf (fused)
    # and horizontal_errors over nr_only_positions (radio-only) give.
    cfg = parse_config(TINY_CONFIGS["positioning"])
    p = cfg.params
    deployment = build_linear_deployment(p["isd_m"], p["lateral_offset_m"], p["site_height_m"], p["span_m"])
    trajectory = snake_trajectory(
        p["speed_kmh"], p["span_m"], p["snake_amplitude_m"], p["snake_period_m"], p["dt_s"]
    )
    params = EkfParams(deployment=deployment)
    with open(tiny_runs["positioning"] / "positioning.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for snr in p["snr_db"]:
        frames = simulate_measurements(
            deployment, trajectory, snr, p["nb_fused_bs"], cfg.seed, decimation=p["decimation"]
        )
        initial = initial_state_from_frame(frames[0], params, speed_along_road=p["speed_kmh"] * KMH)
        fused = error_cdf(ekf_fuse(frames, initial, params), trajectory)
        t = np.array([f.t for f in frames])
        nr_errs = horizontal_errors(nr_only_positions(frames, params), t, trajectory)
        nr_only = empirical_cdf(nr_errs[~np.isnan(nr_errs)])
        for method, cdf in (("fused", fused), ("nr_only", nr_only)):
            written = np.sort([float(r["err_m"]) for r in rows
                               if r["method"] == method and float(r["snr_db"]) == snr])
            assert len(written) == len(frames) and np.array_equal(written, cdf.errors), method


def test_every_study_svg_is_well_formed(tiny_runs):
    for study, out in tiny_runs.items():
        ElementTree.parse(out / runner.STUDY_SPECS[study].svg)


@pytest.mark.parametrize("text", [
    "[hst]\nscheme = DPS\nspan_m = -5\n",
    "[hst]\nscheme = DPS\nspan_m = 10\nesm_beta = 0\n",
    "[hst]\nscheme = DPS\nspan_m = 10\nmax_harq_retx = -1\n",
    "[hst]\nscheme = DPS\nspan_m = 10\ncdd_us = -1\n",
    "[scheduler]\ndensities_mbps_km2 = 150\nduration_s = 1\nfile_size_mb = 0\n",
], ids=["span_m", "esm_beta", "max_harq_retx", "cdd_us", "file_size_mb"])
def test_cli_rejects_out_of_range_values(tmp_path, capsys, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert cli_main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1


def test_cli_rejects_zero_bin_size(tmp_path, capsys):
    # The schema rejects it at parse time, before any sweep runs.
    cfg = tmp_path / "run.cfg"
    for bin_m in ("0", "-1"):
        cfg.write_text(f"[hst]\nscheme = DPS\nspan_m = 10\nbin_m = {bin_m}\n")
        message = f"configuration error: line 4: key 'bin_m' must be > 0.0, got '{bin_m}'\n"
        assert cli_main(["validate", str(cfg)]) == 1
        assert capsys.readouterr().err == message
        assert cli_main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == message
        assert not (tmp_path / "out" / "hst.csv").exists()


@pytest.mark.parametrize("text,message", [
    ("[qos]\ntrace_epoch_s = 0.0007\n", "trace epoch must be a multiple of the slot duration"),
    ("[qos]\nhorizons_s = 0.1, -1\n", "line 2: key 'horizons_s' must be > 0.0, got '0.1, -1'"),
    ("[qos]\nmethod = ar1\nar1_lambda = 0\n", "line 3: key 'ar1_lambda' must be > 0.0, got '0'"),
    ("[qos]\nmethod = ar1\nar1_lambda = 1.5\n", "line 3: key 'ar1_lambda' must be <= 1.0, got '1.5'"),
    ("[qos]\nmethod = moving_average\nma_windows = 0\n", "line 3: key 'ma_windows' must be > 0, got '0'"),
    ("[qos]\ntrace_epoch_s = 1000\n", "trace epoch 1000 s is longer than the 15.1205 s rail pass"),
], ids=["off_grid_epoch", "negative_horizon", "zero_ar1_lambda", "ar1_lambda_above_one",
        "zero_ma_windows", "epoch_longer_than_trace"])
def test_cli_rejects_qos_values_before_the_trace_sweep(tmp_path, capsys, monkeypatch, text, message):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the rail sweep ran before the config was checked")

    monkeypatch.setattr(runner.hst, "run_hst_sweep", no_sweep)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert cli_main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert message in err


def test_upper_bound_is_inclusive():
    assert parse_config("[qos]\nar1_lambda = 1.0\n").params["ar1_lambda"] == 1.0
    # The schema bounds every value of a key, whichever predictor reads it.
    with pytest.raises(ConfigurationError, match="line 3: key 'ma_windows' must be > 0"):
        parse_config("[qos]\nmethod = last_window\nma_windows = 0\n")


def test_float_list_bound_applies_to_each_value():
    with pytest.raises(ConfigurationError, match="line 2: key 'horizons_s' must be > 0.0"):
        parse_config("[qos]\nhorizons_s = 1, 0\n")
    assert parse_config("[qos]\nhorizons_s = 0.5, 2\n").params["horizons_s"] == (0.5, 2.0)


BOUND_CASES = [
    ("positioning", "isd_m", "-200", "> 0.0"),
    ("positioning", "span_m", "0", "> 0.0"),
    ("positioning", "speed_kmh", "-130", "> 0.0"),
    ("positioning", "dt_s", "0", "> 0.0"),
    ("positioning", "snake_period_m", "0", "> 0.0"),
    ("positioning", "nb_fused_bs", "0", "> 0"),
    ("positioning", "decimation", "-1", "> 0"),
    ("scheduler", "speed_kmh", "0", "> 0.0"),
    ("scheduler", "speed_kmh", "-140", "> 0.0"),
    ("hst", "span_m", "0", "> 0.0"),
    ("hst", "isd_m", "-700", "> 0.0"),
    ("hst", "speed_kmh", "0", "> 0.0"),
    ("hst", "esm_beta", "0", "> 0.0"),
    ("hst", "max_harq_retx", "-1", "> -1"),
    ("scheduler", "duration_s", "0", "> 0.0"),
    ("scheduler", "isd_m", "0", "> 0.0"),
    ("scheduler", "file_size_mb", "-50", "> 0.0"),
    ("qos", "trace_repeats", "0", "> 0"),
    ("hst", "cdd_us", "-1e-06", ">= 0.0"),
    ("scheduler", "densities_mbps_km2", "150, -1", ">= 0.0"),
    ("scheduler", "drop_fractions", "0, -0.5", ">= 0.0"),
    ("scheduler", "drop_fractions", "0, 1.5", "<= 1.0"),
    ("positioning", "site_height_m", "-1", ">= 0.0"),
]


@pytest.mark.parametrize("study,key,value,bound", BOUND_CASES,
                         ids=["-".join([*case[:3], case[3].split()[1]]) for case in BOUND_CASES])
def test_non_positive_values_rejected_with_key_and_line(study, key, value, bound):
    message = f"line 4: key '{key}' must be {bound}, got '{value}'"
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        parse_config(f"[{study}]\nseed = 1\n\n{key} = {value}\n")


def test_inclusive_bounds_accept_zero():
    assert parse_config("[hst]\ncdd_us = 0\n").params["cdd_us"] == 0.0
    assert parse_config("[positioning]\nsite_height_m = 0\n").params["site_height_m"] == 0.0
    p = parse_config("[scheduler]\ndensities_mbps_km2 = 0, 10\ndrop_fractions = 0, 1\n").params
    assert p["densities_mbps_km2"] == (0.0, 10.0) and p["drop_fractions"] == (0.0, 1.0)


@pytest.mark.parametrize("text", [
    "[hst]\nisd_m = 1e200\nspan_m = 20\n",
    "[hst]\ntrack_offset_m = -1e200\nspan_m = 20\nscheme = DPS\n",
    "[hst]\ntrack_offset_m = 1e308\nspan_m = 20\n",
], ids=["isd_1e200", "offset_-1e200", "offset_1e308"])
def test_cli_rejects_site_coordinates_that_overflow(tmp_path, capsys, text):
    # Ranges square the coordinates; past the bound they would overflow to
    # inf and write NaN SNRs instead of failing.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert cli_main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert not (tmp_path / "out" / "hst.csv").exists()


@pytest.mark.parametrize("text", [
    "[positioning]\nisd_m = 1e-300\n",
    "[positioning]\nisd_m = 0.001\n",
    "[positioning]\nisd_m = 1e-320\n",
    "[positioning]\ndt_s = 1e-320\n",
    "[positioning]\ndt_s = 1e-9\n",
    "[hst]\nspan_m = 1e12\n",
    "[scheduler]\nduration_s = 1e12\ndensities_mbps_km2 = 0\n",
], ids=["isd_1e-300", "isd_1mm", "isd_1e-320", "dt_1e-320", "dt_1ns", "hst_span_1e12", "duration_1e12"])
def test_cli_rejects_sizes_before_allocating(tmp_path, capsys, text):
    # Each asks for more sites, trajectory samples or slots than the bounds
    # in scenario and scheduler allow; it must fail fast, not hang or die.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    with deadline(20):
        assert cli_main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1


def test_pool_is_no_wider_than_the_task_list(monkeypatch):
    widths = []

    class InProcessPool:
        def __init__(self, max_workers):
            widths.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(runner, "ProcessPoolExecutor", InProcessPool)
    assert runner._map_tasks(lambda t: [t, -t], [1, 2, 3], workers=4096) == [1, -1, 2, -2, 3, -3]
    assert runner._map_tasks(lambda t: [t], [1, 2, 3, 4], workers=2) == [1, 2, 3, 4]
    assert runner._map_tasks(lambda t: [t], [1], workers=4096) == [1]
    assert widths == [3, 2]


@pytest.mark.parametrize("study,key,values", [
    ("qos", "horizons_s", "0.1, 0.1"),
    ("positioning", "snr_db", "5, 15, 5.0"),
    ("scheduler", "densities_mbps_km2", "150, 300, 150"),
    ("scheduler", "drop_fractions", "0, 0.5, 0.0"),
])
def test_repeated_float_list_value_rejected_with_key_and_line(study, key, values):
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"line 3: key '{key}' repeats a value: '{values}'")):
        parse_config(f"[{study}]\nseed = 1\n{key} = {values}\n")
    parse_config(f"[{study}]\nseed = 1\n{key} = 0.25, 0.5\n")  # in range for every key


@pytest.mark.parametrize("rows,message", [
    ("0.05,100\n0.05,nan\n0.05,300\n", "delivered bits must be finite and non-negative"),
    ("0.05,100\n0.05,\n0.05,300\n", "delivered bits must be finite and non-negative"),
    ("0.05,100\n", "only 0 evaluable windows at horizon 0.05s"),
    ("0.05,100\n0.1,200\n0.05,300\n", "epoch_s differs between rows"),
    ("0.05,100\n0.05,2,3\n", "Line #3 (got 3 columns instead of 2)"),
], ids=["nan_bits", "blank_bits", "one_row", "mixed_epoch", "ragged_row"])
def test_cli_rejects_bad_trace_csv(tmp_path, capsys, rows, message):
    trace = tmp_path / "trace.csv"
    trace.write_text("epoch_s,delivered_bits\n" + rows)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[qos]\ntrace_csv = {trace}\nhorizons_s = 0.05\n")
    assert cli_main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert message in err
    if "windows" not in message:
        assert str(trace) in err


def test_one_row_trace_csv_loads(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("epoch_s,delivered_bits\n0.05,100\n")
    trace = runner.qos.ThroughputTrace.from_csv(path)
    assert trace.epoch_s == 0.05 and list(trace.delivered_bits) == [100.0]


def test_qos_trace_built_once_for_all_horizons(tmp_path, monkeypatch):
    builds = []

    def fake_trace(seed, epoch_s, repeats):
        builds.append(seed)
        bits = np.tile([1e5, 3e5, 2e5, 4e5], 500)
        return runner.qos.ThroughputTrace(epoch_s=epoch_s, delivered_bits=bits)

    monkeypatch.setattr(runner, "default_hst_trace", fake_trace)
    run(parse_config("[qos]\nseed = 5\nhorizons_s = 0.1, 0.5, 1\n"), str(tmp_path))
    assert builds == [5]


def test_cli_output_dir_env_override(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[qos]\nseed = 2\ntrace_repeats = 6\nhorizons_s = 0.5\n")
    monkeypatch.setenv("NRTRANSPORT_OUTDIR", str(tmp_path / "env_out"))
    assert cli_main(["run", str(cfg)]) == 0
    assert (tmp_path / "env_out" / "qos.csv").exists()


def test_plot_rejects_unknown_header(tmp_path):
    header = ",".join(runner.STUDY_SPECS["hst"].header)
    cases = [
        ("alpha,beta\n1,2\n", "unrecognized CSV header"),
        (f"{header}\nSFN,10.0,5.0,12.0,1.0\n1,2\n", "line 3: expected 5 cells, got 2"),
        (f"{header}\nSFN,abc,5.0,12.0,1.0\n", "line 2: could not convert string to float: 'abc'"),
    ]
    for i, (text, message) in enumerate(cases):
        weird = tmp_path / f"weird{i}.csv"
        weird.write_text(text)
        with pytest.raises(ConfigurationError, match=re.escape(f"{weird}: {message}")):
            plot_csv(str(weird))
        assert cli_main(["plot", str(weird)]) == 1


def test_scheduler_config_round_trip(tmp_path):
    cfg = parse_config(
        "[scheduler]\nseed = 7\nreplications = 2\n"
        "densities_mbps_km2 = 10, 1000\ndrop_fractions = 0, 0.5\nduration_s = 20\n"
    )
    m = run(cfg, str(tmp_path / "sched"))
    lines = (tmp_path / "sched" / "scheduler.csv").read_text().strip().splitlines()
    assert lines[0] == "density_mbps_km2,drop_fraction,mean_user_tput_mbps,coverage_fraction,median_file_time_s"
    assert len(lines) == 1 + 4  # 2 densities x 2 drop fractions
