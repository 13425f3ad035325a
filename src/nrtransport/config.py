"""Plain-text run configuration.

Format: one `[study]` section header followed by `key = value` lines.
Comments start with `#`. Every key is validated against the study schema;
unknown keys, type mismatches, and missing required keys are reported with
the offending key and line number.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from .errors import ConfigurationError
from .scenario import MAX_COORDINATE_M, MIN_SNAKE_PERIOD_M

_REQUIRED = object()


@dataclass(frozen=True)
class FieldSpec:
    kind: str  # int | float | str | float_list
    default: object = _REQUIRED
    choices: tuple | None = None
    above: float | None = None  # exclusive lower bound of a number or of each list element
    at_least: float | None = None  # inclusive lower bound, likewise
    at_most: float | None = None  # inclusive upper bound, likewise


_COMMON = {
    "seed": FieldSpec("int", 1),
    "output_dir": FieldSpec("str", "out"),
    "replications": FieldSpec("int", 1),
    "workers": FieldSpec("int", 1),
}

SCHEMAS: dict[str, dict[str, FieldSpec]] = {
    "positioning": {
        "snr_db": FieldSpec("float_list", (5.0, 15.0), at_least=-300.0, at_most=300.0),  # keeps 10^(snr/10) finite
        "nb_fused_bs": FieldSpec("int", 2, above=0),
        "isd_m": FieldSpec("float", 200.0, above=0.0),
        "lateral_offset_m": FieldSpec("float", 40.0),
        "site_height_m": FieldSpec("float", 10.0, at_least=0.0),
        "span_m": FieldSpec("float", 10000.0, above=0.0),
        "speed_kmh": FieldSpec("float", 130.0, above=0.0),
        "snake_amplitude_m": FieldSpec("float", 3.5, at_least=-MAX_COORDINATE_M, at_most=MAX_COORDINATE_M),
        "snake_period_m": FieldSpec("float", 500.0, above=0.0, at_least=MIN_SNAKE_PERIOD_M),
        "dt_s": FieldSpec("float", 0.01, above=0.0),
        "decimation": FieldSpec("int", 10, above=0),
    },
    "hst": {
        "scheme": FieldSpec("str", "all", ("SFN", "SFN_CDD", "SFN_PRECOMP", "DPS", "all")),
        "isd_m": FieldSpec("float", 700.0, above=0.0),
        "track_offset_m": FieldSpec("float", 10.0),
        "speed_kmh": FieldSpec("float", 500.0, above=0.0),
        "span_m": FieldSpec("float", 2100.0, above=0.0),
        "anchor_snr_db": FieldSpec("float", 16.0, at_least=-300.0, at_most=300.0),  # keeps the noise power finite
        "cdd_us": FieldSpec("float", 1.0, at_least=0.0, at_most=1000.0),  # HstLinkParams.cdd_delay_s <= 1 ms
        "esm_beta": FieldSpec("float", 5.0, above=0.0),
        "max_harq_retx": FieldSpec("int", 3, above=-1),
        "bin_m": FieldSpec("float", 20.0, above=0.0),
    },
    "scheduler": {
        "densities_mbps_km2": FieldSpec("float_list", (10.0, 450.0, 1000.0, 2000.0, 3000.0), at_least=0.0),
        "drop_fractions": FieldSpec("float_list", (0.0, 0.5), at_least=0.0, at_most=1.0),
        "duration_s": FieldSpec("float", 200.0, above=0.0),
        "isd_m": FieldSpec("float", 1732.0, above=0.0),
        "file_size_mb": FieldSpec("float", 50.0, above=0.0),
        "speed_kmh": FieldSpec("float", 140.0, above=0.0),
    },
    "qos": {
        "horizons_s": FieldSpec("float_list", (0.1, 1.0, 10.0), above=0.0),
        "method": FieldSpec("str", "last_window", ("last_window", "moving_average", "ar1")),
        "trace_csv": FieldSpec("str", ""),
        "ma_windows": FieldSpec("int", 4, above=0),
        "ar1_lambda": FieldSpec("float", 0.5, above=0.0, at_most=1.0),
        "trace_repeats": FieldSpec("int", 20, above=0),
        "trace_epoch_s": FieldSpec("float", 0.05, above=0.0),
    },
}
STUDIES = tuple(SCHEMAS)


@dataclass(frozen=True)
class RunConfig:
    study: str
    seed: int
    output_dir: str
    replications: int
    workers: int
    params: dict

    def canonical_text(self) -> str:
        lines = [f"[{self.study}]"]
        merged = dict(self.params)
        merged.update(
            seed=self.seed,
            output_dir=self.output_dir,
            replications=self.replications,
            workers=self.workers,
        )
        for key in sorted(merged):
            lines.append(f"{key} = {_format_value(merged[key])}")
        return "\n".join(lines) + "\n"

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


def _format_value(value) -> str:
    if isinstance(value, (tuple, list)):
        return ", ".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _convert(key: str, raw: str, spec: FieldSpec, lineno: int):
    try:
        if spec.kind == "int":
            value = int(raw)
        elif spec.kind == "float":
            value = float(raw)
        elif spec.kind == "float_list":
            value = tuple(float(part) for part in raw.split(",") if part.strip())
            if not value:
                raise ValueError("empty list")
        else:
            value = raw
    except ValueError as exc:
        raise ConfigurationError(
            f"line {lineno}: key '{key}' expects {spec.kind}, got '{raw}'"
        ) from exc
    items = value if spec.kind == "float_list" else (value,)
    if spec.kind in ("float", "float_list") and not all(math.isfinite(v) for v in items):
        raise ConfigurationError(f"line {lineno}: key '{key}' must be finite, got '{raw}'")
    if spec.kind == "float_list" and len(set(value)) != len(value):
        raise ConfigurationError(f"line {lineno}: key '{key}' repeats a value: '{raw}'")
    if spec.above is not None and not all(v > spec.above for v in items):
        raise ConfigurationError(f"line {lineno}: key '{key}' must be > {spec.above!r}, got '{raw}'")
    if spec.at_least is not None and not all(v >= spec.at_least for v in items):
        raise ConfigurationError(f"line {lineno}: key '{key}' must be >= {spec.at_least!r}, got '{raw}'")
    if spec.at_most is not None and not all(v <= spec.at_most for v in items):
        raise ConfigurationError(f"line {lineno}: key '{key}' must be <= {spec.at_most!r}, got '{raw}'")
    if spec.choices is not None and value not in spec.choices:
        raise ConfigurationError(
            f"line {lineno}: key '{key}' must be one of {spec.choices}, got '{value}'"
        )
    return value


def parse_config(text: str) -> RunConfig:
    study = None
    schema = None
    seen: dict[str, object] = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            if study is not None:
                raise ConfigurationError(f"line {lineno}: multiple sections; one study per config")
            study = line[1:-1].strip()
            if study not in STUDIES:
                raise ConfigurationError(
                    f"line {lineno}: unknown study '{study}'; expected one of {STUDIES}"
                )
            schema = {**_COMMON, **SCHEMAS[study]}
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got '{line}'")
        if study is None:
            raise ConfigurationError(f"line {lineno}: key before any [study] section")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in schema:
            raise ConfigurationError(f"line {lineno}: unknown key '{key}' for study '{study}'")
        if key in seen:
            raise ConfigurationError(f"line {lineno}: duplicate key '{key}'")
        seen[key] = _convert(key, raw, schema[key], lineno)
    if study is None:
        raise ConfigurationError("config has no [study] section")

    values = {}
    for key, spec in {**_COMMON, **SCHEMAS[study]}.items():
        if key in seen:
            values[key] = seen[key]
        elif spec.default is _REQUIRED:
            raise ConfigurationError(f"missing required key '{key}' for study '{study}'")
        else:
            values[key] = spec.default

    common = {k: values.pop(k) for k in _COMMON}
    if common["replications"] < 1 or common["workers"] < 1:
        raise ConfigurationError("replications and workers must be >= 1")
    if study != "scheduler" and common["replications"] != 1:
        raise ConfigurationError(f"study '{study}' runs a single replication")
    return RunConfig(
        study=study,
        seed=common["seed"],
        output_dir=common["output_dir"],
        replications=common["replications"],
        workers=common["workers"],
        params=values,
    )


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
