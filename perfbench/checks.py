"""Checks on the files one study run wrote.

A run is valid when ``manifest.json`` names exactly the files written, its
sha256 digests and row counts match them, every CSV has its study's header,
at least one row and finite numeric cells (``inf`` only where documented),
each SVG is a complete document, and the study's own semantic checks pass.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

from workloads import HEADERS, INF_COLUMNS, OUTPUTS, TEXT_COLUMNS


def _parse_csv(name: str, text: str, problems: list[str]) -> list[dict]:
    lines = text.split("\n")
    if lines[-1] != "":
        problems.append(f"{name}: no trailing newline")
    lines = [ln for ln in lines if ln]
    header = lines[0].split(",") if lines else []
    if header != HEADERS[name]:
        problems.append(f"{name}: header {header}")
        return []
    if len(lines) < 2:
        problems.append(f"{name}: no rows")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            problems.append(f"{name}:{lineno}: {len(cells)} cells")
            continue
        row = {}
        for col, cell in zip(header, cells):
            if col in TEXT_COLUMNS:
                row[col] = cell
                continue
            try:
                value = float(cell)
            except ValueError:
                problems.append(f"{name}:{lineno}: {col}={cell!r} is not a number")
                continue
            if not (math.isfinite(value) or (col in INF_COLUMNS and value == math.inf)):
                problems.append(f"{name}:{lineno}: {col}={cell} is not finite")
            row[col] = value
        rows.append(row)
    return rows


def check_outputs(outdir: str, study: str, seed: int, config_sha256: str):
    """Validate one run's output directory.

    Returns (problems, digests, rows): digests maps each output file to its
    sha256; rows holds the parsed rows of the study CSV.
    """
    problems: list[str] = []
    try:
        with open(os.path.join(outdir, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"manifest.json: {exc}"], {}, []
    if (manifest.get("study"), manifest.get("seed"), manifest.get("config_sha256")) != (
        study, seed, config_sha256
    ):
        problems.append("manifest.json: study, seed or config digest does not match the config")
    expected = set(OUTPUTS[study])
    listed = manifest.get("outputs", {})
    present = set(os.listdir(outdir)) - {"manifest.json"}
    if set(listed) != expected or present != expected:
        problems.append(f"outputs: manifest lists {sorted(listed)}, found {sorted(present)}")
    digests: dict[str, str] = {}
    rows: list[dict] = []
    for name in sorted(expected & present):
        with open(os.path.join(outdir, name), "rb") as fh:
            data = fh.read()
        digests[name] = hashlib.sha256(data).hexdigest()
        entry = listed.get(name, {})
        if entry.get("sha256") != digests[name]:
            problems.append(f"{name}: sha256 differs from manifest.json")
        text = data.decode("utf-8")
        if name.endswith(".csv"):
            rows = _parse_csv(name, text, problems)
            if entry.get("rows") != text.count("\n") - 1:
                problems.append(f"{name}: row count differs from manifest.json")
        elif not (text.startswith("<svg") and text.rstrip().endswith("</svg>")):
            problems.append(f"{name}: not a complete SVG document")
    return problems, digests, rows
