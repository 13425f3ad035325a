"""Differential comparison of two directories of study CSVs.

    python tests/golden/compare.py OLD_DIR NEW_DIR

Every study CSV in OLD_DIR (``positioning.csv``, ``hst.csv``,
``scheduler.csv``, ``qos.csv``) is compared with the file of the same name in
NEW_DIR. Per file the report gives whether the bytes are identical, the row
counts, the key and integer columns (which must match exactly), and per float
column the largest absolute and relative delta and the number of cells that
changed. The relative delta of a cell is ``|new - old| / |old|``; it is 0 when
both are 0 and infinite when only the old value is 0.

Key columns are the study's series keys (``runner.STUDY_SPECS``) and every
column that is not numeric; integer columns are those whose every cell parses
as an integer. The exit code is 0 when every row count, key and integer
column matches, and 1 otherwise; float deltas are reported, not judged.

Every ``.svg`` file present in both directories is reported as byte-identical
or not, so one command shows whether all run outputs of two runs agree; like
the float deltas, an SVG difference is reported, not judged.
"""

from __future__ import annotations

import csv
import math
import os
import sys
from dataclasses import dataclass, field

CSV_NAMES = ("positioning.csv", "hst.csv", "scheduler.csv", "qos.csv")


@dataclass(frozen=True)
class FloatDelta:
    max_abs: float
    max_rel: float
    changed: int


@dataclass
class FileReport:
    name: str
    identical: bool
    rows: tuple[int, int]
    problems: list[str] = field(default_factory=list)
    floats: dict[str, FloatDelta] = field(default_factory=dict)

    @property
    def exact_parts_match(self) -> bool:
        return not self.problems

    def max_rel(self, column: str) -> float:
        return self.floats[column].max_rel

    def lines(self) -> list[str]:
        out = [
            f"{self.name}: byte-identical {'yes' if self.identical else 'no'}, "
            f"rows {self.rows[0]} -> {self.rows[1]}, "
            f"keys/integers {'match' if self.exact_parts_match else 'DIFFER'}"
        ]
        out += [f"  {p}" for p in self.problems]
        for col, d in self.floats.items():
            out.append(
                f"  {col}: max |delta| {d.max_abs:.3g}, max rel {d.max_rel:.3g}, "
                f"{d.changed} cells changed"
            )
        return out


def _read(path: str) -> tuple[str, list[str], list[list[str]]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    header, *rows = list(csv.reader(text.splitlines()))
    return text, header, [r for r in rows if r]


def _parses(cells, kind) -> bool:
    try:
        for c in cells:
            kind(c)
    except ValueError:
        return False
    return True


def _series_keys(header: list[str]) -> tuple[str, ...]:
    from nrtransport.runner import STUDY_SPECS

    spec = next((s for s in STUDY_SPECS.values() if list(s.header) == header), None)
    return spec.keys if spec is not None else ()


def compare_csv(old_path: str, new_path: str) -> FileReport:
    """Compare one study CSV against its older version."""
    old_text, header, old = _read(old_path)
    new_text, new_header, new = _read(new_path)
    report = FileReport(os.path.basename(old_path), old_text == new_text, (len(old), len(new)))
    if new_header != header:
        report.problems.append(f"header {header} -> {new_header}")
        return report
    if len(old) != len(new):
        report.problems.append(f"row count {len(old)} -> {len(new)}")
        return report
    keys = _series_keys(header)
    for j, name in enumerate(header):
        a = [r[j] for r in old]
        b = [r[j] for r in new]
        if name in keys or not _parses(a + b, float) or _parses(a + b, int):
            bad = sum(x != y for x, y in zip(a, b))
            if bad:
                report.problems.append(f"{name}: {bad} cells differ")
            continue
        max_abs = max_rel = 0.0
        changed = 0
        for x, y in zip(map(float, a), map(float, b)):
            if x == y or (math.isnan(x) and math.isnan(y)):
                continue
            changed += 1
            delta = abs(y - x)
            max_abs = max(max_abs, delta)
            max_rel = max(max_rel, delta / abs(x) if x != 0.0 else math.inf)
        report.floats[name] = FloatDelta(max_abs, max_rel, changed)
    return report


def compare_dirs(old_dir: str, new_dir: str) -> list[FileReport]:
    """Reports for every study CSV present in ``old_dir``."""
    names = [n for n in CSV_NAMES if os.path.exists(os.path.join(old_dir, n))]
    if not names:
        raise FileNotFoundError(f"no study CSV in {old_dir}")
    return [compare_csv(os.path.join(old_dir, n), os.path.join(new_dir, n)) for n in names]


def _bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def shared_svgs(old_dir: str, new_dir: str) -> list[tuple[str, bool]]:
    """(name, byte-identical) for every SVG file in both directories, by name."""
    names = sorted(set(os.listdir(old_dir)) & set(os.listdir(new_dir)))
    return [
        (n, _bytes(os.path.join(old_dir, n)) == _bytes(os.path.join(new_dir, n)))
        for n in names if n.endswith(".svg")
    ]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0].strip(), file=sys.stderr)
        return 2
    reports = compare_dirs(*argv)
    for r in reports:
        print("\n".join(r.lines()))
    for name, same in shared_svgs(*argv):
        print(f"{name}: byte-identical {'yes' if same else 'no'}")
    return 0 if all(r.exact_parts_match for r in reports) else 1


if __name__ == "__main__":
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "src")
    sys.path.insert(0, os.path.normpath(src))
    sys.exit(main())
