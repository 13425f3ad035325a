"""Command line entry point.

Subcommands: ``run <config>`` executes a study end to end, ``validate
<config>`` only parses and echoes the resolved config, ``plot <csv>``
regenerates the SVG for an existing result CSV. The NRTRANSPORT_OUTDIR
environment variable overrides the configured output directory.

Exit codes: 0 success, 1 configuration error, 2 numerical/estimation error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import runner
from .config import load_config
from .errors import ConfigurationError, EstimationError, NumericalError

OUTDIR_ENV = "NRTRANSPORT_OUTDIR"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nrtransport",
        description="Deterministic 5G transport-scenario studies: positioning, "
        "rail downlink, macro scheduling, throughput prediction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a study from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--output-dir", help="override the configured output directory")

    p_val = sub.add_parser("validate", help="parse a config and print the resolved values")
    p_val.add_argument("config")

    p_plot = sub.add_parser("plot", help="regenerate the SVG plot for a result CSV")
    p_plot.add_argument("csv")
    p_plot.add_argument("-o", "--output", help="SVG output path")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            config = load_config(args.config)
            sys.stdout.write(config.canonical_text())
            return 0
        if args.command == "run":
            config = load_config(args.config)
            outdir = args.output_dir or os.environ.get(OUTDIR_ENV) or config.output_dir
            manifest = runner.run(config, outdir)
            for name, entry in sorted(manifest.outputs.items()):
                print(f"{name}  sha256={entry['sha256'][:16]}...")
            print(f"manifest written to {os.path.join(outdir, 'manifest.json')}")
            return 0
        if args.command == "plot":
            out = runner.plot_csv(args.csv, args.output)
            print(f"wrote {out}")
            return 0
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, EstimationError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
