#!/usr/bin/env python3
"""Regenerate the CSV data behind every checked-in figure spec.

Time-axis specs of the dynamics families run through the ``dynamics`` command
(adding the closed-form column); everything else runs through ``sweep``.  The
rule is the benchmark's own ``figure_command``, imported without writing
anything under ``perfbench/``.

Usage: python scripts/make_figure_data.py [--specs DIR] [--out DIR]
"""

import argparse
import json
import pathlib
import sys

from gaussimag.cli import main as cli_main

sys.dont_write_bytecode = True
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import figure_command  # noqa: E402


def run() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--specs", default="figures", help="directory of spec JSON files")
    parser.add_argument("--out", default="figure_data", help="output directory for CSVs")
    args = parser.parse_args()

    spec_dir = pathlib.Path(args.specs)
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    failures = 0
    for spec_path in sorted(spec_dir.glob("*.json")):
        with open(spec_path) as fh:
            spec = json.load(fh)
        command = figure_command(spec)
        out_path = out_dir / (spec_path.stem + ".csv")
        code = cli_main([command, str(spec_path), "--out", str(out_path)])
        status = "ok" if code == 0 else f"FAILED (exit {code})"
        print(f"{command:8s} {spec_path.name} -> {out_path.name}: {status}")
        failures += code != 0
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(run())
