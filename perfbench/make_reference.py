#!/usr/bin/env python3
"""Capture the reference outputs that the benchmark checks against.

Writes ``reference/figures.json.gz`` (the CSV text of every figure spec, as
``scripts/make_figure_data.py`` would write it) and ``reference/wide.json.gz``
(imaginarity, fidelity and Tsallis values of every state in the ``wide``
pool, ``null`` where the measure returned a named failure).  Run it only on
the commit whose outputs are the reference:

    python3 perfbench/make_reference.py
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from gaussimag import measures  # noqa: E402


def main() -> int:
    workloads.REFERENCE.mkdir(exist_ok=True)
    figures = {}
    tmp = HERE.parent / ".perfbench_tmp" / "reference"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        for path in sorted((HERE.parent / "figures").glob("*.json")):
            out = tmp / f"{path.stem}.csv"
            spec = json.loads(path.read_text())
            workloads.run_cli([workloads.figure_command(spec), str(path), "--out", str(out)])
            figures[path.stem] = out.read_text()
    finally:
        shutil.rmtree(tmp)
    workloads.write_reference("figures", figures)

    wide = {
        str(n): [
            workloads.wide_values(measures.measure_all(workloads.wide_state(n, k)))
            for k in range(workloads.wide_pool_size(per_round))
        ]
        for n, per_round in workloads.WIDE_MIX
    }
    workloads.write_reference("wide", wide)
    return 0


if __name__ == "__main__":
    sys.exit(main())
