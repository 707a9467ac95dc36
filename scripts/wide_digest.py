#!/usr/bin/env python3
"""One sha256 over every report of the benchmark's wide pool.

Scores the 2,560 states of the wide reference pool (1,024, 1,024, 384 and 128
states of 8, 16, 32 and 64 modes) one at a time, as ``measure_all`` does, and
hashes ``repr(report.to_dict())`` of each, in pool order.  Two checkouts that
print the same digest gave the same value, ``det_cm`` and error string on every
state.  The digest depends on the BLAS build and thread count (see README's
reproducibility notes), so it prints the OpenBLAS thread count first; compare
digests only at the same count.  The pool comes from the benchmark's own
module, imported without writing anything under ``perfbench/``.

Per mode count it also prints how many items each fragile stage of ``measures``
is handed, and how many of them it fails, counted from each state's route
record (``StackReport.stages``): the determinant bound, the spectral stage
(both runs), the fidelity chain, the spectral Tsallis overlap and the Williamson
normal form.  Two checkouts with the same counts routed every state the same way.

Usage, from the root of a checkout:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/wide_digest.py
"""

import ctypes
import hashlib
import os
import pathlib
import sys

import numpy as np

from gaussimag.measures import STAGES, measure_stack

sys.dont_write_bytecode = True
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import WIDE_MIX, wide_pool_size, wide_state  # noqa: E402


def blas_threads() -> str:
    # OpenBLAS's own count where numpy bundles it as scipy-openblas, else the environment's setting
    for lib in pathlib.Path(np.__file__).parent.parent.glob("numpy.libs/*scipy_openblas64_*"):
        return str(ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_())
    return f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}"


def main() -> int:
    digest, counts = hashlib.sha256(), []
    for n, per_round in WIDE_MIX:
        routes = []
        for k in range(wide_pool_size(per_round)):
            state = wide_state(n, k)
            reports = measure_stack(state.d[None], state.cm[None])
            digest.update(repr(reports.report(0).to_dict()).encode())
            routes.append(reports.stages[0])
        routes = np.array(routes)[:, None] >> 2 * np.arange(len(STAGES))
        handed, failed = np.count_nonzero(routes & 1, axis=0), np.count_nonzero(routes & 2, axis=0)
        cells = (f"{label} {h} ({f} failed)" for label, h, f in zip(STAGES, handed, failed))
        counts.append(f"n = {n}: " + ", ".join(cells))
    print(f"openblas threads: {blas_threads()}")
    print(f"sha256: {digest.hexdigest()}")
    print("items handed to each stage:", *counts, sep="\n  ")
    return 0


if __name__ == "__main__":
    sys.exit(main())
