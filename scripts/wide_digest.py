#!/usr/bin/env python3
"""One sha256 over every report of the benchmark's wide pool.

Scores the 2,560 states of the wide reference pool (1,024, 1,024, 384 and 128
states of 8, 16, 32 and 64 modes) one at a time through ``measure_all`` and
hashes ``repr(report.to_dict())`` of each, in pool order.  Two checkouts that
print the same digest gave the same value, ``det_cm`` and error string on every
state.  The digest depends on the BLAS build and thread count (see README's
reproducibility notes), so it prints the OpenBLAS thread count first; compare
digests only at the same count.  The pool comes from the benchmark's own
module, imported without writing anything under ``perfbench/``.

Usage, from the root of a checkout:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/wide_digest.py
"""

import ctypes
import hashlib
import os
import pathlib
import sys

import numpy as np

from gaussimag.measures import measure_all

sys.dont_write_bytecode = True
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import WIDE_MIX, wide_pool_size, wide_state  # noqa: E402


def blas_threads() -> str:
    # OpenBLAS's own count where numpy bundles it as scipy-openblas, else the environment's setting
    for lib in pathlib.Path(np.__file__).parent.parent.glob("numpy.libs/*scipy_openblas64_*"):
        return str(ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_())
    return f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}"


def main() -> int:
    digest = hashlib.sha256()
    for n, per_round in WIDE_MIX:
        for k in range(wide_pool_size(per_round)):
            digest.update(repr(measure_all(wide_state(n, k)).to_dict()).encode())
    print(f"openblas threads: {blas_threads()}")
    print(f"sha256: {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
