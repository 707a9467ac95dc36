#!/usr/bin/env python3
"""Wall time and traced memory peak of each stacked stage of the measure core.

Runs ``states.validate``, the six stacked stages (covariance ratio, fidelity,
spectral fidelity, ``linalg.spectral_core``, Williamson normal form, Tsallis),
the two settle certificates (``fidelity_bound``, the determinant bound on
``f_tot4``, and ``spectral_overlap``, the Tsallis overlap through the spectral
form) and ``fragile``, the fidelity and Tsallis stages as ``measure_stack``
runs them (after the covariance ratio, with the Tsallis settle between them),
on the first B states of the benchmark's seeded n-mode pool (squeezing up to 2), for
n in {1, 2, 4, 8, 16, 32, 64} and B in {1, 64, 256}; the n = 16, B = 256 rows run
the stack of ``tests/test_working_set.py``.  At n = 2 it also runs the two
stages of the dynamics-family sweeps: ``dynamics.bath_stack`` over B baths and
``dynamics._evolved`` of the B states under them, with the bath parameters
and times spread over the ranges of the dynamics figure specs.

Each row holds the median and minimum wall time over the repeats, the traced
peak of one further call (``tracemalloc``: the arrays a stage allocates, not
LAPACK's own workspace) in bytes and in complex ``(B, 2n, 2n)`` stacks, and
how many items failed.  A B = 1 row whose minimum or median lies within 1 ms
of a multiple of 16 ms, the step in which single small LAPACK calls stall at
two OpenBLAS threads, is measured again, up to ``ATTEMPTS`` times in all; if
it is still on a step, it is kept with ``"stalled": true``.  ``attempts``
counts the measurements a row took.  The file also records the machine and
the environment fields ``perfbench/run.py`` records (BLAS threads, library
versions, usable cores) but scipy's version: the package does not use scipy.
The pool comes from the benchmark's own module, imported without writing
anything under ``perfbench/``.

Usage, from the root of a checkout, with the BLAS settings ``perfbench/run.py``
gives its workers:

    OPENBLAS_NUM_THREADS=$(nproc) OPENBLAS_THREAD_TIMEOUT=24 PYTHONPATH=src \
        python3 scripts/bench.py --out BENCH_<n>.json
"""

import argparse
import json
import os
import pathlib
import platform
import statistics
import sys
import time
import tracemalloc
from functools import cache, partial

import numpy as np

from gaussimag import dynamics, linalg, measures, states
from gaussimag.linalg import ItemErrors
from gaussimag.states import ZERO_TOL

sys.dont_write_bytecode = True
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import wide_state  # noqa: E402

MODES = (1, 2, 4, 8, 16, 32, 64)
SIZES = (1, 64, 256)
REPEATS = 5  # timed calls per row
MU = 0.5
STALL_STEP_S = 0.016  # a stalled LAPACK call returns on a multiple of this
STALL_NEAR_S = 0.001
ATTEMPTS = 4  # measurements of a B = 1 row at most


def per_item(run):
    # a stage over fresh per-item errors, returning them
    def call(d, cm):
        errors = ItemErrors(len(cm))
        run(d, cm, errors)
        return errors.errors

    return call


# each maps (d, cm) to the per-item errors of one call
STAGES = {
    "validate": lambda d, cm: states.validate(cm)[2],
    "imaginarity": per_item(
        lambda d, cm, e: e.call(partial(measures._imaginarity_stack, zero_tol=ZERO_TOL), d, cm)
    ),
    "fidelity": per_item(measures._fidelity_stack),
    "spectral_f_tot4": per_item(lambda d, cm, e: measures._spectral_f_tot4_stack(cm, e)),
    "spectral_core": per_item(lambda d, cm, e: linalg.spectral_core(cm, e)),
    "fidelity_bound": per_item(lambda d, cm, e: measures._log_f_tot4_bound(cm, e)),
    "spectral_overlap": per_item(lambda d, cm, e: measures._log_overlap_stack(d, cm, MU, e)),
    "williamson": per_item(lambda d, cm, e: linalg.williamson_stack(cm, e)),
    "tsallis": per_item(lambda d, cm, e: measures._tsallis_stack(d, cm, MU, e)),
    # an item's first failure, if any
    "fragile": lambda d, cm: [
        next(filter(None, row), None) for row in measures.measure_stack(d, cm, MU).failures
    ],
}


@cache
def bath_inputs(count: int):
    # ((lam, n_th, R, phi), baths, times) of `count` points over the dynamics figure specs' ranges
    stops = (20.0, 4.0, 4 * np.pi, 60.0)
    n_th, big_r, phi, times = (np.linspace(0.0, stop, count) for stop in stops)
    params = (np.full(count, 0.1), n_th, big_r, phi)
    return params, dynamics.bath_stack(*params)[0], times


# the two stages of a dynamics-family sweep, on two-mode states
BATH_STAGES = {
    "bath_stack": lambda d, cm: dynamics.bath_stack(*bath_inputs(len(cm))[0])[1],
    "evolved": lambda d, cm: [None] * len(dynamics._evolved(d, cm, *bath_inputs(len(cm))[1:])[1]),
}


def pool_stack(n: int, count: int):
    pool = [wide_state(n, k) for k in range(count)]
    return np.stack([s.d for s in pool]), np.stack([s.cm for s in pool])


def traced_peak(stage, d, cm) -> int:
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        stage(d, cm)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def measure(stage, d, cm) -> dict:
    errors = stage(d, cm)  # warm-up
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        stage(d, cm)
        times.append(time.perf_counter() - t0)
    peak = traced_peak(stage, d, cm)
    return {
        "wall_s_median": statistics.median(times),
        "wall_s_min": min(times),
        "peak_bytes": peak,
        "peak_complex_stacks": peak / cm.size / 16,
        "failed": sum(e is not None for e in errors),
    }


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_thread_timeout": os.environ.get("OPENBLAS_THREAD_TIMEOUT"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def on_stall_step(seconds: float) -> bool:
    steps = round(seconds / STALL_STEP_S)
    return steps >= 1 and abs(seconds - steps * STALL_STEP_S) <= STALL_NEAR_S


def measured_row(stage, d, cm) -> dict:
    # a B = 1 row is measured again while its minimum or median sits on a stall step
    for attempt in range(1, ATTEMPTS + 1):
        row = measure(stage, d, cm)
        times = row["wall_s_min"], row["wall_s_median"]
        stalled = len(cm) == 1 and any(map(on_stall_step, times))
        if not stalled:
            break
    return {**row, "attempts": attempt, "stalled": stalled}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args()
    rows = []
    for n in MODES:
        for count in SIZES:
            d, cm = pool_stack(n, count)
            stages = {**STAGES, **BATH_STAGES} if n == 2 else STAGES
            for name, stage in stages.items():
                row = {"stage": name, "n": n, "B": count, **measured_row(stage, d, cm)}
                rows.append(row)
                print(
                    f"{name:16s} n={n:2d} B={count:3d} {row['wall_s_median'] * 1e3:9.3f} ms "
                    f"peak {row['peak_complex_stacks']:6.2f} stacks, {row['failed']} failed"
                    + (" (stalled)" if row["stalled"] else ""),
                    file=sys.stderr,
                )
    out = {"environment": environment(), "repeats": REPEATS, "stages": rows}
    pathlib.Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
