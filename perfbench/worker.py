"""One benchmark process: import gaussimag, set up a workload, then measure.

``run.py`` starts this script in a fresh interpreter for every measurement,
so import time, set-up time and peak memory belong to one workload only.
Roles:

* ``setup``: import and set up, report ``import_s`` and ``setup_s``, exit.
* ``run``: set up, then run passes of the workload's tasks until
  ``--seconds`` have passed (the first pass always completes), check the
  outputs and report the timings.
* ``trace``: set up, then run the first pass ``TRACE_ROUNDS`` times
  untraced, alternating with the same pass under the boundary wrappers of
  ``tracing.py``; check the outputs and report the per-boundary counters.
  A fixed amount of work makes ``.calls`` repeat exactly for a given seed.

Prints one JSON object as its last line of output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_ROUNDS = 2  # untraced and traced passes of a trace run, alternating


def import_package() -> float:
    """Import gaussimag from the checkout's ``src`` and return the seconds taken."""
    package = SRC / "gaussimag"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"no package source at {package}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import gaussimag

    import_s = time.perf_counter() - t0
    if Path(gaussimag.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"imported gaussimag from {gaussimag.__file__}, not from {package}")
    return import_s


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_thread_timeout": os.environ.get("OPENBLAS_THREAD_TIMEOUT"),
        "nproc": len(os.sched_getaffinity(0)),
    }


class Stats:
    """Per-key call times and item counts of the tasks run so far."""

    def __init__(self):
        self.samples = defaultdict(list)
        self.items = {}
        self.attempted = 0
        self.failed = 0

    def run(self, workload, task) -> None:
        t0 = time.perf_counter()
        try:
            out = task.call()
        except Exception:
            elapsed = time.perf_counter() - t0
            self.failed += task.items
            traceback.print_exc(file=sys.stderr)
        else:
            elapsed = time.perf_counter() - t0
            workload.record(task, out)
        self.samples[task.key].append(elapsed)
        self.items[task.key] = task.items
        self.attempted += task.items

    def _mean_times(self) -> dict:
        # on a shared host the CPU speed drifts over tens of seconds; a mean
        # over the whole run averages the drift, a median picks one phase
        return {k: statistics.fmean(v) for k, v in self.samples.items()}

    def items_per_s(self) -> float:
        """Items per second over one pass, each key at the mean of its call times."""
        means = self._mean_times()
        return sum(self.items[k] for k in means) / sum(means.values())

    def latency_ms(self) -> tuple[float, float]:
        """p50 and p90 of the per-item time, each key at the mean of its call times."""
        per_item = []
        for key, mean in self._mean_times().items():
            n = self.items[key]
            per_item.extend([1e3 * mean / n] * n)
        deciles = statistics.quantiles(per_item, n=10)
        return deciles[4], deciles[8]


def timed_passes(workload, seconds: float) -> Stats:
    stats = Stats()
    start = time.perf_counter()
    p = 0
    while p == 0 or time.perf_counter() - start < seconds:
        for task in workload.pass_tasks(p):
            if p > 0 and time.perf_counter() - start >= seconds:
                break
            stats.run(workload, task)
        p += 1
    return stats


def traced_passes(workload, tracing) -> tuple[Stats, Stats, dict]:
    """Alternate untraced and traced runs of pass 0; return both and the layers."""
    plain, traced = Stats(), Stats()
    tracer = tracing.Tracer()
    for _ in range(TRACE_ROUNDS):
        for task in workload.pass_tasks(0):
            plain.run(workload, task)
        with tracer:
            for task in workload.pass_tasks(0):
                traced.run(workload, task)
    layers = tracer.summary()
    layers["bench.items_per_s_untraced"] = plain.items_per_s()
    layers["bench.items_per_s_traced"] = traced.items_per_s()
    layers["bench.trace_slowdown"] = plain.items_per_s() / traced.items_per_s()
    return plain, traced, layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--role", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True, dest="spawned_at")
    args = parser.parse_args()

    import_s = import_package()
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, args.tmp)
    workload.setup()
    # perf_counter is the system-wide monotonic clock, shared with the parent
    setup_s = time.perf_counter() - args.spawned_at
    out = {"import_s": import_s, "setup_s": setup_s}
    if args.role == "run":
        stats = timed_passes(workload, args.seconds)
        p50, p90 = stats.latency_ms()
        out.update(
            items_per_s=stats.items_per_s(),
            item_p50_ms=p50,
            item_p90_ms=p90,
            samples=sum(len(v) for v in stats.samples.values()),
            attempted=stats.attempted,
            failed=stats.failed,
        )
    elif args.role == "trace":
        plain, traced, out["per_layer"] = traced_passes(workload, tracing)
        out.update(attempted=plain.attempted + traced.attempted, failed=plain.failed + traced.failed)
    if args.role != "setup":
        # before the check, which loads the reference data
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check = workload.check()
        out.update(
            errors=check.errors[:20],
            error_count=len(check.errors),
            evaluations=check.evaluations,
            named_failures=check.named_failures,
            env=environment(),
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
