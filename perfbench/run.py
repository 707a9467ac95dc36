#!/usr/bin/env python3
"""Benchmark of the gaussimag package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {figures,fuzz,wide} --seed N --seconds S --trace {0,1}

Workloads (see ``workloads.py``):

* ``figures``: every checked-in figure spec through ``cli.main``, with
  ``sweep`` or ``dynamics`` as ``scripts/make_figure_data.py`` chooses;
  15,480 grid points on 1- and 2-mode states, each scored by all three
  measures.  Per-state Python overhead dominates.  The seed is recorded but
  the inputs are the specs.
* ``fuzz``: the four property suites through ``fuzz.run_suite``, 200 cases a
  call, suite seed derived from ``--seed``.  State construction, channels,
  reductions and the cheap measure; never the fidelity or Tsallis path.
* ``wide``: 320 seeded random states of 8, 16, 32 and 64 modes (squeezing up
  to 2) through ``measures.measure_all``.  Dense linear algebra dominates and
  the fidelity path fails on a share of the states.

Every measurement runs in a fresh process (``worker.py``), one workload per
process, with BLAS threads capped at the number of usable cores and idle
BLAS threads sleeping after a few milliseconds (``worker_env``).  With
``--trace 0`` the benchmark prints the end-to-end metrics:

* ``import_s``, ``setup_s``: median over thirteen fresh processes (six
  before the measuring one, six after it) of the time to ``import gaussimag``, and
  of the time from process start to the first timed item (import, inputs,
  warm-up).
* ``items_per_s``: items per second over one pass of the workload, every
  timed call at the mean of its repeats in the run.
* ``item_p50_ms``, ``item_p90_ms``: per-item time quantiles over the same
  means, each call weighted by its items (a state on ``wide``, the time per
  point of a spec on ``figures``, per case of a suite call on ``fuzz``).
* ``ok_frac``: share of attempted measure evaluations that returned a value,
  i.e. ``1 - fail_frac``.  ``fail_frac`` and its base are on the info line.
* ``peak_rss_mb``: ``ru_maxrss`` of the measuring process.

With ``--trace 1`` it prints the per-boundary ``calls``, ``self_s`` and
``fail`` of ``tracing.BOUNDARIES`` over the traced passes of ``worker.py``,
and the traced against the untraced throughput.

Outputs are checked in the same run: figure CSVs against the reference CSVs,
fuzz suites for zero property failures, wide values against reference values
within 1e-9 wherever the reference has one.  A run whose check fails prints
no metrics and exits with 1.  The line before the result records the seed,
the software versions and the failure counts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path


HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOAD_NAMES = ("figures", "fuzz", "wide")
# set-up-only processes before and after the measuring one; on a shared host
# the CPU speed drifts over tens of seconds, so the probes span the whole run.
# Their median is steadier than their minimum: over 240 import probes on a
# 2-vCPU VM, medians of 9 consecutive probes spread (IQR/median) 0.08 and
# minima 0.16, because fast outliers vary as much as slow ones.
SETUP_PROBES_EACH_SIDE = 6
TIME_LIMIT_S = 170.0


def worker_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    # An idle OpenBLAS worker spins for 2**28 cycles (about 0.1 s) by default,
    # including right after numpy starts the pool during ``import gaussimag``.
    # When the scheduler leaves it on the main thread's CPU it takes a share of
    # that CPU: on a 2-vCPU VM this put import_s at 0.52-0.60 s for minutes at
    # a time instead of 0.38-0.49 s.  2**24 cycles (a few ms) still keeps the
    # workers awake between the BLAS calls of one wide state.
    env["OPENBLAS_THREAD_TIMEOUT"] = "24"
    return env


def spawn(args, role: str, tmp: Path, deadline: float) -> dict:
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--role", role, "--tmp", str(tmp),
    ]
    spawned_at = time.perf_counter()
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(spawned_at)],
        capture_output=True, text=True, env=worker_env(), cwd=ROOT,
        timeout=max(1.0, deadline - spawned_at),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"{role} process exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if result.get("failed") or result.get("error_count"):
        sys.stderr.write(proc.stderr[-4000:])
    return result


def declared_units(trace: bool) -> dict[str, str]:
    """Name and unit of every metric BENCHMARK.json declares for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure(args, tmp: Path, deadline: float) -> tuple[dict, dict[str, float]]:
    """Return (worker result of the measuring process, metric values by name)."""
    if args.trace:
        res = spawn(args, "trace", tmp, deadline)
        return res, res["per_layer"]
    setups = [spawn(args, "setup", tmp, deadline) for _ in range(SETUP_PROBES_EACH_SIDE)]
    res = spawn(args, "run", tmp, deadline)
    setups.append(res)
    setups += [spawn(args, "setup", tmp, deadline) for _ in range(SETUP_PROBES_EACH_SIDE)]
    res["setup_s_samples"] = [s["setup_s"] for s in setups]
    res["import_s_samples"] = [s["import_s"] for s in setups]
    return res, {
        "import_s": statistics.median(res["import_s_samples"]),
        "setup_s": statistics.median(res["setup_s_samples"]),
        "items_per_s": res["items_per_s"],
        "item_p50_ms": res["item_p50_ms"],
        "item_p90_ms": res["item_p90_ms"],
        "ok_frac": 1.0 - res["named_failures"] / res["evaluations"],
        "peak_rss_mb": res["peak_rss_mb"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    deadline = time.perf_counter() + TIME_LIMIT_S
    missing = [p for p in ("src/gaussimag/__init__.py", "figures", "BENCHMARK.json") if not (ROOT / p).exists()]
    if missing:
        print(f"checkout is missing {', '.join(missing)}", file=sys.stderr)
        return 2

    tmp_root = ROOT / ".perfbench_tmp"
    tmp = tmp_root / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        res, values = measure(args, tmp, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if tmp_root.is_dir() and not any(tmp_root.iterdir()):
            tmp_root.rmdir()

    correct = res["error_count"] == 0 and res["failed"] == 0
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": res["env"],
        "fail_frac": res["named_failures"] / max(1, res["evaluations"]),
        "fail_base": res["evaluations"],
        "named_failures": res["named_failures"],
        "check_errors": res["errors"],
    }
    for key in ("samples", "setup_s_samples", "import_s_samples"):
        if key in res:
            info[key] = res[key]
    print(json.dumps({"info": info}))
    units = declared_units(bool(args.trace))
    if correct and sorted(values) != sorted(units):
        print("metric names differ from BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()} if correct else {}
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
