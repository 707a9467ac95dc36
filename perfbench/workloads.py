"""The benchmark workloads: ``figures``, ``fuzz`` and ``wide``.

A workload builds its inputs in ``setup`` and warms up, then hands out one
pass of tasks at a time.  A task is one timed call into the package: ``key``
groups calls whose times are comparable (one spec, one suite, one state) and
``items`` is how many items the call completes.  ``record`` keeps what a call
returned, outside the timed region, and ``check`` compares it with reference
data captured from the package when the benchmark was defined
(``make_reference.py``).

Tasks look package functions up at call time (``cli.main``, not a bound
``main``), so the timing wrappers of a traced run see every call.
"""

from __future__ import annotations

import gzip
import json
import math
import pathlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from gaussimag import cli, fuzz, measures, sampling

REFERENCE = pathlib.Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Task:
    key: str
    items: int
    call: Callable[[], object]


@dataclass
class Check:
    """Outcome of comparing a run's outputs with the reference."""

    errors: list[str] = field(default_factory=list)
    evaluations: int = 0  # measure evaluations attempted
    named_failures: int = 0  # of those, how many returned a named failure


def load_reference(name: str):
    with gzip.open(REFERENCE / f"{name}.json.gz", "rt", encoding="utf-8") as fh:
        return json.load(fh)


def write_reference(name: str, obj) -> None:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    (REFERENCE / f"{name}.json.gz").write_bytes(gzip.compress(text.encode(), mtime=0))


# ---------------------------------------------------------------- figures


def figure_command(spec: dict) -> str:
    """CLI command for a spec, chosen as scripts/make_figure_data.py does."""
    is_trajectory = spec["family"].endswith("_dynamics") and spec["axis"] == "t"
    return "dynamics" if is_trajectory else "sweep"


def run_cli(argv: list[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"gaussimag {' '.join(argv)} exited with {code}")


def compare_csv(got: str, ref: str, label: str, check: Check, rel: float = 1e-12) -> None:
    """Cells byte-identical or within ``rel``; empty (failed) cells must match.

    Every column but the first (the axis) and ``h_term`` holds a measure
    value; those cells are the evaluations and the empty ones the failures.
    """
    got_rows = [line.split(",") for line in got.splitlines()]
    ref_rows = [line.split(",") for line in ref.splitlines()]
    if len(got_rows) != len(ref_rows) or not ref_rows or got_rows[0] != ref_rows[0]:
        check.errors.append(f"{label}: header or row count differs from the reference")
        return
    value_cols = [i for i, h in enumerate(ref_rows[0]) if i > 0 and h != "h_term"]
    for r, (g_row, r_row) in enumerate(zip(got_rows[1:], ref_rows[1:]), start=2):
        if len(g_row) != len(r_row):
            check.errors.append(f"{label} line {r}: {len(g_row)} cells, reference has {len(r_row)}")
            continue
        for c, (g, want) in enumerate(zip(g_row, r_row)):
            if c in value_cols:
                check.evaluations += 1
                check.named_failures += g == ""
            if g == want:
                continue
            if g == "" or want == "" or not math.isclose(float(g), float(want), rel_tol=rel, abs_tol=rel):
                check.errors.append(f"{label} line {r} cell {c}: {g!r} != reference {want!r}")


class Figures:
    """All checked-in figure specs through ``cli.main``; an item is one grid point."""

    name = "figures"

    def __init__(self, root: pathlib.Path, seed: int, tmp: pathlib.Path):
        self.spec_dir = root / "figures"
        self.tmp = tmp

    def setup(self) -> None:
        self.tasks = []
        warmed = set()
        for path in sorted(self.spec_dir.glob("*.json")):
            spec = json.loads(path.read_text())
            command = figure_command(spec)
            out = self.tmp / f"{path.stem}.csv"
            argv = [command, str(path), "--out", str(out)]
            self.tasks.append(Task(path.stem, int(spec["grid"]["count"]), lambda a=argv: run_cli(a)))
            if (command, spec["family"]) not in warmed:
                warmed.add((command, spec["family"]))
                spec["grid"]["count"] = 3
                small = self.tmp / f"warmup_{path.stem}.json"
                small.write_text(json.dumps(spec))
                run_cli([command, str(small), "--out", str(self.tmp / f"warmup_{path.stem}.csv")])
        if not self.tasks:
            raise FileNotFoundError(f"no figure specs in {self.spec_dir}")

    def pass_tasks(self, p: int) -> list[Task]:
        return self.tasks

    def record(self, task: Task, out) -> None:
        pass  # the CSV files are the output

    def check(self) -> Check:
        check = Check()
        reference = load_reference("figures")
        stems = [t.key for t in self.tasks]
        if sorted(stems) != sorted(reference):
            check.errors.append("figure specs differ from the reference set")
        for stem in stems:
            out = self.tmp / f"{stem}.csv"
            if not out.is_file() or stem not in reference:
                check.errors.append(f"{stem}: no output or no reference")
                continue
            compare_csv(out.read_text(), reference[stem], stem, check)
        return check


# ---------------------------------------------------------------- fuzz

FUZZ_CASES = 200  # cases per run_suite call


class Fuzz:
    """The four property suites through ``fuzz.run_suite``; an item is one case.

    Pass ``p`` runs every suite once on suite seed ``seed * 100000 + p``.
    """

    name = "fuzz"

    def __init__(self, root: pathlib.Path, seed: int, tmp: pathlib.Path):
        self.seed = seed
        self.results = []

    def suite_seed(self, p: int) -> int:
        return self.seed * 100_000 + p

    def setup(self) -> None:
        for suite in fuzz.SUITES:
            fuzz.run_suite(suite, seed=self.suite_seed(0), count=5)

    def pass_tasks(self, p: int) -> list[Task]:
        seed = self.suite_seed(p)
        return [
            Task(suite, FUZZ_CASES, lambda s=suite: fuzz.run_suite(s, seed=seed, count=FUZZ_CASES))
            for suite in fuzz.SUITES
        ]

    def record(self, task: Task, out) -> None:
        self.results.append(out)

    def check(self) -> Check:
        check = Check()
        for result in self.results:
            check.evaluations += result.count
            if result.failures or result.count != FUZZ_CASES:
                check.errors.append(result.summary())
        return check


# ---------------------------------------------------------------- wide

WIDE_MIX = ((8, 16), (16, 16), (32, 6), (64, 2))  # (modes, states) per round
WIDE_ROUNDS = 8  # rounds per run
WIDE_WINDOWS = 8  # distinct runs in the reference pool; seeds wrap around
WIDE_SQUEEZE = 2.0
WIDE_TOL = 1e-9


def wide_pool_size(per_round: int) -> int:
    return WIDE_WINDOWS * WIDE_ROUNDS * per_round


def wide_state(n: int, k: int):
    """State ``k`` of the ``n``-mode reference pool."""
    return sampling.random_state(n, np.random.default_rng([n, k]), max_squeeze=WIDE_SQUEEZE)


def wide_values(report) -> list[float | None]:
    return [report.imaginarity, report.fidelity_imaginarity, report.tsallis_imaginarity]


class Wide:
    """Pre-generated random states of 8 to 64 modes through ``measures.measure_all``.

    An item is one state.  The seed picks one of ``WIDE_WINDOWS`` windows of
    the reference pool; each window holds ``WIDE_ROUNDS`` rounds of
    ``WIDE_MIX``.
    """

    name = "wide"

    def __init__(self, root: pathlib.Path, seed: int, tmp: pathlib.Path):
        window = seed % WIDE_WINDOWS
        self.ids = [
            (n, (window * WIDE_ROUNDS + r) * per_round + j)
            for r in range(WIDE_ROUNDS)
            for n, per_round in WIDE_MIX
            for j in range(per_round)
        ]
        self.values = {}

    def setup(self) -> None:
        self.tasks = []
        for n, k in self.ids:
            state = wide_state(n, k)
            self.tasks.append(Task(f"{n}:{k}", 1, lambda s=state: measures.measure_all(s)))
        for n, _ in WIDE_MIX:
            first = next(t for t in self.tasks if t.key.startswith(f"{n}:"))
            first.call()

    def pass_tasks(self, p: int) -> list[Task]:
        return self.tasks

    def record(self, task: Task, out) -> None:
        self.values.setdefault(task.key, wide_values(out))

    def check(self) -> Check:
        check = Check()
        reference = load_reference("wide")
        for n, k in self.ids:
            key = f"{n}:{k}"
            got = self.values.get(key)
            if got is None:
                check.errors.append(f"state {key}: no output")
                continue
            check.evaluations += len(got)
            check.named_failures += sum(v is None for v in got)
            for label, g, want in zip(("imaginarity", "fidelity", "tsallis"), got, reference[str(n)][k]):
                if want is not None and (g is None or abs(g - want) > WIDE_TOL):
                    check.errors.append(f"state {key} {label}: {g!r} != reference {want!r}")
        return check


WORKLOADS = {w.name: w for w in (Figures, Fuzz, Wide)}
