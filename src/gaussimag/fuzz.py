"""Randomized property suites runnable from the CLI and the test suite.

Each suite draws its cases from per-case child generators seeded as
(base_seed, case_index), so any failing case can be reproduced in isolation.
A case's margin is the signed amount by which it approaches its bound;
positive margin means the property failed.

A suite first draws and validates every case, one generator at a time, then
scores the drawn states of one mode count in one stacked call; margins are
recorded in case order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import combinations

import numpy as np

from .channels import RealnessClass, classify_real, random_real_channel
from .linalg import ItemErrors, symplectic_form, williamson_stack
from .measures import _imaginarity_stack
from .sampling import inject_cross_entry, random_cm, random_real_state, random_state
from .states import ZERO_TOL

SUITES = ("monotonicity", "faithfulness", "hierarchy", "williamson")

DEFAULT_TOLS = {
    "monotonicity": 1e-9,
    "faithfulness": 1e-10,
    "hierarchy": 1e-9,
    "williamson": 1e-8,
}


@dataclass
class FuzzResult:
    suite: str
    count: int
    tol: float
    seed: int
    failures: int = 0
    worst_margin: float = float("-inf")
    failing_cases: list[tuple[int, float]] = field(default_factory=list)

    def record(self, case: int, margin: float):
        self.worst_margin = max(self.worst_margin, margin)
        if margin > 0.0:
            self.failures += 1
            if len(self.failing_cases) < 10:
                self.failing_cases.append((case, margin))

    def record_all(self, margins: np.ndarray) -> "FuzzResult":
        for case, margin in enumerate(margins.tolist()):
            self.record(case, margin)
        return self

    def summary(self) -> str:
        lines = [
            f"suite={self.suite} cases={self.count} failures={self.failures} "
            f"worst_margin={self.worst_margin:.3e} tol={self.tol:.3e} seed={self.seed}"
        ]
        for case, margin in self.failing_cases:
            lines.append(f"FAIL case={case} seed=({self.seed},{case}) margin={margin:.3e}")
        return "\n".join(lines)


def _case_rng(seed: int, case: int) -> np.random.Generator:
    return np.random.default_rng([seed, case])


def _by_mode_count(cms: list[np.ndarray]) -> dict[int, list[int]]:
    # positions of the items of each mode count, in item order
    groups = {}
    for k, cm in enumerate(cms):
        groups.setdefault(len(cm) // 2, []).append(k)
    return groups


def _imaginarities(states) -> np.ndarray:
    """``imaginarity`` of each state, in order, from one stacked call per mode count."""
    values = np.empty(len(states))
    for pos in _by_mode_count([s.cm for s in states]).values():
        d = np.stack([states[k].d for k in pos])
        cm = np.stack([states[k].cm for k in pos])
        values[pos] = _imaginarity_stack(d, cm, ZERO_TOL)[0]
    return values


@cache
def _subset_index(n: int, k: int) -> np.ndarray:
    # quadrature indices (K, 2k) of every k-mode subset of n modes, modes ascending
    subsets = combinations(range(n), k)
    idx = np.array([[2 * m + a for m in modes for a in (0, 1)] for modes in subsets])
    idx.setflags(write=False)  # shared by every caller
    return idx


def _frobenius(m: np.ndarray) -> np.ndarray:
    return np.linalg.norm(m, axis=(-2, -1))


def run_monotonicity(seed: int, count: int, tol: float) -> FuzzResult:
    """Imaginarity never increases under random real channels.

    Completely real channels must additionally output exactly-real states.
    """
    kinds = (RealnessClass.COMPLETELY_REAL, RealnessClass.COVARIANT_REAL)
    states, out_real = [], np.ones(count, dtype=bool)
    for case in range(count):
        rng = _case_rng(seed, case)
        n = int(rng.integers(1, 4))
        state = random_state(n, rng)
        kind = kinds[case % 2]
        channel = random_real_channel(n, kind, rng)
        out = channel.apply(state)
        if kind is RealnessClass.COMPLETELY_REAL:
            out_real[case] = out.is_real()
            assert classify_real(channel) in (kind, RealnessClass.BOTH)
        states += [state, out]
    values = _imaginarities(states).reshape(count, 2)
    breaking = values[:, 1] - 1e-10
    breaking = np.where(out_real, breaking, np.maximum(breaking, 1.0))
    margin = values[:, 1] - values[:, 0] - tol
    margin = np.where(np.arange(count) % 2 == 0, np.maximum(margin, breaking), margin)
    return FuzzResult("monotonicity", count, tol, seed).record_all(margin)


def run_faithfulness(seed: int, count: int, tol: float) -> FuzzResult:
    """Real-patterned states measure ~0; planted cross entries measure > 0."""
    states = []
    for case in range(count):
        rng = _case_rng(seed, case)
        n = int(rng.integers(1, 5))
        real = random_real_state(n, rng)
        if case % 2 == 0:
            states.append(real)
        else:
            eps = float(np.exp(rng.uniform(np.log(1e-3), np.log(0.1))))
            states.append(inject_cross_entry(real, rng, eps))
    values = _imaginarities(states)
    margin = np.where(np.arange(count) % 2 == 0, values - tol, 1e-8 - values)
    return FuzzResult("faithfulness", count, tol, seed).record_all(margin)


def run_hierarchy(seed: int, count: int, tol: float) -> FuzzResult:
    """Reduction never raises imaginarity; mode permutations never change it."""
    states, perms = [], []
    for case in range(count):
        rng = _case_rng(seed, case)
        n = int(rng.integers(2, 5))
        states.append(random_state(n, rng))
        perms.append(rng.permutation(n))
    margin = np.empty(count)
    for n, pos in _by_mode_count([s.cm for s in states]).items():
        d = np.stack([states[k].d for k in pos])
        cm = np.stack([states[k].cm for k in pos])
        # each state and its mode permutation, scored in one stack
        items = np.arange(len(pos))[:, None]
        perm = 2 * np.stack([perms[k] for k in pos])[:, :, None] + (0, 1)
        perm = perm.reshape(len(pos), 2 * n)
        both = _imaginarity_stack(
            np.concatenate([d, d[items, perm]]),
            np.concatenate([cm, cm[items[:, :, None], perm[:, :, None], perm[:, None, :]]]),
            ZERO_TOL,
        )[0]
        full, permuted = both[: len(pos)], both[len(pos) :]
        worst = np.abs(permuted - full) - 1e-12
        for k in range(1, n):
            idx = _subset_index(n, k)
            sub = _imaginarity_stack(
                d[:, idx].reshape(-1, 2 * k),
                cm[:, idx[:, :, None], idx[:, None, :]].reshape(-1, 2 * k, 2 * k),
                ZERO_TOL,
            )[0].reshape(len(pos), len(idx))
            worst = np.maximum(worst, (sub - full[:, None] - tol).max(axis=1))
        margin[pos] = worst
    return FuzzResult("hierarchy", count, tol, seed).record_all(margin)


def run_williamson(seed: int, count: int, tol: float) -> FuzzResult:
    """Symplectic normal form reconstructs random covariance matrices."""
    cms = []
    for case in range(count):
        rng = _case_rng(seed, case)
        cms.append(random_cm(int(rng.integers(1, 5)), rng))
    margin = np.empty(count)
    for n, pos in _by_mode_count(cms).items():
        cm = np.stack([cms[k] for k in pos])
        # residuals are measured here against the suite tolerance, so the
        # internal residual guard is disabled
        errors = ItemErrors(len(pos))
        s, nus = williamson_stack(cm, errors, tol=float("inf"))
        errors.raise_first()
        delta = symplectic_form(n)
        s_t = s.swapaxes(-1, -2)
        res_cm = _frobenius((s * nus.repeat(2, axis=-1)[:, None, :]) @ s_t - cm) / _frobenius(cm)
        res_sympl = _frobenius(s @ delta @ s_t - delta)
        margin[pos] = np.maximum(res_cm, res_sympl) - tol
    return FuzzResult("williamson", count, tol, seed).record_all(margin)


_RUNNERS = {
    "monotonicity": run_monotonicity,
    "faithfulness": run_faithfulness,
    "hierarchy": run_hierarchy,
    "williamson": run_williamson,
}


def run_suite(suite: str, seed: int = 0, count: int = 1000, tol: float | None = None) -> FuzzResult:
    if suite not in _RUNNERS:
        raise KeyError(f"unknown suite {suite!r}; choose from {SUITES}")
    if tol is None:
        tol = DEFAULT_TOLS[suite]
    return _RUNNERS[suite](seed, count, tol)
