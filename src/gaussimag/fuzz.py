"""Randomized property suites runnable from the CLI and the test suite.

Each suite draws its cases from per-case child generators seeded as
(base_seed, case_index), so any failing case can be reproduced in isolation.
A case's margin is the signed amount by which it approaches its bound;
positive margin means the property failed.

A suite first takes every case's raw random numbers, one generator at a
time, then builds, validates and scores the cases of one mode count in
stacked calls; margins are recorded in case order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import combinations

import numpy as np

from .channels import (
    GaussianChannel,
    RealnessClass,
    apply_stack,
    classify_real,
    draw_real_channel,
    real_channel_stack,
)
from .linalg import ItemErrors, symplectic_form, williamson_stack
from .measures import _imaginarity_stack
from .sampling import (
    cm_stack,
    cross_entry_stack,
    draw_cm,
    draw_cross_entry,
    draw_real_state,
    draw_state,
    real_state_stack,
    state_stack,
)
from .states import ZERO_TOL, real_pattern

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


def _by_mode_count(ns: list[int]) -> dict[int, list[int]]:
    # positions of the cases of each mode count, in case order
    groups = {}
    for k, n in enumerate(ns):
        groups.setdefault(n, []).append(k)
    return groups


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
    ns, state_draws, channel_draws = [], [], []
    for case in range(count):
        rng = _case_rng(seed, case)
        n = int(rng.integers(1, 4))
        ns.append(n)
        state_draws.append(draw_state(n, rng))
        channel_draws.append(draw_real_channel(n, kinds[case % 2], rng))
    values, out_real = np.empty((2, count)), np.ones(count, dtype=bool)
    for pos in _by_mode_count(ns).values():
        d, cm = state_stack([state_draws[k] for k in pos])
        t, noise, d0 = real_channel_stack([channel_draws[k] for k in pos])
        d_out, cm_out = apply_stack(t, noise, d0, d, cm)
        for j, k in enumerate(pos):
            if kinds[k % 2] is RealnessClass.COMPLETELY_REAL:
                out_real[k] = real_pattern(d_out[j], cm_out[j])
                channel = GaussianChannel._trusted(t[j], noise[j], d0[j])
                assert classify_real(channel) in (kinds[0], RealnessClass.BOTH)
        # each input and its output, scored in one stack
        both = _imaginarity_stack(
            np.concatenate([d, d_out]), np.concatenate([cm, cm_out]), ZERO_TOL
        )[0]
        values[:, pos] = both.reshape(2, len(pos))
    breaking = values[1] - 1e-10
    breaking = np.where(out_real, breaking, np.maximum(breaking, 1.0))
    margin = values[1] - values[0] - tol
    margin = np.where(np.arange(count) % 2 == 0, np.maximum(margin, breaking), margin)
    return FuzzResult("monotonicity", count, tol, seed).record_all(margin)


def run_faithfulness(seed: int, count: int, tol: float) -> FuzzResult:
    """Real-patterned states measure ~0; planted cross entries measure > 0."""
    ns, real_draws, planted = [], [], {}
    for case in range(count):
        rng = _case_rng(seed, case)
        n = int(rng.integers(1, 5))
        ns.append(n)
        real_draws.append(draw_real_state(n, rng))
        if case % 2 == 1:
            eps = float(np.exp(rng.uniform(np.log(1e-3), np.log(0.1))))
            planted[case] = draw_cross_entry(n, rng, eps)
    values = np.empty(count)
    for pos in _by_mode_count(ns).values():
        d, cm = real_state_stack([real_draws[k] for k in pos])
        odd = [j for j, k in enumerate(pos) if k in planted]
        if odd:
            cm[odd] = cross_entry_stack(cm[odd], [planted[pos[j]] for j in odd])
        values[pos] = _imaginarity_stack(d, cm, ZERO_TOL)[0]
    margin = np.where(np.arange(count) % 2 == 0, values - tol, 1e-8 - values)
    return FuzzResult("faithfulness", count, tol, seed).record_all(margin)


def run_hierarchy(seed: int, count: int, tol: float) -> FuzzResult:
    """Reduction never raises imaginarity; mode permutations never change it."""
    ns, draws, perms = [], [], []
    for case in range(count):
        rng = _case_rng(seed, case)
        n = int(rng.integers(2, 5))
        ns.append(n)
        draws.append(draw_state(n, rng))
        perms.append(rng.permutation(n))
    margin = np.empty(count)
    for n, pos in _by_mode_count(ns).items():
        d, cm = state_stack([draws[k] for k in pos])
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
    ns, draws = [], []
    for case in range(count):
        rng = _case_rng(seed, case)
        ns.append(int(rng.integers(1, 5)))
        draws.append(draw_cm(ns[-1], rng))
    margin = np.empty(count)
    for n, pos in _by_mode_count(ns).items():
        cm = cm_stack([draws[k] for k in pos])
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
    """Run ``count`` cases of one suite; ``tol`` defaults to ``DEFAULT_TOLS[suite]``.

    ``tol`` moves the bound of each suite's main property only.  Three
    bounds stay fixed whatever ``tol`` is:

    - faithfulness: a planted cross entry must measure above 1e-8;
    - monotonicity: a completely real channel's output must measure at most
      1e-10 (and be exactly real);
    - hierarchy: a mode permutation may move the measure by at most 1e-12.
    """
    if suite not in _RUNNERS:
        raise KeyError(f"unknown suite {suite!r}; choose from {SUITES}")
    if tol is None:
        tol = DEFAULT_TOLS[suite]
    return _RUNNERS[suite](seed, count, tol)
