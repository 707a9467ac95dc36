"""Randomized property suites runnable from the CLI and the test suite.

Case k of a suite draws the stream of ``np.random.default_rng([seed, k])``, so
any failing case can be reproduced in isolation.
A case's margin is the signed amount by which it approaches its bound;
positive margin means the property failed.

A suite first takes every case's raw random numbers, one generator at a
time, then builds, validates and scores the cases of one mode count in
stacked calls; margins are recorded in case order.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .channels import RealnessClass, apply_stack, completely_real, draw_real_channel
from .channels import real_channel_stack
from .linalg import ItemErrors, williamson_stack
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


_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_PCG_MULT = 2549297995355413924 << 64 | 4865540595714422341  # PCG64's multiplier


def _hasher(const: int, mult: int):
    # numpy's SeedSequence hash of 32-bit words; each call advances the constant
    def hash_(value):
        nonlocal const
        value = (value ^ const) * (const := const * mult & _MASK32) & _MASK32
        return value ^ value >> 16

    return hash_


def _case_states(seed: int, count: int) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``default_rng([seed, case])`` for every case < count < 2**32.

    SeedSequence's 32-bit words are Python ints where all cases share them (the
    seed's) and uint64 arrays masked to 32 bits, one lane per case, from the
    last (the case's) on; PCG64's srandom step runs on Python ints.
    """
    seed = operator.index(seed)  # TypeError on a non-integer seed
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    words = [seed >> s & _MASK32 for s in range(0, seed.bit_length() or 1, 32)]
    entropy = [*words, np.arange(count, dtype=np.uint64)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(word) for word in (entropy + [0, 0, 0])[:4]] + entropy[4:]
    # each pool word mixed with every other, then with each entropy word past the pool
    past = itertools.product(range(4, len(pool)), range(4))
    for src, dst in itertools.chain(itertools.permutations(range(4), 2), past):
        value = (0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(pool[src])) & _MASK32
        pool[dst] = value ^ value >> 16
    # generate_state(4, np.uint64): eight words cycling the pool, low word first
    out = list(map(_hasher(0x8B51F9DD, 0x58F38DED), pool[:4] * 2))
    s_hi, s_lo, i_hi, i_lo = ((out[k] | out[k + 1] << 32).tolist() for k in range(0, 8, 2))
    incs = [((hi << 64 | lo) << 1 | 1) & _MASK128 for hi, lo in zip(i_hi, i_lo)]
    seeds = zip(incs, s_hi, s_lo)
    return [(((inc + (hi << 64 | lo)) * _PCG_MULT + inc) & _MASK128, inc) for inc, hi, lo in seeds]


def _draw_by_mode_count(seed: int, count: int, modes: tuple[int, int], draw) -> dict:
    # {n: (cases, draws)}, cases in case order: case k takes n = rng.integers(*modes),
    # then draw(k, n, rng), from one generator set to default_rng([seed, k])'s stream
    rng = np.random.Generator(np.random.PCG64(0))
    state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}
    groups = {}
    for case, (pcg_state, inc) in enumerate(_case_states(seed, count)):
        rng.bit_generator.state = state | {"state": {"state": pcg_state, "inc": inc}}
        n = int(rng.integers(*modes))
        cases, draws = groups.setdefault(n, ([], []))
        cases.append(case)
        draws.append(draw(case, n, rng))
    return groups


@cache
def _subset_index(n: int, k: int) -> np.ndarray:
    # quadrature indices (K, 2k) of every k-mode subset of n modes, modes ascending
    subsets = itertools.combinations(range(n), k)
    idx = np.array([[2 * m + a for m in modes for a in (0, 1)] for modes in subsets])
    idx.setflags(write=False)  # shared by every caller
    return idx


def run_monotonicity(seed: int, count: int, tol: float) -> FuzzResult:
    """Imaginarity never increases under random real channels.

    Completely real channels must additionally output exactly-real states.
    """
    kinds = (RealnessClass.COMPLETELY_REAL, RealnessClass.COVARIANT_REAL)

    def draw(case, n, rng):
        return draw_state(n, rng), draw_real_channel(n, kinds[case % 2], rng)

    values, out_real = np.empty((2, count)), np.empty(count, dtype=bool)
    for pos, draws in _draw_by_mode_count(seed, count, (1, 4), draw).values():
        state_draws, channel_draws = zip(*draws)
        d, cm = state_stack(state_draws)
        t, noise, d0 = real_channel_stack(channel_draws)
        d_out, cm_out = apply_stack(t, noise, d0, d, cm)
        real = np.array(pos) % 2 == 0
        assert completely_real(t[real], noise[real], d0[real]).all()
        out_real[pos] = real_pattern(d_out, cm_out)  # read for completely real cases only
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

    def draw(case, n, rng):
        real = draw_real_state(n, rng)
        if case % 2 == 0:
            return real, None
        eps = float(np.exp(rng.uniform(np.log(1e-3), np.log(0.1))))
        return real, draw_cross_entry(n, rng, eps)

    values = np.empty(count)
    for pos, draws in _draw_by_mode_count(seed, count, (1, 5), draw).values():
        real_draws, planted = zip(*draws)
        d, cm = real_state_stack(real_draws)
        odd = [j for j, k in enumerate(pos) if k % 2 == 1]
        if odd:
            cm[odd] = cross_entry_stack(cm[odd], [planted[j] for j in odd])
        values[pos] = _imaginarity_stack(d, cm, ZERO_TOL)[0]
    margin = np.where(np.arange(count) % 2 == 0, values - tol, 1e-8 - values)
    return FuzzResult("faithfulness", count, tol, seed).record_all(margin)


def run_hierarchy(seed: int, count: int, tol: float) -> FuzzResult:
    """Reduction never raises imaginarity; mode permutations never change it."""

    def draw(case, n, rng):
        return draw_state(n, rng), rng.permutation(n)

    margin = np.empty(count)
    for n, (pos, draws) in _draw_by_mode_count(seed, count, (2, 5), draw).items():
        state_draws, perms = zip(*draws)
        d, cm = state_stack(state_draws)
        # each state and its mode permutation, scored in one stack
        items = np.arange(len(pos))[:, None]
        perm = 2 * np.array(perms)[:, :, None] + (0, 1)
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
    margin = np.empty(count)
    groups = _draw_by_mode_count(seed, count, (1, 5), lambda case, n, rng: draw_cm(n, rng))
    for pos, draws in groups.values():
        cm = cm_stack(draws)
        # residuals are measured here against the suite tolerance, so the
        # internal residual guard is disabled
        errors = ItemErrors(len(pos))
        _, _, residual = williamson_stack(cm, errors, tol=float("inf"))
        errors.raise_first()
        margin[pos] = residual - tol
    return FuzzResult("williamson", count, tol, seed).record_all(margin)


# each suite's runner and default tol
_RUNNERS = {
    "monotonicity": (run_monotonicity, 1e-9),
    "faithfulness": (run_faithfulness, 1e-10),
    "hierarchy": (run_hierarchy, 1e-9),
    "williamson": (run_williamson, 1e-8),
}
SUITES = tuple(_RUNNERS)
DEFAULT_TOLS = {suite: tol for suite, (_, tol) in _RUNNERS.items()}


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
    run, default_tol = _RUNNERS[suite]
    tol = default_tol if tol is None else tol
    # a NaN margin never counts as a failure, and an infinite tol moves every margin to +-inf
    if not math.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol}")
    if (count := operator.index(count)) < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    return run(seed, count, tol)
