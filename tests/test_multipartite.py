"""The paper's multipartite claim, through ``imaginarity`` and ``GaussianState.reduce``.

The measure is defined mode-wise, so its value cannot depend on how modes are
grouped into parties, and discarding modes can only lower it.
"""

import itertools

import numpy as np
import pytest

from gaussimag.dynamics import BathParams, evolve
from gaussimag.measures import imaginarity
from gaussimag.sampling import random_real_state, random_state
from gaussimag.states import GaussianState, two_mode_squeezed_vacuum


def all_proper_subsets(n):
    for size in range(1, n):
        yield from itertools.combinations(range(1, n + 1), size)


class TestReductionHierarchy:
    def test_discarding_real_factor(self, rng):
        noisy = random_state(1, rng)
        real = random_real_state(1, rng)
        cm = np.zeros((4, 4))
        cm[:2, :2], cm[2:, 2:] = noisy.cm, real.cm
        product = GaussianState(np.concatenate([noisy.d, real.d]), cm)
        assert imaginarity(product.reduce([1])) == pytest.approx(imaginarity(product), abs=1e-10)

    def test_evolved_bath_state(self):
        bath = BathParams(lam=0.1, n_th=1.5, big_r=1.0, phi=np.pi / 2)
        for t in (0.0, 3.0, 30.0):
            evolved = evolve(two_mode_squeezed_vacuum(1.0), bath, t)
            assert imaginarity(evolved.reduce([1])) <= imaginarity(evolved) + 1e-9

    def test_random_states_never_violate(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 5))
            state = random_state(n, rng)
            full = imaginarity(state)
            for modes in all_proper_subsets(n):
                assert imaginarity(state.reduce(modes)) <= full + 1e-9


class TestRefinementHierarchy:
    def test_keeping_everything_is_equality(self, rng):
        state = random_state(3, rng)
        assert imaginarity(state.reduce([1, 2, 3])) == imaginarity(state)

    def test_random_refinements_hold(self, rng):
        # a nonempty subset of each block of a random two-block partition,
        # kept in block order: a permuted proper or full subset of the modes
        for _ in range(200):
            n = int(rng.integers(2, 5))
            state = random_state(n, rng)
            modes = [int(m) + 1 for m in rng.permutation(n)]
            cut = int(rng.integers(1, n))
            kept = [
                m
                for block in (sorted(modes[:cut]), sorted(modes[cut:]))
                for m in sorted(rng.choice(block, size=int(rng.integers(1, len(block) + 1)), replace=False).tolist())
            ]
            assert imaginarity(state.reduce(kept)) <= imaginarity(state) + 1e-9


class TestModePermutationSymmetry:
    def test_invariant_under_relabeling(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 5))
            state = random_state(n, rng)
            perm = [int(m) + 1 for m in rng.permutation(n)]
            assert imaginarity(state.reduce(perm)) == pytest.approx(
                imaginarity(state), abs=1e-12
            )
