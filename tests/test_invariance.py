"""Every measure is invariant under real Gaussian unitaries.

A real unitary maps real states to real states, so no imaginarity measure can
tell a state from its image (Hickey and Gour, J. Phys. A 51, 414009, 2018).
In these conventions those are the symplectic S with P S P = S; in grouped
quadrature order they are S = A (+) A^{-T} for a real invertible A.
"""

import numpy as np
import pytest

from gaussimag.linalg import grouped_index
from gaussimag.measures import measure_stack
from gaussimag.sampling import random_state


def real_unitary(n: int, rng: np.random.Generator, cond: float) -> np.ndarray:
    # S = A (+) A^{-T} in interleaved quadrature order, with cond(A) = cond
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
    a = q1 @ np.diag(np.geomspace(1.0, cond, n)) @ q2
    s = np.zeros((2 * n, 2 * n))
    q, p = grouped_index(n)[:n], grouped_index(n)[n:]
    s[np.ix_(q, q)] = a
    s[np.ix_(p, p)] = np.linalg.inv(a).T
    return s


@pytest.mark.parametrize("n", [2, 4, 8])
def test_measures_are_invariant_under_real_unitaries(n):
    rng = np.random.default_rng([9, n])
    states = [random_state(n, rng, max_squeeze=2.0) for _ in range(40)]
    s = np.stack([real_unitary(n, rng, 10.0) for _ in states])
    d, cm = np.stack([x.d for x in states]), np.stack([x.cm for x in states])
    before = measure_stack(d, cm)
    after = measure_stack((s @ d[..., None])[..., 0], s @ cm @ s.swapaxes(-1, -2))
    assert before.failures == after.failures == [(None, None, None)] * len(states)
    assert np.abs(after.imaginarity - before.imaginarity).max() <= 1e-12
    assert np.abs(after.tsallis_imaginarity - before.tsallis_imaginarity).max() <= 1e-11
    # set from measurement: the largest gap, 4.4e-7 at n = 2, is between two
    # values the fidelity chain computes itself, one of them 4.4e-7 from the
    # mpmath oracle; the 30 values the spectral stage computes here are
    # within 6e-15 of it
    assert np.abs(after.fidelity_imaginarity - before.fidelity_imaginarity).max() <= 1e-6
