"""Random generators of passive transformations and covariance matrices."""

import numpy as np
import pytest

from gaussimag.linalg import symplectic_form
from gaussimag.sampling import random_cm, random_orthogonal_symplectic
from gaussimag.states import GaussianState


@pytest.mark.parametrize("n", range(1, 9))
def test_orthogonal_symplectic(n, rng):
    o = random_orthogonal_symplectic(n, rng)
    delta = symplectic_form(n)
    assert np.abs(o @ o.T - np.eye(2 * n)).max() <= 1e-12
    assert np.abs(o @ delta @ o.T - delta).max() <= 1e-12


@pytest.mark.parametrize("n", range(1, 17))
def test_random_cm_is_physical(n, rng):
    for _ in range(5):
        cm = random_cm(n, rng, max_squeeze=2.0)
        GaussianState(np.zeros(2 * n), cm)  # raises unless symmetric and physical
