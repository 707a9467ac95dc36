import numpy as np
import pytest
from hypothesis import settings

from gaussimag.sampling import cm_stack, cross_entry_stack, draw_cm, draw_cross_entry, random_state
from gaussimag.states import GaussianState

settings.register_profile("ci", max_examples=50, deadline=None, derandomize=True)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_hermitian_pd(dim: int, rng: np.random.Generator, ridge: float = 0.1) -> np.ndarray:
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return x @ x.conj().T + ridge * np.eye(dim)


def random_cm(n: int, rng: np.random.Generator, max_squeeze: float = 1.0) -> np.ndarray:
    # a valid covariance matrix from one draw of the stacked sampler
    return cm_stack([draw_cm(n, rng, max_squeeze)])[0]


def inject_cross_entry(state: GaussianState, rng: np.random.Generator, eps: float) -> GaussianState:
    # the state with a q-p covariance entry of magnitude eps planted, from one draw
    cm = cross_entry_stack(state.cm[None], [draw_cross_entry(state.n, rng, eps)])
    return GaussianState._trusted(state.d, cm[0])


def wide_state(n: int, k: int) -> GaussianState:
    # state k of the benchmark's n-mode wide pool (test_sampling pins its bytes)
    return random_state(n, np.random.default_rng([n, k]), max_squeeze=2.0)


def wide_stack(n: int, ks) -> tuple[np.ndarray, np.ndarray]:
    # (d, cm) of the wide pool's n-mode states ks, in one stack
    states = [wide_state(n, k) for k in ks]
    return np.stack([s.d for s in states]), np.stack([s.cm for s in states])
