"""Random generators of valid states and covariance matrices for property tests."""

from __future__ import annotations

import numpy as np

from .linalg import grouped_index
from .states import GaussianState


def random_orthogonal_symplectic(n: int, rng: np.random.Generator) -> np.ndarray:
    """Orthogonal symplectic matrix (passive transformation) from a Haar unitary."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    # the complex matrix u as the real block [[Re u, -Im u], [Im u, Re u]] of
    # the grouped (q..., p...) order, written straight into (q1, p1, ...) order
    out = np.empty((2 * n, 2 * n))
    out[0::2, 0::2] = out[1::2, 1::2] = u.real
    out[0::2, 1::2] = -u.imag
    out[1::2, 0::2] = u.imag
    return out


def random_symplectic(n: int, rng: np.random.Generator, max_squeeze: float = 1.0) -> np.ndarray:
    """Random symplectic matrix as passive * squeeze * passive."""
    rs = rng.uniform(0.0, max_squeeze, size=n)
    squeeze = np.exp(np.column_stack((rs, -rs))).ravel()
    return (random_orthogonal_symplectic(n, rng) * squeeze) @ random_orthogonal_symplectic(n, rng)


def random_cm(
    n: int,
    rng: np.random.Generator,
    max_squeeze: float = 1.0,
    thermal_scale: float = 1.0,
    pure_prob: float = 0.3,
) -> np.ndarray:
    """Valid covariance matrix built from a random symplectic normal form."""
    nus = 1.0 + rng.exponential(thermal_scale, size=n)
    nus[rng.random(n) < pure_prob] = 1.0
    s = random_symplectic(n, rng, max_squeeze)
    return (s * np.repeat(nus, 2)) @ s.T


def random_state(
    n: int,
    rng: np.random.Generator,
    max_squeeze: float = 1.0,
    displacement_scale: float = 1.0,
    zero_displacement_prob: float = 0.25,
) -> GaussianState:
    """Random valid state; displacement is zeroed with some probability."""
    cm = random_cm(n, rng, max_squeeze=max_squeeze)
    if rng.random() < zero_displacement_prob:
        d = np.zeros(2 * n)
    else:
        d = rng.normal(scale=displacement_scale, size=2 * n)
    return GaussianState(d, cm)


def random_real_state(n: int, rng: np.random.Generator) -> GaussianState:
    """Random valid state satisfying the realness pattern exactly.

    Built in the grouped (positions, momenta) picture, where validity of a
    block-diagonal covariance matrix reduces to A22 >= A11^{-1}; the momentum
    block saturates that bound with some probability (pure-like boundary).
    """
    g = rng.normal(size=(n, n))
    gram = g @ g.T
    a11 = 2.0 * gram / max(1.0, float(np.linalg.norm(gram, 2))) + 0.5 * np.eye(n)
    a22 = np.linalg.inv(a11)
    if rng.random() > 0.3:
        w = rng.normal(size=(n, n))
        bump = w @ w.T
        a22 = a22 + 2.0 * bump / max(1.0, float(np.linalg.norm(bump, 2)))
    grouped = np.zeros((2 * n, 2 * n))
    grouped[:n, :n] = a11
    grouped[n:, n:] = a22
    idx = grouped_index(n)
    cm = np.empty((2 * n, 2 * n))
    cm[np.ix_(idx, idx)] = grouped
    d = np.zeros(2 * n)
    d[0::2] = rng.normal(size=n)
    return GaussianState(d, cm)


def inject_cross_entry(
    state: GaussianState, rng: np.random.Generator, eps: float
) -> GaussianState:
    """Break realness by planting a q-p covariance entry of magnitude eps.

    The covariance matrix is first pushed strictly inside the physical cone so
    the planted entry cannot violate the uncertainty principle; eps must stay
    below half that margin.
    """
    margin = 0.25
    if not 0.0 < eps <= margin / 2.0:
        raise ValueError(f"eps must be in (0, {margin / 2}], got {eps}")
    n = state.n
    k = int(rng.integers(n))
    l = int(rng.integers(n))
    row, col = 2 * k, 2 * l + 1
    cm = state.cm + margin * np.eye(2 * n)
    cm[row, col] += eps
    cm[col, row] += eps
    return GaussianState(state.d, cm)
