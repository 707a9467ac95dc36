"""Random generators of valid states and covariance matrices for property tests.

Each sampler comes in two halves.  A ``draw_*`` function takes one item's raw
random numbers from its generator, in a fixed order; a ``*_stack`` builder
turns a list of draws of one mode count into a stack ``(B, ...)`` in one go
(stacked QR, products, inverses and validation).  The one-item samplers
(``random_cm``, ``random_state``, ...) are the builder on a single draw, so
item k of a stack equals the sampler run on item k's generator, byte for byte.
"""

from __future__ import annotations

import numpy as np

from .linalg import _mT, grouped_index
from .states import GaussianState, checked_stack

# inject_cross_entry first pushes the covariance matrix this far inside the
# physical cone; a planted entry may be up to half of it
_CROSS_MARGIN = 0.25

# distribution parameters of the draw_cm and draw_state draws
_THERMAL_SCALE = 1.0
_PURE_PROB = 0.3
_DISPLACEMENT_SCALE = 1.0
_ZERO_DISPLACEMENT_PROB = 0.25


def draw_haar(n: int, rng: np.random.Generator) -> np.ndarray:
    """Complex Ginibre matrix ``(n, n)``, the raw draw of one Haar unitary."""
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def orthogonal_symplectic_stack(z: np.ndarray) -> np.ndarray:
    """Orthogonal symplectic matrices ``(B, 2n, 2n)`` from Ginibre draws ``(B, n, n)``."""
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    u = q * (diag / np.abs(diag))[:, None, :]
    # the complex matrix u as the real block [[Re u, -Im u], [Im u, Re u]] of
    # the grouped (q..., p...) order, written straight into (q1, p1, ...) order
    n = z.shape[-1]
    out = np.empty((len(z), 2 * n, 2 * n))
    out[:, 0::2, 0::2] = out[:, 1::2, 1::2] = u.real
    out[:, 0::2, 1::2] = -u.imag
    out[:, 1::2, 0::2] = u.imag
    return out


def draw_symplectic(n: int, rng: np.random.Generator, max_squeeze: float = 1.0) -> tuple:
    """Raw draws ``(rs, z1, z2)`` of one ``symplectic_stack`` item."""
    rs = rng.uniform(0.0, max_squeeze, size=n)
    return rs, draw_haar(n, rng), draw_haar(n, rng)


def symplectic_stack(rs: np.ndarray, z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """Symplectic matrices passive * squeeze * passive from stacked draws."""
    squeeze = np.exp(np.stack((rs, -rs), axis=-1)).reshape(len(rs), -1)
    passive = orthogonal_symplectic_stack(np.concatenate([z1, z2]))
    return (passive[: len(rs)] * squeeze[:, None, :]) @ passive[len(rs) :]


def draw_cm(n: int, rng: np.random.Generator, max_squeeze: float = 1.0) -> tuple:
    """Raw draws ``(nus, rs, z1, z2)`` of ``random_cm``."""
    nus = 1.0 + rng.exponential(_THERMAL_SCALE, size=n)
    nus[rng.random(n) < _PURE_PROB] = 1.0
    return (nus, *draw_symplectic(n, rng, max_squeeze))


def cm_stack(draws: list[tuple]) -> np.ndarray:
    """Covariance matrices ``(B, 2n, 2n)`` of ``draw_cm`` draws of one mode count."""
    nus, rs, z1, z2 = map(np.stack, zip(*draws))
    s = symplectic_stack(rs, z1, z2)
    return (s * nus.repeat(2, axis=-1)[:, None, :]) @ _mT(s)


def random_cm(n: int, rng: np.random.Generator, max_squeeze: float = 1.0) -> np.ndarray:
    """Valid covariance matrix built from a random symplectic normal form."""
    return cm_stack([draw_cm(n, rng, max_squeeze)])[0]


def draw_state(n: int, rng: np.random.Generator, max_squeeze: float = 1.0) -> tuple:
    """Raw draws ``(d, cm_draw)`` of ``random_state``."""
    cm = draw_cm(n, rng, max_squeeze=max_squeeze)
    if rng.random() < _ZERO_DISPLACEMENT_PROB:
        d = np.zeros(2 * n)
    else:
        d = rng.normal(scale=_DISPLACEMENT_SCALE, size=2 * n)
    return d, cm


def state_stack(draws: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """Validated ``(d, cm)`` stacks of ``draw_state`` draws of one mode count."""
    d, cms = zip(*draws)
    return np.stack(d), checked_stack(cm_stack(cms))[0]


def random_state(n: int, rng: np.random.Generator, max_squeeze: float = 1.0) -> GaussianState:
    """Random valid state; displacement is zeroed with some probability."""
    d, cm = state_stack([draw_state(n, rng, max_squeeze)])
    return GaussianState._trusted(d[0], cm[0])


def draw_real_state(n: int, rng: np.random.Generator) -> tuple:
    """Raw draws ``(g, w, d)`` of ``random_real_state``; ``w`` is None without a bump."""
    g = rng.normal(size=(n, n))
    w = rng.normal(size=(n, n)) if rng.random() > 0.3 else None
    d = np.zeros(2 * n)
    d[0::2] = rng.normal(size=n)
    return g, w, d


def _scaled_gram(w: np.ndarray) -> np.ndarray:
    # 2 w w^T, divided by its spectral norm where that exceeds 1
    gram = w @ _mT(w)
    return 2.0 * gram / np.maximum(1.0, np.linalg.norm(gram, 2, axis=(-2, -1)))[:, None, None]


def real_state_stack(draws: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """Validated ``(d, cm)`` stacks of ``draw_real_state`` draws of one mode count."""
    g, w, d = zip(*draws)
    g, d = np.stack(g), np.stack(d)
    n = g.shape[-1]
    a11 = _scaled_gram(g) + 0.5 * np.eye(n)
    a22 = np.linalg.inv(a11)
    bumped = [k for k, x in enumerate(w) if x is not None]
    if bumped:
        a22[bumped] = a22[bumped] + _scaled_gram(np.stack([w[k] for k in bumped]))
    grouped = np.zeros((len(g), 2 * n, 2 * n))
    grouped[:, :n, :n] = a11
    grouped[:, n:, n:] = a22
    idx = grouped_index(n)
    cm = np.empty_like(grouped)
    cm[:, idx[:, None], idx] = grouped
    return d, checked_stack(cm)[0]


def random_real_state(n: int, rng: np.random.Generator) -> GaussianState:
    """Random valid state satisfying the realness pattern exactly.

    Built in the grouped (positions, momenta) picture, where validity of a
    block-diagonal covariance matrix reduces to A22 >= A11^{-1}; the momentum
    block saturates that bound with some probability (pure-like boundary).
    """
    d, cm = real_state_stack([draw_real_state(n, rng)])
    return GaussianState._trusted(d[0], cm[0])


def draw_cross_entry(n: int, rng: np.random.Generator, eps: float) -> tuple[int, int, float]:
    """Raw draws ``(k, l, eps)`` of ``inject_cross_entry``: the entry (q_k, p_l) gets eps."""
    if not 0.0 < eps <= _CROSS_MARGIN / 2.0:
        raise ValueError(f"eps must be in (0, {_CROSS_MARGIN / 2}], got {eps}")
    return int(rng.integers(n)), int(rng.integers(n)), eps


def cross_entry_stack(cm: np.ndarray, draws: list[tuple]) -> np.ndarray:
    """Validated covariance matrices ``cm`` with one ``draw_cross_entry`` draw planted in each."""
    k, l, eps = map(np.array, zip(*draws))
    cm = cm + _CROSS_MARGIN * np.eye(cm.shape[-1])
    items = np.arange(len(cm))
    cm[items, 2 * k, 2 * l + 1] += eps
    cm[items, 2 * l + 1, 2 * k] += eps
    return checked_stack(cm)[0]


def inject_cross_entry(
    state: GaussianState, rng: np.random.Generator, eps: float
) -> GaussianState:
    """Break realness by planting a q-p covariance entry of magnitude eps.

    The covariance matrix is first pushed strictly inside the physical cone so
    the planted entry cannot violate the uncertainty principle; eps must stay
    below half that margin.
    """
    cm = cross_entry_stack(state.cm[None], [draw_cross_entry(state.n, rng, eps)])
    return GaussianState._trusted(state.d, cm[0])
