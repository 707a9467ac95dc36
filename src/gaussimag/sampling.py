"""Random generators of valid states and covariance matrices for property tests.

Each sampler comes in two halves.  A ``draw_*`` function holds only one item's
raw generator output, taken in a fixed order; consecutive draws from one
distribution are one call, which yields the same numbers as separate calls.
A ``*_stack`` builder does all the arithmetic (masks, offsets, complex
assembly) on the draws of one mode count, once for the stack ``(B, ...)``.
No builder checks physicality: each output is physical by construction and
only symmetrized.  ``random_state`` and ``random_real_state`` are the builder
on a single draw, so item k of a stack equals the sampler on generator k, byte
for byte.
"""

from __future__ import annotations

import numpy as np

from .linalg import _mT, grouped_index
from .states import GaussianState

# cross_entry_stack first pushes each covariance matrix this far inside the
# physical cone; a planted entry may be up to half of it
_CROSS_MARGIN = 0.25

# distribution parameters of the draw_cm and draw_state draws
_THERMAL_SCALE = 1.0
_PURE_PROB = 0.3
_DISPLACEMENT_SCALE = 1.0
_ZERO_DISPLACEMENT_PROB = 0.25


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
    """Raw draws ``(rs, g)`` of one ``symplectic_stack`` item; ``g`` holds two Ginibre draws."""
    return rng.uniform(0.0, max_squeeze, size=n), rng.normal(size=(4, n, n))


def symplectic_stack(rs: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Symplectic matrices passive * squeeze * passive from draws ``(B, n)``, ``(B, 4, n, n)``."""
    squeeze = np.exp(np.stack((rs, -rs), axis=-1)).reshape(len(rs), -1)
    z1, z2 = g[:, 0] + 1j * g[:, 1], g[:, 2] + 1j * g[:, 3]
    passive = orthogonal_symplectic_stack(np.concatenate([z1, z2]))
    return (passive[: len(rs)] * squeeze[:, None, :]) @ passive[len(rs) :]


def draw_cm(n: int, rng: np.random.Generator, max_squeeze: float = 1.0) -> tuple:
    """Raw draws ``(e, u, rs, g)`` of a ``cm_stack`` item: thermal excesses, pure-mode uniforms."""
    e, u = rng.exponential(_THERMAL_SCALE, size=n), rng.random(n)
    return (e, u, *draw_symplectic(n, rng, max_squeeze))


def cm_stack(draws: list[tuple]) -> np.ndarray:
    """Covariance matrices ``(B, 2n, 2n)`` of ``draw_cm`` draws of one mode count."""
    e, u, rs, g = map(np.array, zip(*draws))
    nus = np.where(u < _PURE_PROB, 1.0, 1.0 + e)
    s = symplectic_stack(rs, g)
    return (s * nus.repeat(2, axis=-1)[:, None, :]) @ _mT(s)


def draw_state(n: int, rng: np.random.Generator, max_squeeze: float = 1.0) -> tuple:
    """Raw draws ``(d, cm_draw)`` of ``random_state``; ``d`` is None for a zero displacement."""
    cm = draw_cm(n, rng, max_squeeze=max_squeeze)
    if rng.random() < _ZERO_DISPLACEMENT_PROB:
        return None, cm
    return rng.normal(scale=_DISPLACEMENT_SCALE, size=2 * n), cm


def state_stack(draws: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """``(d, cm)`` stacks of ``draw_state`` draws of one mode count."""
    d, cms = zip(*draws)
    cm = cm_stack(cms)
    shifted = [k for k, x in enumerate(d) if x is not None]
    d_out = np.zeros(cm.shape[:-1])
    if shifted:
        d_out[shifted] = [d[k] for k in shifted]
    # no validation: S diag(nu) S^T with every nu >= 1 is physical
    return d_out, 0.5 * (cm + _mT(cm))


def random_state(n: int, rng: np.random.Generator, max_squeeze: float = 1.0) -> GaussianState:
    """Random valid state; displacement is zeroed with some probability."""
    d, cm = state_stack([draw_state(n, rng, max_squeeze)])
    return GaussianState._trusted(d[0], cm[0])


def draw_real_state(n: int, rng: np.random.Generator) -> tuple:
    """Raw draws ``(g, w, q)`` of ``random_real_state``; ``w`` is None without a bump."""
    g = rng.normal(size=(n, n))
    if rng.random() > 0.3:
        wq = rng.normal(size=n * n + n)
        return g, wq[: n * n].reshape(n, n), wq[n * n :]
    return g, None, rng.normal(size=n)


def _scaled_gram(w: np.ndarray) -> np.ndarray:
    # 2 w w^T, divided by its spectral norm where that exceeds 1
    gram = w @ _mT(w)
    return 2.0 * gram / np.maximum(1.0, np.linalg.norm(gram, 2, axis=(-2, -1)))[:, None, None]


def real_state_stack(draws: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """``(d, cm)`` stacks of ``draw_real_state`` draws of one mode count."""
    g, w, q = zip(*draws)
    g = np.array(g)
    n = g.shape[-1]
    d = np.zeros((len(g), 2 * n))
    d[:, 0::2] = q
    a11 = _scaled_gram(g) + 0.5 * np.eye(n)
    a22 = np.linalg.inv(a11)
    bumped = [k for k, x in enumerate(w) if x is not None]
    if bumped:
        a22[bumped] = a22[bumped] + _scaled_gram(np.array([w[k] for k in bumped]))
    grouped = np.zeros((len(g), 2 * n, 2 * n))
    grouped[:, :n, :n] = a11
    grouped[:, n:, n:] = a22
    idx = grouped_index(n)
    cm = np.empty_like(grouped)
    cm[:, idx[:, None], idx] = grouped
    # no validation: a block-diagonal cm with A22 >= A11^{-1} is physical
    return d, 0.5 * (cm + _mT(cm))


def random_real_state(n: int, rng: np.random.Generator) -> GaussianState:
    """Random valid state satisfying the realness pattern exactly.

    Built in the grouped (positions, momenta) picture, where validity of a
    block-diagonal covariance matrix reduces to A22 >= A11^{-1}; the momentum
    block saturates that bound with some probability (pure-like boundary).
    """
    d, cm = real_state_stack([draw_real_state(n, rng)])
    return GaussianState._trusted(d[0], cm[0])


def draw_cross_entry(n: int, rng: np.random.Generator, eps: float) -> tuple[int, int, float]:
    """Raw draws ``(k, l, eps)`` of a ``cross_entry_stack`` item: entry (q_k, p_l) gets eps."""
    if not 0.0 < eps <= _CROSS_MARGIN / 2.0:
        raise ValueError(f"eps must be in (0, {_CROSS_MARGIN / 2}], got {eps}")
    return int(rng.integers(n)), int(rng.integers(n)), eps


def cross_entry_stack(cm: np.ndarray, draws: list[tuple]) -> np.ndarray:
    """Covariance matrices ``cm`` with one ``draw_cross_entry`` draw planted in each."""
    k, l, eps = map(np.array, zip(*draws))
    cm = cm + _CROSS_MARGIN * np.eye(cm.shape[-1])
    items = np.arange(len(cm))
    cm[items, 2 * k, 2 * l + 1] += eps
    cm[items, 2 * l + 1, 2 * k] += eps
    # no validation: a planted pair of size eps <= _CROSS_MARGIN / 2 stays inside the margin
    return 0.5 * (cm + _mT(cm))
