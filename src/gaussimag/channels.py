"""Gaussian channels as affine (T, N, d0) maps on states, with realness classification."""

from __future__ import annotations

import enum

import numpy as np

from .errors import AsymmetricNoise, DimensionMismatch, PhysicalityViolation
from .linalg import _mT, _scaled_tol, symplectic_form
from .states import ZERO_TOL, GaussianState, _Frozen, real_pattern


class RealnessClass(enum.Enum):
    NOT_REAL = "not_real"
    COMPLETELY_REAL = "completely_real"
    COVARIANT_REAL = "covariant_real"
    BOTH = "both"


def _checked(t, noise, d0) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float]:
    t, noise, d0 = (np.array(a, dtype=float) for a in (t, noise, d0))
    if d0.ndim != 1 or d0.size < 2 or d0.size % 2 != 0:
        raise DimensionMismatch(f"shift must have even length >= 2, got shape {d0.shape}")
    n = d0.size // 2
    if t.shape != (2 * n, 2 * n) or noise.shape != (2 * n, 2 * n):
        raise DimensionMismatch(
            f"matrix shapes {t.shape}, {noise.shape} do not match {2 * n} quadratures"
        )
    for name, arr in (("T", t), ("N", noise), ("d0", d0)):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} entries must be finite")
    tl = _scaled_tol(noise)
    if float(np.abs(noise - noise.T).max()) > tl:
        raise AsymmetricNoise("noise matrix is not symmetric within tolerance")
    noise = 0.5 * (noise + noise.T)
    noise_min = float(np.linalg.eigvalsh(noise).min())
    if noise_min < -tl:
        raise PhysicalityViolation("noise matrix is not positive semidefinite")
    delta = symplectic_form(n)
    condition = noise + 1j * (delta - t @ delta @ t.T)
    condition_min = float(np.linalg.eigvalsh(condition).min())
    if condition_min < -_scaled_tol(condition):
        raise PhysicalityViolation(
            f"channel condition N + i(Delta - T Delta T^T) has min eig {condition_min:.3e}"
        )
    return t, noise, d0, noise_min, condition_min


class GaussianChannel(_Frozen):
    """Validated n-mode Gaussian channel acting as d -> T d + d0, cm -> T cm T^T + N."""

    __slots__ = ("n", "t", "noise", "d0")

    def __init__(self, t, noise, d0):
        self._set(*_checked(t, noise, d0)[:3])

    @classmethod
    def checked(cls, t, noise, d0) -> tuple["GaussianChannel", float, float]:
        """Validated channel with the min eigenvalues of N and of N + i(Delta - T Delta T^T)."""
        t, noise, d0, noise_min, condition_min = _checked(t, noise, d0)
        return cls._trusted(t, noise, d0), noise_min, condition_min

    def apply(self, state: GaussianState) -> GaussianState:
        if state.n != self.n:
            raise DimensionMismatch(f"channel has {self.n} modes, state has {state.n}")
        d, cm = apply_stack(
            self.t[None], self.noise[None], self.d0[None], state.d[None], state.cm[None]
        )
        return GaussianState._trusted(d[0], cm[0])


def classify_real(channel: GaussianChannel) -> RealnessClass:
    """Classify a channel by the sparsity patterns that preserve state realness.

    A real channel needs zero momentum shift and a checkerboard noise pattern;
    it is completely real when every even row of T vanishes (output is always
    real), covariant real when T couples q only to q and p only to p.
    """
    t, noise, d0 = channel.t, channel.noise, channel.d0
    completely = completely_real(t, noise, d0)
    q_p = float(np.abs(np.stack([t[0::2, 1::2], t[1::2, 0::2]])).max())
    covariant = real_pattern(d0, noise) and q_p <= ZERO_TOL
    if completely:
        return RealnessClass.BOTH if covariant else RealnessClass.COMPLETELY_REAL
    return RealnessClass.COVARIANT_REAL if covariant else RealnessClass.NOT_REAL


def completely_real(t: np.ndarray, noise: np.ndarray, d0: np.ndarray):
    """Whether d0 and noise have the real pattern and T's momentum rows vanish; a flag per item."""
    t_p = np.abs(t[..., 1::2, :]).max(axis=(-2, -1))
    return real_pattern(d0, noise) & (t_p <= ZERO_TOL)


def apply_stack(
    t: np.ndarray, noise: np.ndarray, d0: np.ndarray, d: np.ndarray, cm: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Outputs ``(d, cm)`` of channels ``(t, noise, d0)`` on states ``(d, cm)``, stacks of B.

    Channels and states must be physical: the outputs are only symmetrized.
    """
    d_out = (t @ d[..., None])[..., 0] + d0
    cm_out = t @ cm @ _mT(t) + noise
    # no validation: a physical channel maps a physical state to a physical state
    return d_out, 0.5 * (cm_out + _mT(cm_out))


def draw_real_channel(n: int, kind: RealnessClass, rng: np.random.Generator) -> tuple:
    """Raw draws ``(kind, u, x)`` of ``random_real_channel``: T's uniforms, noise and d0 normals."""
    if kind not in (RealnessClass.COMPLETELY_REAL, RealnessClass.COVARIANT_REAL):
        raise ValueError(f"kind must be completely or covariant real, got {kind}")
    return kind, rng.random((2 * n, 2 * n)), rng.normal(size=2 * n * (2 * n + 1))


def real_channel_stack(draws: list[tuple]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Channels ``(t, noise, d0)`` of ``draw_real_channel`` draws of one mode count, stacked."""
    kinds, u, x = zip(*draws)
    # T uniform on [-1, 1], as rng.uniform(-1.0, 1.0) computes it from the same draws
    t, x = -1.0 + 2.0 * np.array(u), np.array(x)
    m = t.shape[-1]
    # each T on its kind's support: the kinds of one stack may differ
    completely = np.array([kind is RealnessClass.COMPLETELY_REAL for kind in kinds])
    t[completely, 1::2, :] = 0.0
    t[~completely, 0::2, 1::2] = t[~completely, 1::2, 0::2] = 0.0
    g, d0 = x[:, : m * m].reshape(-1, m, m).copy(), x[:, m * m :].copy()
    d0[:, 1::2] = 0.0
    noise = g @ _mT(g)
    # zeroing the q-p cross entries keeps the matrix PSD (block projection)
    noise[:, 0::2, 1::2] = 0.0
    noise[:, 1::2, 0::2] = 0.0
    delta = symplectic_form(d0.shape[-1] // 2)
    condition = noise + 1j * (delta - t @ delta @ _mT(t))
    min_eig = np.linalg.eigvalsh(condition).min(axis=-1)
    short = min_eig < 0.0
    shift = -min_eig[short] + 1e-12 * (1.0 + np.abs(min_eig[short]))
    noise[short] += shift[:, None, None] * np.eye(len(delta))
    return t, noise, d0


def random_real_channel(n: int, kind: RealnessClass, seed) -> GaussianChannel:
    """Sample a random channel with the requested realness pattern.

    T entries are uniform on [-1, 1] over the allowed support; the noise starts
    from a random Gram matrix restricted to the checkerboard support and is
    inflated by the smallest multiple of the identity restoring physicality
    (the exact shift is read off the spectrum of the channel condition).

    Args:
        n: mode count.
        kind: COMPLETELY_REAL or COVARIANT_REAL.
        seed: int seed or a numpy Generator.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    t, noise, d0 = real_channel_stack([draw_real_channel(n, kind, rng)])
    # no re-validation: the noise is a block-projected Gram matrix plus a
    # nonnegative shift, and the shift makes the channel condition PSD
    return GaussianChannel._trusted(t[0], noise[0], d0[0])
