"""Gaussian channels as affine (T, N, d0) maps on states, with realness classification."""

from __future__ import annotations

import enum

import numpy as np

from .errors import AsymmetricNoise, DimensionMismatch, PhysicalityViolation
from .linalg import _mT, _scaled_tol, symplectic_form
from .states import ZERO_TOL, GaussianState, checked_stack, real_pattern


class RealnessClass(enum.Enum):
    NOT_REAL = "not_real"
    COMPLETELY_REAL = "completely_real"
    COVARIANT_REAL = "covariant_real"
    BOTH = "both"


class GaussianChannel:
    """Validated n-mode Gaussian channel acting as d -> T d + d0, cm -> T cm T^T + N."""

    __slots__ = ("n", "t", "noise", "d0")

    def __init__(self, t, noise, d0):
        t = np.array(t, dtype=float)
        noise = np.array(noise, dtype=float)
        d0 = np.array(d0, dtype=float)
        if d0.ndim != 1 or d0.size < 2 or d0.size % 2 != 0:
            raise DimensionMismatch(f"shift must have even length >= 2, got shape {d0.shape}")
        n = d0.size // 2
        if t.shape != (2 * n, 2 * n) or noise.shape != (2 * n, 2 * n):
            raise DimensionMismatch(
                f"matrix shapes {t.shape}, {noise.shape} do not match {2 * n} quadratures"
            )
        tl = _scaled_tol(noise)
        if float(np.abs(noise - noise.T).max()) > tl:
            raise AsymmetricNoise("noise matrix is not symmetric within tolerance")
        noise = 0.5 * (noise + noise.T)
        if float(np.linalg.eigvalsh(noise).min()) < -tl:
            raise PhysicalityViolation("noise matrix is not positive semidefinite")
        delta = symplectic_form(n)
        condition = noise + 1j * (delta - t @ delta @ t.T)
        min_eig = float(np.linalg.eigvalsh(condition).min())
        if min_eig < -_scaled_tol(condition):
            raise PhysicalityViolation(
                f"channel condition N + i(Delta - T Delta T^T) has min eig {min_eig:.3e}"
            )
        self._set(t, noise, d0)

    @classmethod
    def _trusted(cls, t: np.ndarray, noise: np.ndarray, d0: np.ndarray) -> "GaussianChannel":
        # for arrays whose physicality follows from how they were built
        channel = object.__new__(cls)
        channel._set(t, noise, d0)
        return channel

    def _set(self, t: np.ndarray, noise: np.ndarray, d0: np.ndarray) -> None:
        for arr in (t, noise, d0):
            arr.setflags(write=False)
        object.__setattr__(self, "n", d0.size // 2)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "noise", noise)
        object.__setattr__(self, "d0", d0)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianChannel is immutable")

    def __repr__(self):
        return f"GaussianChannel(n={self.n})"

    def apply(self, state: GaussianState) -> GaussianState:
        if state.n != self.n:
            raise DimensionMismatch(f"channel has {self.n} modes, state has {state.n}")
        d, cm = apply_stack(
            self.t[None], self.noise[None], self.d0[None], state.d[None], state.cm[None]
        )
        return GaussianState._trusted(d[0], cm[0])

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "T": self.t.tolist(),
            "N": self.noise.tolist(),
            "d0": self.d0.tolist(),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "GaussianChannel":
        d0 = np.asarray(obj["d0"], dtype=float)
        if "n" in obj and 2 * int(obj["n"]) != d0.size:
            raise DimensionMismatch(f"declared n={obj['n']} but shift has {d0.size} entries")
        return cls(obj["T"], obj["N"], d0)


def classify_real(channel: GaussianChannel, zero_tol: float = ZERO_TOL) -> RealnessClass:
    """Classify a channel by the sparsity patterns that preserve state realness.

    A real channel needs zero momentum shift and a checkerboard noise pattern;
    it is completely real when every even row of T vanishes (output is always
    real), covariant real when T couples q only to q and p only to p.
    """
    t, noise, d0 = channel.t, channel.noise, channel.d0
    if not real_pattern(d0, noise, zero_tol):
        return RealnessClass.NOT_REAL
    completely = float(np.abs(t[1::2, :]).max()) <= zero_tol
    covariant = (
        float(np.abs(t[0::2, 1::2]).max()) <= zero_tol
        and float(np.abs(t[1::2, 0::2]).max()) <= zero_tol
    )
    if completely and covariant:
        return RealnessClass.BOTH
    if completely:
        return RealnessClass.COMPLETELY_REAL
    if covariant:
        return RealnessClass.COVARIANT_REAL
    return RealnessClass.NOT_REAL


def apply_stack(
    t: np.ndarray, noise: np.ndarray, d0: np.ndarray, d: np.ndarray, cm: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Outputs ``(d, cm)`` of channels ``(t, noise, d0)`` on states ``(d, cm)``, stacks of B.

    The output covariance matrices are validated; the first failed item raises.
    """
    d_out = (t @ d[..., None])[..., 0] + d0
    cm_out = t @ cm @ _mT(t) + noise
    return d_out, checked_stack(cm_out)[0]


def draw_real_channel(n: int, kind: RealnessClass, rng: np.random.Generator) -> tuple:
    """Raw draws ``(t, g, d0)`` of ``random_real_channel``, T and d0 on their allowed support."""
    if kind not in (RealnessClass.COMPLETELY_REAL, RealnessClass.COVARIANT_REAL):
        raise ValueError(f"kind must be completely or covariant real, got {kind}")
    t = rng.uniform(-1.0, 1.0, size=(2 * n, 2 * n))
    if kind is RealnessClass.COMPLETELY_REAL:
        t[1::2, :] = 0.0
    else:
        t[0::2, 1::2] = 0.0
        t[1::2, 0::2] = 0.0
    g = rng.normal(size=(2 * n, 2 * n))
    d0 = rng.normal(size=2 * n)
    d0[1::2] = 0.0
    return t, g, d0


def real_channel_stack(draws: list[tuple]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Channels ``(t, noise, d0)`` of ``draw_real_channel`` draws of one mode count, stacked."""
    t, g, d0 = map(np.stack, zip(*draws))
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
