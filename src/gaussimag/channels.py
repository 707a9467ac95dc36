"""Gaussian channels as affine (T, N, d0) maps on states, with realness classification."""

from __future__ import annotations

import enum

import numpy as np

from .errors import AsymmetricNoise, DimensionMismatch, PhysicalityViolation
from .linalg import _scaled_tol, symplectic_form
from .states import ZERO_TOL, GaussianState, real_pattern


class RealnessClass(enum.Enum):
    NOT_REAL = "not_real"
    COMPLETELY_REAL = "completely_real"
    COVARIANT_REAL = "covariant_real"
    BOTH = "both"


class GaussianChannel:
    """Validated n-mode Gaussian channel acting as d -> T d + d0, cm -> T cm T^T + N."""

    __slots__ = ("n", "t", "noise", "d0")

    def __init__(self, t, noise, d0, tol: float | None = None):
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
        tl = _scaled_tol(noise, tol)
        if float(np.abs(noise - noise.T).max()) > tl:
            raise AsymmetricNoise("noise matrix is not symmetric within tolerance")
        noise = 0.5 * (noise + noise.T)
        if float(np.linalg.eigvalsh(noise).min()) < -tl:
            raise PhysicalityViolation("noise matrix is not positive semidefinite")
        delta = symplectic_form(n)
        condition = noise + 1j * (delta - t @ delta @ t.T)
        min_eig = float(np.linalg.eigvalsh(condition).min())
        if min_eig < -_scaled_tol(condition, tol):
            raise PhysicalityViolation(
                f"channel condition N + i(Delta - T Delta T^T) has min eig {min_eig:.3e}"
            )
        for arr in (t, noise, d0):
            arr.setflags(write=False)
        object.__setattr__(self, "n", n)
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
        d_out = self.t @ state.d + self.d0
        cm_out = self.t @ state.cm @ self.t.T + self.noise
        return GaussianState(d_out, cm_out)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "T": self.t.tolist(),
            "N": self.noise.tolist(),
            "d0": self.d0.tolist(),
        }

    @classmethod
    def from_dict(cls, obj: dict, tol: float | None = None) -> "GaussianChannel":
        d0 = np.asarray(obj["d0"], dtype=float)
        if "n" in obj and 2 * int(obj["n"]) != d0.size:
            raise DimensionMismatch(f"declared n={obj['n']} but shift has {d0.size} entries")
        return cls(obj["T"], obj["N"], d0, tol=tol)


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
    if kind not in (RealnessClass.COMPLETELY_REAL, RealnessClass.COVARIANT_REAL):
        raise ValueError(f"kind must be completely or covariant real, got {kind}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    t = rng.uniform(-1.0, 1.0, size=(2 * n, 2 * n))
    if kind is RealnessClass.COMPLETELY_REAL:
        t[1::2, :] = 0.0
    else:
        t[0::2, 1::2] = 0.0
        t[1::2, 0::2] = 0.0
    g = rng.normal(size=(2 * n, 2 * n))
    noise = g @ g.T
    # zeroing the q-p cross entries keeps the matrix PSD (block projection)
    noise[0::2, 1::2] = 0.0
    noise[1::2, 0::2] = 0.0
    d0 = rng.normal(size=2 * n)
    d0[1::2] = 0.0
    delta = symplectic_form(n)
    condition = noise + 1j * (delta - t @ delta @ t.T)
    min_eig = float(np.linalg.eigvalsh(condition).min())
    if min_eig < 0.0:
        noise = noise + (-min_eig + 1e-12 * (1.0 + abs(min_eig))) * np.eye(2 * n)
    return GaussianChannel(t, noise, d0)
