"""Gaussian states as (displacement, covariance-matrix) pairs.

Conventions: quadratures interleaved as (q1, p1, ..., qn, pn); the vacuum
covariance matrix is the identity.  A state is physical iff cm + i*Delta >= 0: one the package
builds from checked parameters is wherever it is finite, the one check of ``_built``; input from
outside (``GaussianState(d, cm)``, ``GaussianState.checked``) runs the eigenvalue test ``validate``.
"""

from __future__ import annotations

from collections.abc import Sequence
from numbers import Integral

import numpy as np

from .errors import AsymmetricCM, DimensionMismatch, UncertaintyViolation
from .linalg import ItemErrors, _scaled_tol, flag, symplectic_form

#: absolute threshold below which displacement/CM entries count as zero
ZERO_TOL = 1e-12


def check_zero_tol(zero_tol: float) -> None:
    """Raise ValueError unless ``zero_tol >= 0``; below 0 every state would count as displaced."""
    if not zero_tol >= 0:
        raise ValueError(f"zero_tol must be >= 0, got {zero_tol}")


def momentum_displaced(d: np.ndarray, zero_tol: float = ZERO_TOL):
    """Whether any momentum quadrature is displaced: l1 norm of d[1::2] above zero_tol.

    The one realness test on displacements; a stack ``(B, 2n)`` gives one flag per item.
    Raises ValueError on a negative (or NaN) ``zero_tol``.
    """
    check_zero_tol(zero_tol)
    return np.abs(d[..., 1::2]).sum(axis=-1) > zero_tol


def real_pattern(d: np.ndarray, cm: np.ndarray):
    """True iff no momentum is displaced and no q-p covariance exceeds ZERO_TOL; a flag per item."""
    q_p = np.abs(cm[..., 0::2, 1::2]).max(axis=(-2, -1))
    return ~momentum_displaced(d) & (q_p <= ZERO_TOL)


def momentum_signs(n: int) -> np.ndarray:
    """(1, -1, ..., 1, -1): conjugation flips the sign of every momentum quadrature."""
    o = np.ones(2 * n)
    o[1::2] = -1.0
    return o


def validate(cm: np.ndarray):
    """Validate a stack of covariance matrices ``(B, 2n, 2n)``.

    Returns ``(cm, margin, errors)``: the symmetrized matrices, each item's
    physicality margin (the smallest eigenvalue of cm + i*Delta, NaN where
    that eigenproblem failed or cm holds a non-finite entry) and a list
    holding None or the ``AsymmetricCM``/``UncertaintyViolation``/``LinAlgError``
    of each item.
    """
    eig = ItemErrors(len(cm))
    t = _scaled_tol(cm)
    cm_t = cm.swapaxes(-1, -2)
    asymmetric = np.abs(cm - cm_t).max(axis=(-2, -1)) > t
    cm = 0.5 * (cm + cm_t)
    (eigs,) = eig.call(np.linalg.eigvalsh, cm + 1j * symplectic_form(cm.shape[-1] // 2))
    # LAPACK may return finite eigenvalues for a non-finite cm; they say nothing of it
    margin = np.where(np.isfinite(cm).all(axis=(-2, -1)), eig.spread(eigs.min(axis=-1)), np.nan)
    errors = [None] * len(cm)
    flag(errors, asymmetric, lambda _: AsymmetricCM(
        "covariance matrix is not symmetric within tolerance"
    ))
    flag(errors, [exc is not None for exc in eig.errors], eig.errors.__getitem__)
    # a NaN margin (a non-finite cm) proves nothing, so it fails too
    flag(errors, ~(margin >= -t), lambda k: UncertaintyViolation(
        f"uncertainty principle violated: min eig of cm + i*Delta is {margin[k]:.3e}"
    ))
    return cm, margin, errors


def _checked(d, cm) -> tuple[np.ndarray, np.ndarray, float]:
    d = np.array(d, dtype=float)
    cm = np.array(cm, dtype=float)
    if d.ndim != 1 or d.size < 2 or d.size % 2 != 0:
        raise DimensionMismatch(f"displacement must have even length >= 2, got shape {d.shape}")
    n = d.size // 2
    if cm.shape != (2 * n, 2 * n):
        raise DimensionMismatch(
            f"covariance matrix shape {cm.shape} does not match {2 * n} quadratures"
        )
    cm, margin, errors = validate(cm[None])
    if errors[0] is not None:
        raise errors[0]
    if not np.isfinite(d).all():
        raise ValueError("displacement entries must be finite")
    return d, cm[0], float(margin[0])


def _finite_faults(d: np.ndarray, cm: np.ndarray) -> dict:
    return {  # {fault: (B,) flags} of built stacks, in the order _built raises them
        "covariance matrix is not finite": ~np.isfinite(cm + cm.swapaxes(-1, -2)).all(axis=(-2, -1)),
        "displacement entries must be finite": ~np.isfinite(d).all(axis=-1),
    }


def _built(build, *params) -> GaussianState:
    # the state build stacks from one-item arrays of params, trusted once it is finite
    with np.errstate(over="ignore", invalid="ignore"):
        d, cm = build(*(np.array([x]) for x in params))
        for fault, bad in _finite_faults(d, cm).items():
            if bad[0]:
                raise ValueError(fault)
    return GaussianState._trusted(d[0], cm[0])


class _Frozen:
    """Read-only arrays named by ``__slots__[1:]``; ``n`` is half the first one's length."""

    __slots__ = ()

    @classmethod
    def _trusted(cls, *arrays: np.ndarray):
        # for arrays whose physicality follows from how they were built
        obj = object.__new__(cls)
        obj._set(*arrays)
        return obj

    def _set(self, *arrays: np.ndarray) -> None:
        object.__setattr__(self, "n", len(arrays[0]) // 2)
        for name, arr in zip(self.__slots__[1:], arrays):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n})"


class GaussianState(_Frozen):
    """Validated n-mode Gaussian state.

    Attributes:
        n: mode count.
        d: displacement vector, length 2n (read-only).
        cm: covariance matrix, 2n x 2n symmetric (read-only).
    """

    __slots__ = ("n", "d", "cm")

    def __init__(self, d, cm):
        self._set(*_checked(d, cm)[:2])

    @classmethod
    def checked(cls, d, cm) -> tuple["GaussianState", float]:
        """Validated state together with its physicality margin (min eig of cm + i*Delta)."""
        d, cm, margin = _checked(d, cm)
        return cls._trusted(d, cm), margin

    def conjugate(self) -> "GaussianState":
        """State of the complex-conjugate density operator: d -> O d, cm -> O cm O."""
        o = momentum_signs(self.n)
        # no re-validation: O cm O + i*Delta = O conj(cm + i*Delta) O has the same spectrum
        return GaussianState._trusted(o * self.d, np.outer(o, o) * self.cm)

    def is_real(self) -> bool:
        """True iff no momentum displacement and no q-p covariance is above ZERO_TOL."""
        return bool(real_pattern(self.d, self.cm))

    def reduce(self, modes: Sequence[int]) -> "GaussianState":
        """Restrict to a subset of modes (1-based), keeping the given order."""
        modes = list(modes)
        if not modes:
            raise ValueError("mode subset must be nonempty")
        if len(set(modes)) != len(modes):
            raise ValueError(f"duplicate modes in {modes}")
        for m in modes:
            if isinstance(m, bool) or not isinstance(m, Integral):
                raise ValueError(f"mode labels must be integers, got {m!r}")
            if not 1 <= m <= self.n:
                raise ValueError(f"mode {m} out of range 1..{self.n}")
        idx = np.concatenate([[2 * (m - 1), 2 * m - 1] for m in modes])
        # no re-validation: a principal submatrix of the PSD cm + i*Delta is PSD
        return GaussianState._trusted(self.d[idx], self.cm[np.ix_(idx, idx)])


def coherent_stack(alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(d, cm)`` stacks of products of coherent states, one per row of ``alphas`` ``(B, n)``."""
    d = 2.0 * np.ascontiguousarray(alphas, dtype=complex).view(float)  # (Re, Im) pairs
    return d, np.tile(np.eye(d.shape[-1]), (len(d), 1, 1))


def coherent_state(alphas: Sequence[complex]) -> GaussianState:
    """Product of single-mode coherent states: d interleaves (2 Re a, 2 Im a), cm = I."""
    alphas = np.array([complex(a) for a in alphas])
    if not alphas.size:
        raise ValueError("need at least one mode")
    return _built(coherent_stack, alphas)


def squeezed_thermal_stack(n_th: np.ndarray, zeta: np.ndarray, alpha: np.ndarray):
    """``(d, cm)`` stacks of ``displaced_squeezed_thermal`` over ``(B,)`` parameter arrays."""
    # hypot is the scalar abs(complex); numpy's vectorized complex abs may differ in the last bit
    r = np.hypot(zeta.real, zeta.imag)
    theta = np.where(r > 0, np.angle(zeta), 0.0)
    ch, sh = np.cosh(2 * r), np.sinh(2 * r)
    c, s = np.cos(theta) * sh, np.sin(theta) * sh
    cm = np.stack((ch + c, s, s, ch - c), axis=-1).reshape(-1, 2, 2)
    d = np.stack((2.0 * alpha.real, 2.0 * alpha.imag), axis=-1)
    return d, (1.0 + 2.0 * n_th)[:, None, None] * cm


def displaced_squeezed_thermal(n_th: float, zeta: complex, alpha: complex) -> GaussianState:
    """Single-mode displaced squeezed thermal state.

    The covariance matrix is (1 + 2 n_th) times the squeezed-vacuum CM with
    squeezing magnitude |zeta| and phase arg(zeta); the displacement is
    (2 Re alpha, 2 Im alpha).
    """
    if n_th < 0:
        raise ValueError(f"thermal photon number must be >= 0, got {n_th}")
    return _built(squeezed_thermal_stack, n_th, complex(zeta), complex(alpha))


def two_mode_squeezed_layout(diagonal, cross) -> np.ndarray:
    """4x4 matrices stacked over the arrays' shape: ``diagonal`` on the diagonal,
    ``cross`` between the two positions and ``-cross`` between the two momenta."""
    a, c, z = diagonal, cross, np.zeros_like(diagonal)
    cm = np.stack((a, z, c, z, z, a, z, -c, c, z, a, z, z, -c, z, a), axis=-1)
    return cm.reshape(*z.shape, 4, 4)


def two_mode_squeezed_stack(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(d, cm)`` stacks of ``two_mode_squeezed_vacuum`` over squeezings ``r`` ``(B,)``."""
    cm = two_mode_squeezed_layout(2.0 * np.cosh(2 * r), 2.0 * np.sinh(2 * r))
    return np.zeros((len(r), 4)), cm


def two_mode_squeezed_vacuum(r: float) -> GaussianState:
    """Two-mode squeezed vacuum with the factor-2 covariance normalization.

    Note the r=0 limit is cm = 2*I, deliberately not the single-mode vacuum
    normalization; the dynamics closed forms assume this scaling.
    """
    return _built(two_mode_squeezed_stack, float(r))
