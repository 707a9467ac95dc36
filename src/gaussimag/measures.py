"""Imaginarity measures for Gaussian states.

Three quantifiers of how far a state is from having a real density operator:

* ``imaginarity`` -- determinant ratio of the covariance matrix against its
  position/momentum blocks plus a 0/1 indicator of momentum displacement.
  Cheap for any mode count; this is the measure the package is built around.
* ``fidelity_imaginarity`` -- one minus the fidelity between the state and its
  conjugate, evaluated through the closed-form Gaussian fidelity chain.
* ``tsallis_imaginarity`` -- one minus a Tsallis-type overlap of order mu,
  evaluated through the symplectic normal form.

Single-mode closed forms of all three are provided for cross-validation.

All three are computed by one stacked core, ``measure_stack``, over arrays
``d: (B, 2n)`` and ``cm: (B, 2n, 2n)``; the single-state functions are its
one-item case.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .errors import ComplexSqrtBranchFailure, InvalidMu, NonRealResult, WilliamsonResidualError
from .linalg import (
    ItemErrors,
    block_split,
    logdet_spd,
    sqrt_principal_stack,
    symplectic_form,
    williamson_stack,
)
from .states import ZERO_TOL, GaussianState, momentum_displaced, momentum_signs


def _solve_vectors(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # stacked solve with one right-hand-side vector per item
    return np.linalg.solve(a, b[..., None])[..., 0]


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # per-item dot products, summed as ``a[k] @ b[k]`` sums them
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _libm(fn, x: np.ndarray) -> np.ndarray:
    # a math-module function item by item: numpy's vectorized exp, expm1 and
    # power may differ from it in the last bit, which would move results
    return np.array([fn(v) for v in x.tolist()])


def momentum_indicator(state: GaussianState, zero_tol: float = ZERO_TOL) -> int:
    """0/1 indicator of any nonzero momentum displacement (l1-norm above zero_tol)."""
    return int(momentum_displaced(state.d, zero_tol))


def _imaginarity_stack(d: np.ndarray, cm: np.ndarray, zero_tol: float):
    # (value, indicator, log dets of cm, A11 and A22) per item; raises
    # LinAlgError when any covariance matrix or block is not positive definite
    blocks = block_split(cm, cm.shape[-1] // 2)
    log_dets = logdet_spd(cm), logdet_spd(blocks.a11), logdet_spd(blocks.a22)
    h = momentum_displaced(d, zero_tol)
    det_part = -_libm(math.expm1, log_dets[0] - log_dets[1] - log_dets[2])  # 1 - ratio
    return np.maximum(0.0, det_part) + h, h, *log_dets


def imaginarity(state: GaussianState, zero_tol: float = ZERO_TOL) -> float:
    """Covariance-ratio imaginarity measure, in [0, 2].

    Value is 1 - det(cm) / (det(A11) det(A22)) plus the momentum-displacement
    indicator, where A11/A22 are the position/momentum blocks of the reordered
    covariance matrix.  Zero exactly on real states; the indicator lifts the
    value into [1, 2] whenever any momentum quadrature is displaced.
    """
    return float(_imaginarity_stack(state.d[None], state.cm[None], zero_tol)[0][0])


def _squeezing_terms(n_th: float, zeta: complex) -> tuple[float, float, float]:
    # (r, theta, sin^2(theta) sinh^2(2r)) of a squeezed thermal mode, zeta = r e^{i theta}
    if n_th < 0:
        raise ValueError(f"thermal photon number must be >= 0, got {n_th}")
    zeta = complex(zeta)
    r = abs(zeta)
    theta = np.angle(zeta) if r > 0 else 0.0
    return r, theta, math.sin(theta) ** 2 * math.sinh(2 * r) ** 2


def imaginarity_single_mode(
    n_th: float, zeta: complex, alpha: complex, zero_tol: float = ZERO_TOL
) -> float:
    """Closed form of ``imaginarity`` on displaced squeezed thermal states.

    Equals 1 - 1/(1 + sin^2(theta) sinh^2(2|zeta|)) plus 1 when Im(alpha) is
    nonzero; independent of the thermal photon number.
    """
    _, _, s2 = _squeezing_terms(n_th, zeta)
    h = 1.0 if 2.0 * abs(complex(alpha).imag) > zero_tol else 0.0
    return 1.0 - 1.0 / (1.0 + s2) + h


def _w_chain_stack(half_cm1: np.ndarray, half_cm2: np.ndarray, errors: ItemErrors):
    # (w_aux, f_tot4) of the stacked chain, for the items still live
    n = half_cm1.shape[-1] // 2
    eye = np.eye(2 * n)
    i_delta = 1j * symplectic_form(n)
    w1 = -2.0 * half_cm1 @ i_delta
    w2 = -2.0 * half_cm2 @ i_delta
    w_aux = -errors.call(np.linalg.solve, w1 + w2, eye + w2 @ w1)[0]
    inv_sq, w_aux = errors.call(
        np.linalg.solve, w_aux @ w_aux, np.broadcast_to(eye, w_aux.shape), carry=(w_aux,)
    )
    # pure modes put the argument exactly on the PSD boundary; clamp the
    # rounding noise around its zero eigenvalues
    before = errors.live
    root = sqrt_principal_stack(eye - inv_sq, errors, clamp_zero_tol=1e-12)
    (w_aux,) = errors.narrow(before, w_aux)
    f_tot4 = np.linalg.det((root + eye) @ w_aux @ i_delta)
    w_aux, f_tot4 = errors.fail(
        np.abs(f_tot4.imag) > 1e-9 * (1.0 + np.abs(f_tot4.real)),
        lambda j: NonRealResult(
            f"total-fidelity determinant has imaginary part {f_tot4[j].imag:.3e}"
        ),
        w_aux, f_tot4,
    )
    return errors.fail(
        f_tot4.real <= 0.0,
        lambda j: NonRealResult(
            f"total-fidelity determinant is not positive: {f_tot4[j].real:.3e}"
        ),
        w_aux, f_tot4,
    )


def _fidelity_w_chain(half_cm1: np.ndarray, half_cm2: np.ndarray) -> dict:
    """Auxiliary-matrix chain of the closed-form Gaussian fidelity.

    Operates on half-normalized covariance matrices (vacuum = I/2); the
    determinant of the assembled matrix is the fourth power of the
    un-normalized total fidelity.  The square root must stay on the principal
    branch, so the determinant is checked for a spurious imaginary residue.
    """
    errors = ItemErrors(1)
    w_aux, f_tot4 = _w_chain_stack(
        np.asarray(half_cm1, dtype=float)[None], np.asarray(half_cm2, dtype=float)[None], errors
    )
    errors.raise_first()
    return {"w_aux": w_aux[0], "f_tot4": complex(f_tot4[0])}


def _fidelity_stack(d: np.ndarray, cm: np.ndarray, errors: ItemErrors):
    # (f0, value) of the chain between each state and its conjugate, for the items still live
    o = momentum_signs(cm.shape[-1] // 2)
    # conjugation by diag(o) only flips signs, so it is applied elementwise
    conj_cm = np.outer(o, o) * cm
    before = errors.live
    _, f_tot4 = _w_chain_stack(0.5 * cm, 0.5 * conj_cm, errors)
    d, cm, conj_cm = errors.narrow(before, d, cm, conj_cm)
    cm_sum, dd = cm + conj_cm, d - o * d
    log_det, f_tot4, cm_sum, dd = errors.call(logdet_spd, 0.5 * cm_sum, carry=(f_tot4, cm_sum, dd))
    f0 = _libm(lambda v: v**0.25, f_tot4.real) / _libm(lambda v: v**0.25, np.exp(log_det))
    x, f0, dd = errors.call(_solve_vectors, cm_sum, dd, carry=(f0, dd))
    return f0, 1.0 - f0 * _libm(math.exp, -0.25 * _dot(dd, x))


def _fidelity_chain(state: GaussianState) -> dict:
    """Evaluate the Gaussian fidelity between a state and its conjugate.

    Returns ``{"f0", "value"}``: the fidelity without its displacement factor,
    and one minus the fidelity, so both can be regression-tested.  The
    square-root branch of the chain is pinned through ``_fidelity_w_chain``.
    """
    errors = ItemErrors(1)
    f0, value = _fidelity_stack(state.d[None], state.cm[None], errors)
    errors.raise_first()
    return {"f0": f0[0].item(), "value": value[0].item()}


def fidelity_imaginarity(state: GaussianState) -> float:
    """One minus the fidelity between the state and its conjugate."""
    return _fidelity_chain(state)["value"]


def fidelity_imaginarity_single_mode(n_th: float, zeta: complex, alpha: complex) -> float:
    """Closed form of ``fidelity_imaginarity`` on displaced squeezed thermal states."""
    r, theta, s2 = _squeezing_terms(n_th, zeta)
    im_a = complex(alpha).imag
    numer = math.exp(
        -2.0 * im_a**2 / ((2 * n_th + 1) * (math.cosh(2 * r) - math.cos(theta) * math.sinh(2 * r)))
    )
    lam4 = 4.0 * n_th**2 * (n_th + 1) ** 2  # = 4 * Lambda with Lambda the purity defect term
    denom = math.sqrt(math.sqrt((2 * n_th + 1) ** 2 * (1.0 + s2) + lam4) - 2 * n_th * (n_th + 1))
    return 1.0 - numer / denom


def _mu_weights(nus: np.ndarray, mu: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # q = exp(-eta) per symplectic eigenvalue; q = 0 is the pure-state limit.
    # q**mu has a sqrt-type cusp at q = 0, so eigenvalues within rounding
    # noise of 1 must be snapped to the limit or the cusp amplifies the noise.
    q = np.where(nus <= 1.0 + 1e-10, 0.0, (nus - 1.0) / (nus + 1.0))
    factors = (1.0 - q) / ((1.0 - q**mu) * (1.0 - q ** (1.0 - mu)))
    scale_mu = 2.0 / (1.0 - q**mu) - 1.0
    scale_1mu = 2.0 / (1.0 - q ** (1.0 - mu)) - 1.0
    return factors, scale_mu, scale_1mu


def _check_mu(mu: float) -> None:
    if not 0.0 < mu < 1.0:
        raise InvalidMu(f"mu must be in (0, 1), got {mu}")


def _tsallis_stack(d: np.ndarray, cm: np.ndarray, mu: float, errors: ItemErrors) -> np.ndarray:
    # Tsallis-type measure of each state, for the items still live
    n = cm.shape[-1] // 2
    before = errors.live
    s, nus, _ = williamson_stack(cm, errors)
    (d,) = errors.narrow(before, d)
    factors, scale_mu, scale_1mu = _mu_weights(nus, mu)
    s_t = s.swapaxes(-1, -2)
    cm_mu = (s * scale_mu.repeat(2, axis=-1)[:, None, :]) @ s_t
    cm_1mu = (s * scale_1mu.repeat(2, axis=-1)[:, None, :]) @ s_t
    o = momentum_signs(n)
    # conjugation by diag(o) only flips signs, so it is applied elementwise
    cm_sum = cm_mu + np.outer(o, o) * cm_1mu
    cm_sum = 0.5 * (cm_sum + cm_sum.swapaxes(-1, -2))
    log_det, factors, cm_sum, d = errors.call(logdet_spd, cm_sum, carry=(factors, cm_sum, d))
    prefactor = 2.0**n * np.prod(factors, axis=-1) / np.sqrt(np.exp(log_det))
    dd = d - o * d
    x, prefactor, dd = errors.call(_solve_vectors, cm_sum, dd, carry=(prefactor, dd))
    exponent = -0.5 * _dot(dd, x)
    return 1.0 - prefactor * _libm(math.exp, exponent)


def tsallis_imaginarity(state: GaussianState, mu: float) -> float:
    """One minus the Tsallis-type overlap of order mu between state and conjugate.

    Needs the full symplectic normal form of the covariance matrix, so this is
    the most expensive of the three measures.
    """
    _check_mu(mu)
    errors = ItemErrors(1)
    value = _tsallis_stack(state.d[None], state.cm[None], mu, errors)
    errors.raise_first()
    return float(value[0])


def tsallis_imaginarity_single_mode(n_th: float, zeta: complex, alpha: complex, mu: float) -> float:
    """Closed form of ``tsallis_imaginarity`` on displaced squeezed thermal states."""
    _check_mu(mu)
    r, theta, s2 = _squeezing_terms(n_th, zeta)
    x = n_th / (n_th + 1.0)
    pm = (1.0 - x**mu) * (1.0 - x ** (1.0 - mu))
    g = 2.0 * (1.0 - x) / pm
    h2 = (1.0 + x**mu) * (1.0 + x ** (1.0 - mu)) / pm
    prefactor = g / math.sqrt(g**2 + 4.0 * h2 * s2)
    im_a = complex(alpha).imag
    exp_num = (
        -4.0 * im_a**2 * (1.0 - x) * (math.cosh(2 * r) + math.cos(theta) * math.sinh(2 * r))
    )
    exp_den = (1.0 - x) ** 2 / pm + (1.0 + x**mu) * (1.0 + x ** (1.0 - mu)) * s2
    return 1.0 - prefactor * math.exp(exp_num / exp_den)


@dataclass
class MeasureReport:
    """All three measures of one state plus the diagnostics behind the cheap one."""

    imaginarity: float
    h_term: int
    det_cm: float
    det_pos_block: float
    det_mom_block: float
    zero_tol: float
    mu: float | None = None
    fidelity_imaginarity: float | None = None
    tsallis_imaginarity: float | None = None
    fidelity_error: str | None = None
    tsallis_error: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


_NUMERIC_FAILURES = (
    ComplexSqrtBranchFailure,
    NonRealResult,
    WilliamsonResidualError,
    np.linalg.LinAlgError,
)


def _describe(exc: BaseException | None) -> str | None:
    return None if exc is None else f"{type(exc).__name__}: {exc}"


@dataclass
class StackReport:
    """All three measures of a stack of B states, as arrays over the stack.

    Item k holds what ``measure_all`` reports on state k: a failed value is
    NaN, and ``failures[k]`` holds the exceptions of its (imaginarity,
    fidelity, Tsallis) paths, None where the path succeeded.
    """

    mu: float
    zero_tol: float
    imaginarity: np.ndarray  # (B,)
    h_term: np.ndarray  # (B,) 0/1
    log_dets: np.ndarray  # (B, 3): log det of cm, A11, A22
    fidelity_imaginarity: np.ndarray  # (B,)
    tsallis_imaginarity: np.ndarray  # (B,)
    failures: list[tuple[BaseException | None, BaseException | None, BaseException | None]]

    def report(self, k: int) -> MeasureReport:
        """Item k as a ``MeasureReport``, with failures as error strings.

        Raises what ``measure_all`` raises on state k: a failure of the
        covariance-ratio measure, or one of the fragile paths that is not a
        numeric failure.
        """
        imag_exc, fid_exc, ts_exc = self.failures[k]
        if imag_exc is not None:
            raise imag_exc
        for exc in (fid_exc, ts_exc):
            if exc is not None and not isinstance(exc, _NUMERIC_FAILURES):
                raise exc
        fidelity = None if fid_exc is not None else float(self.fidelity_imaginarity[k])
        tsallis = None if ts_exc is not None else float(self.tsallis_imaginarity[k])
        det_cm, det_a11, det_a22 = np.exp(self.log_dets[k]).tolist()
        return MeasureReport(
            imaginarity=float(self.imaginarity[k]),
            h_term=int(self.h_term[k]),
            det_cm=det_cm,
            det_pos_block=det_a11,
            det_mom_block=det_a22,
            zero_tol=self.zero_tol,
            mu=self.mu,
            fidelity_imaginarity=fidelity,
            tsallis_imaginarity=tsallis,
            fidelity_error=_describe(fid_exc),
            tsallis_error=_describe(ts_exc),
        )


def measure_stack(
    d: np.ndarray, cm: np.ndarray, mu: float = 0.5, zero_tol: float = ZERO_TOL
) -> StackReport:
    """Evaluate all three measures on a stack of valid states in one pass.

    Args:
        d: displacements, shape (B, 2n).
        cm: covariance matrices, shape (B, 2n, 2n), already validated.
        mu: Tsallis order in (0, 1).
        zero_tol: threshold of the momentum indicator.

    A failure stays with its item: the item's value is NaN, its exception is
    kept in ``failures``, and it takes no part in later stages.  Items that
    fail the covariance-ratio measure skip the fragile paths.
    """
    _check_mu(mu)
    d = np.asarray(d, dtype=float)
    cm = np.asarray(cm, dtype=float)
    base = ItemErrors(len(cm))
    ((value, h, *log_dets),) = base.call(partial(_imaginarity_stack, zero_tol=zero_tol), d, cm)
    d, cm = base.narrow(np.arange(len(cm)), d, cm)
    fid, ts = base.copy(), base.copy()
    _, fidelity = _fidelity_stack(d, cm, fid)
    tsallis = _tsallis_stack(d, cm, mu, ts)
    return StackReport(
        mu=mu,
        zero_tol=zero_tol,
        imaginarity=base.spread(value),
        h_term=base.spread(1.0 * h),
        log_dets=base.spread(np.stack(log_dets, axis=-1)),
        fidelity_imaginarity=fid.spread(fidelity),
        tsallis_imaginarity=ts.spread(tsallis),
        failures=list(zip(base.errors, fid.errors, ts.errors)),
    )


def measure_all(state: GaussianState, mu: float = 0.5, zero_tol: float = ZERO_TOL) -> MeasureReport:
    """Evaluate all three measures; the fragile paths may fail and are flagged.

    The covariance-ratio measure always succeeds on a valid state.  Failures of
    the fidelity or Tsallis path are captured as messages instead of raising.
    """
    return measure_stack(state.d[None], state.cm[None], mu, zero_tol).report(0)
