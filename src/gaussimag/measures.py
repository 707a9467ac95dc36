"""Imaginarity measures for Gaussian states.

Three quantifiers of how far a state is from having a real density operator:

* ``imaginarity`` -- determinant ratio of the covariance matrix against its
  position/momentum blocks plus a 0/1 indicator of momentum displacement.
  Cheap for any mode count; this is the measure the package is built around.
* ``fidelity_imaginarity`` -- one minus the fidelity ``f0 E = sqrt(F)`` between
  the state and its conjugate, through the closed-form Gaussian fidelity chain.
* ``tsallis_imaginarity`` -- one minus a Tsallis-type overlap Q_mu of order mu,
  through the symplectic normal form.  Both overlaps end in the same Gaussian
  tail, a log-determinant and a displacement quadratic form.

Single-mode closed forms of all three are provided for cross-validation.

All three are computed by one stacked core, ``measure_stack``, over arrays
``d: (B, 2n)`` and ``cm: (B, 2n, 2n)``; the single-state functions are its
one-item case.  Its stages follow ``linalg``'s rule for stacked routines:
each intermediate is freed at its last use, and nothing handed in is written.

The certificate ladder.  A measure whose overlap is at most ``SETTLED`` (2^-58)
is 1.0 in double, and where a certificate shows that, the fragile stage is skipped:

1. The fidelity tail runs first.  Each factor of ``f_tot4 = prod(sqrt(1 + mu) +
   sqrt(mu))`` is >= 1, so ``det(Sigma/2)^(-1/4) E <= f0 E``; only an item whose
   floor is at most ``SETTLED`` is picked to try 2 and 3.
2. The determinant bound ``f_tot4 <= (1 + 1/t)^n det((1 + t)(-Y^2) - t I)^(1/2)``
   (t = ``BOUND_T``), from ``(sqrt(1 + mu) + sqrt(mu))^2 <= (1 + 1/t)(1 + (1 + t) mu)``,
   tried where its value at det = 1 is at most ``SETTLED`` (stage "bound", bits 0-1).
3. Else the spectral ``f_tot4`` ("spectral", bits 2-3).  An item 2 or 3 settles skips the chain.
4. The rest run the chain ("chain", bits 4-5).  An item it fails takes the spectral
   ``f_tot4``: a picked item's from 3, any other's from the spectral rescue ("spectral").
5. Tsallis: ``F = (f0 E)^2 <= Q_1/2 <= Q_mu <= Q_1/2^(2 min(mu, 1 - mu)) <= (f0 E)^(2
   min(mu, 1 - mu))``, as log Q_s is convex (Audenaert et al., PRL 98, 160501, 2007).
   The normal form ("normal form", bits 8-9) is skipped where that upper bound, or else the
   spectral overlap ("overlap", bits 6-7, tried where ``(f0 E)^OVERLAP_GATE <= SETTLED``),
   is at most ``SETTLED``.

Each of 2-5 and the normal form runs on its items through ``_run_at``, on an
``ItemErrors`` of its own, and sets its bits in each item's route record
(``StackReport.stages``): the low one if it was handed the item, the high one if it
failed it.  A certificate that fails an item only leaves it unsettled.  Otherwise an
item keeps its first failure: one that fails the tail never reaches the chain, and
one the chain and the rescue both fail keeps the chain's exception.  The one-state
``tsallis_imaginarity`` always runs the normal form.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property, partial
from itertools import repeat

import numpy as np

from .errors import DimensionMismatch, InvalidMu, NonRealResult
from .linalg import (
    ItemErrors,
    block_split,
    logdet_spd,
    spectral_core,
    sqrt_principal_stack,
    symplectic_form,
    williamson_stack,
)
from .states import ZERO_TOL, GaussianState, check_zero_tol, momentum_displaced, momentum_signs


def _libm(fn, x: np.ndarray, *args) -> np.ndarray:
    # fn(v, *args) item by item over a 1-D array, as scalar code computes it:
    # numpy's vectorized exp, expm1, cosh, sinh, arcsinh and power (even its
    # square) may differ from the math-module functions and ``**`` in the last bit
    return np.fromiter(map(fn, x.tolist(), *map(repeat, args)), float, x.size)


def _overlap_tail(half: np.ndarray, d: np.ndarray, errors: ItemErrors, *carry: np.ndarray):
    # (log det half, dd half^{-1} dd, *carry) over the live items, dd = d - P d:
    # the Gaussian tail of the fidelity (Banchi, Braunstein and Pirandola, PRL 115,
    # 260501, 2015; half = Sigma / 2) and of the Tsallis overlap (Pirandola and
    # Lloyd, PRA 78, 012331, 2008)
    log_det, half, d, *carry = errors.call(logdet_spd, half, carry=(half, d, *carry))
    dd = d - momentum_signs(d.shape[-1] // 2) * d
    x, log_det, dd, *carry = errors.call(
        lambda a, b: np.linalg.solve(a, b[..., None])[..., 0], half, dd, carry=(log_det, dd, *carry)
    )
    return log_det, np.matmul(dd[:, None, :], x[:, :, None])[:, 0, 0], *carry


def _imaginarity_stack(d: np.ndarray, cm: np.ndarray, zero_tol: float):
    # (value, indicator, log dets of cm, A11 and A22) per item; raises
    # LinAlgError when any covariance matrix or block is not positive definite
    blocks = block_split(cm)
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
    check_zero_tol(zero_tol)
    h = 1.0 if 2.0 * abs(complex(alpha).imag) > zero_tol else 0.0
    return 1.0 - 1.0 / (1.0 + s2) + h


def _w_chain_stack(cm: np.ndarray, errors: ItemErrors):
    """``(w_aux, f_tot4)`` of the fidelity chain between each state and its conjugate.

    ``f_tot4`` is the fourth power of the un-normalized total fidelity; an
    imaginary residue in it means the square root left the principal branch.
    """
    n = cm.shape[-1] // 2
    eye = np.eye(2 * n)
    i_delta = 1j * symplectic_form(n)
    o = momentum_signs(n)
    w1 = -cm @ i_delta
    # the conjugate's cm is diag(o) cm diag(o), a sign flip applied elementwise
    w2 = (-np.outer(o, o) * cm) @ i_delta
    rhs = w2 @ w1
    rhs += eye
    w1 += w2
    del w2
    (w_aux,) = errors.call(np.linalg.solve, w1, rhs)
    del w1, rhs
    np.negative(w_aux, out=w_aux)
    inv_sq, w_aux = errors.call(np.linalg.inv, w_aux @ w_aux, carry=(w_aux,))
    np.subtract(eye, inv_sq, out=inv_sq)
    live = errors.live
    (root,) = sqrt_principal_stack(inv_sq, errors)
    del inv_sq
    w_aux = w_aux[errors.kept(live)]
    root += eye
    f_tot4 = root @ w_aux
    del root
    f_tot4 = np.linalg.det(f_tot4 @ i_delta)
    imag = np.abs(f_tot4.imag) > 1e-9 * (1.0 + np.abs(f_tot4.real))
    return errors.fail(
        ~np.isfinite(f_tot4) | imag | (f_tot4.real <= 0.0),
        lambda j: NonRealResult(
            f"total-fidelity determinant has imaginary part {f_tot4[j].imag:.3e}"
            if imag[j] else f"total-fidelity determinant is not positive: {f_tot4[j].real:.3e}"
        ) if np.isfinite(f_tot4[j]) else OverflowError("total-fidelity determinant overflows"),
        w_aux, f_tot4,
    )


# symplectic eigenvalues up to this count as pure modes (nu = 1): both fragile
# paths have a square-root cusp at nu = 1 that would amplify rounding noise
PURE_NU = 1.0 + 1e-10


def _spectral_f_tot4_stack(cm: np.ndarray, errors: ItemErrors) -> np.ndarray:
    """``_w_chain_stack``'s ``f_tot4`` between each state and its conjugate.

    Real arithmetic throughout, after the spectral form of Banchi, Braunstein
    and Pirandola (PRL 115, 260501, 2015).  With ``cm = L L^T``, ``K = L^T Delta L``,
    ``K^T K = U diag(nu^2) U^T`` and ``T = L U``, ``W1^2 - I = T E T^{-1}`` with
    ``E = nu^2 - 1`` (0 on pure modes) and ``(W1 + W2)^{-1} = -i Delta Sigma^{-1}``,
    ``Sigma = cm + P cm P``.  The 2n values ``mu`` are the squared eigenvalues of
    ``T^{-1} (-Delta Sigma^{-1}) P T E``, and ``f_tot4 = prod(sqrt(1 + mu) + sqrt(mu))``:
    the chain's ``prod(w + sqrt(w^2 - 1))`` without its cusp at ``w = 1``.
    """
    o = momentum_signs(cm.shape[-1] // 2)
    sigma = np.outer(o, o) * cm
    np.add(cm, sigma, out=sigma)
    chol, k, nu2, u, sigma = spectral_core(cm, errors, sigma)
    # T^{-1} = -diag(nu^-2) U^T K L^T Delta, from K^2 = -U diag(nu^2) U^T, so the
    # matrix is -diag(nu^-2) U^T K L^T Sigma^{-1} P L U E; the columns of pure
    # modes are exact zeros, which LAPACK's balancing isolates
    m = u.swapaxes(-1, -2) @ k
    del k
    m = m @ chol.swapaxes(-1, -2)
    x = o[:, None] * chol
    del chol
    x, m, nu2, u = errors.call(np.linalg.solve, sigma, x, carry=(m, nu2, u))
    del sigma
    m = m @ x
    del x
    m = m @ u
    del u
    e = np.where(np.sqrt(nu2) <= PURE_NU, 0.0, nu2 - 1.0)
    m *= (-1.0 / nu2)[:, :, None]
    m *= e[:, None, :]
    (lam,) = errors.call(np.linalg.eigvals, m)
    mu = lam * lam
    (mu,) = errors.fail(
        ~((np.abs(mu.imag) <= 1e-9 * (1.0 + np.abs(mu))) & (mu.real >= -1e-9)).all(axis=-1),
        lambda j: NonRealResult("spectral fidelity value mu is not real and non-negative"),
        mu,
    )
    mu = np.maximum(mu.real, 0.0)
    return np.prod(np.sqrt(1.0 + mu) + np.sqrt(mu), axis=-1)  # inf fails in _fidelity_stack


# The constants of the module docstring's certificate ladder.  An item a certificate settles
# takes 1.0, as the chain would unless its f0 were more than 16x the spectral one (on the wide
# pool their f_tot4 differ by at most 2.2e-5 relative wherever the chain passes); t = 1, 4 and
# 16 settle 97, 112 and 105 of the benchmark's 128 64-mode states, and log Q_1/2 >= 1.8 log(f0 E)
# on the wide pool's F <= SETTLED
SETTLED, BOUND_T, OVERLAP_GATE = 2.0**-58, 4.0, 1.85
_LOG_MAX = float(np.log(np.finfo(float).max))  # np.exp overflows past this
_Q_AT_ONE = "Tsallis weights overflow: q = (nu - 1)/(nu + 1) is within rounding of 1"


def _log_f_tot4_bound(cm: np.ndarray, errors: ItemErrors) -> np.ndarray:
    # log of f_tot4 <= (1 + 1/t)^n det((1 + t)(-Y^2) - t I)^(1/2), NaN where the det is not
    # positive: the 1 + mu are the eigenvalues of -Y^2, Y = Sigma^{-1} (Delta + P cm Pi cm) with
    # Pi the q-p swap, and (sqrt(1 + mu) + sqrt(mu))^2 <= (1 + 1/t)(1 + (1 + t) mu) by AM-GM
    n = cm.shape[-1] // 2
    o = momentum_signs(n)
    m = (o[:, None] * cm) @ cm[:, np.arange(2 * n) ^ 1]
    m += symplectic_form(n)
    (y,) = errors.call(np.linalg.solve, cm + np.outer(o, o) * cm, m)
    del m
    y = y @ y
    y *= -(1.0 + BOUND_T)
    y -= BOUND_T * np.eye(2 * n)
    sign, log_det = np.linalg.slogdet(y)
    return np.where(sign > 0.0, n * math.log1p(1.0 / BOUND_T) + 0.5 * log_det, np.nan)


def _f0(f_tot4: np.ndarray, log_det: np.ndarray) -> np.ndarray:
    # f0 from f_tot4 and log det(Sigma/2), in log form where det(Sigma/2) is past exp's range
    big = log_det > _LOG_MAX
    f0 = _libm(pow, f_tot4, 0.25) / _libm(pow, np.exp(np.minimum(log_det, _LOG_MAX)), 0.25)
    return np.where(big, np.exp((np.log(f_tot4) - log_det) / 4), f0) if np.count_nonzero(big) else f0


# the fragile stages by their bits in a route record: stage i sets 1 << 2i on each item it
# is handed and 2 << 2i on each item it fails
STAGES = ("bound", "spectral", "chain", "overlap", "normal form")


def _run_at(label: str, stage, at: np.ndarray, out: np.ndarray, route: np.ndarray, *arrays) -> dict:
    # stage(*rows of arrays, errors) where ``at``, on its own ItemErrors: each passed item's
    # value goes into ``out`` at its position, a failed item's row is left as it was, the
    # record ``route``, aligned with ``at``, gains the bits of stage ``label``, and
    # {position: exception} of the failed items is returned; a stage fails, never warns, on overflow
    rows, bit = np.flatnonzero(at), 1 << 2 * STAGES.index(label)
    errors = ItemErrors(len(rows))
    if errors.errors:
        whole = len(rows) == len(at)
        with np.errstate(over="ignore", invalid="ignore"):
            values = stage(*(a if whole else a[rows] for a in arrays), errors)
        out[rows[errors.live]] = values
        route[rows] |= bit
    failed = {k: exc for k, exc in zip(rows.tolist(), errors.errors) if exc is not None}
    if failed:
        route[list(failed)] |= 2 * bit
    return failed


def _fidelity_stack(d: np.ndarray, cm: np.ndarray, errors: ItemErrors) -> np.ndarray:
    # f0 E between each state and its conjugate, for the items still live, by the module
    # docstring's ladder.  The tail, log det(Sigma/2) and E = exp(-dd Sigma^{-1} dd / 4),
    # fails its items in ``errors`` first; every later stage runs through _run_at, which marks
    # ``errors.stages``
    n = cm.shape[-1] // 2
    o = momentum_signs(n)
    # conjugation by diag(o) only flips signs, so it is applied elementwise
    half = cm + np.outer(o, o) * cm
    half *= 0.5
    # halving is exact in the solve and the dot product: quad / 8 is dd Sigma^{-1} dd / 4
    log_det, quad, cm = _overlap_tail(half, d, errors, cm)
    del half
    count, e, live = len(cm), _libm(math.exp, -0.125 * quad), errors.live
    route = errors.stages[live]
    picked = np.exp(-0.25 * log_det) * e <= SETTLED  # the floor below every f0 E
    f_tot4, rest, bound = np.full(count, np.nan), np.ones(count, dtype=bool), None
    if picked.any():
        # the determinant bound is at least its value at det = 1, (1 + 1/t)^(n/4) times the floor
        floor = np.exp(0.25 * (n * math.log1p(1.0 / BOUND_T) - log_det)) * e
        bound = np.full(count, np.nan)
        _run_at("bound", _log_f_tot4_bound, picked & (floor <= SETTLED), bound, route, cm)
        bound = np.exp(0.25 * (bound - log_det)) * e
        rest = ~(bound <= SETTLED)
        _run_at("spectral", _spectral_f_tot4_stack, picked & rest, f_tot4, route, cm)
        rest[picked] &= ~(_f0(f_tot4[picked], log_det[picked]) * e[picked] <= SETTLED)
    # a picked item the chain fails keeps its spectral f_tot4; the rescue runs on the others
    chain = _run_at("chain", lambda sub, err: _w_chain_stack(sub, err)[1].real, rest, f_tot4, route, cm)
    lost = np.zeros(count, dtype=bool)
    lost[list(chain)] = True
    _run_at("spectral", _spectral_f_tot4_stack, lost & ~picked, f_tot4, route, cm)
    errors.stages[live] = route
    f0_e = _f0(f_tot4, log_det) * e
    if bound is not None:
        f0_e = np.where(bound <= SETTLED, bound, f0_e)
    (f0_e,) = errors.fail(lost & ~np.isfinite(f_tot4), chain.__getitem__, f0_e)
    return f0_e


def fidelity_imaginarity(state: GaussianState) -> float:
    """One minus the fidelity between the state and its conjugate.

    Runs the module docstring's certificate ladder: 1.0 without the chain where a
    certificate settles the state, else ``f_tot4`` from the chain, or from the
    spectral stage where the chain fails.
    """
    errors = ItemErrors(1)
    f0_e = _fidelity_stack(state.d[None], state.cm[None], errors)
    errors.raise_first()
    return 1.0 - f0_e.item()


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


def _mu_weights(nus: np.ndarray, mu: float, errors: ItemErrors, *carry: np.ndarray) -> tuple:
    # (factors, scale_mu, scale_1mu, *carry) over the live items, from q = exp(-eta) per
    # symplectic eigenvalue; q = 0 is the pure-state limit.  q**mu has a sqrt-type cusp at
    # q = 0, so eigenvalues within rounding noise of 1 must be snapped to the limit or the
    # cusp amplifies the noise.  An item whose 1 - q**mu or 1 - q**(1 - mu) is 0 fails
    q = np.where(nus <= PURE_NU, 0.0, (nus - 1.0) / (nus + 1.0))
    a, b = 1.0 - q**mu, 1.0 - q ** (1.0 - mu)
    bad = ~(a * b > 0.0).all(axis=-1)
    q, a, b, *carry = errors.fail(bad, lambda j: OverflowError(_Q_AT_ONE), q, a, b, *carry)
    return (1.0 - q) / (a * b), 2.0 / a - 1.0, 2.0 / b - 1.0, *carry


def _check_mu(mu: float) -> None:
    if not 0.0 < mu < 1.0:
        raise InvalidMu(f"mu must be in (0, 1), got {mu}")


def _overlap_sum(f: np.ndarray, w_mu: np.ndarray, w_1mu: np.ndarray, d: np.ndarray, errors, *carry):
    # _overlap_tail of the Tsallis cm_sum, (cm_mu + P cm_1mu P) symmetrized, cm_mu = F diag(w_mu) F^T
    o = momentum_signs(f.shape[-1] // 2)
    cm_mu = (f * w_mu[:, None, :]) @ f.swapaxes(-1, -2)
    # conjugation by diag(o) only flips signs, so it is applied elementwise
    cm_mu += np.outer(o, o) * ((f * w_1mu[:, None, :]) @ f.swapaxes(-1, -2))
    return _overlap_tail(0.5 * (cm_mu + cm_mu.swapaxes(-1, -2)), d, errors, *carry)


def _tsallis_stack(d: np.ndarray, cm: np.ndarray, mu: float, errors: ItemErrors) -> np.ndarray:
    # Tsallis-type measure of each state, for the items still live, via the normal form
    n, live = cm.shape[-1] // 2, errors.live
    s, nus, _ = williamson_stack(cm, errors)
    factors, scale_mu, scale_1mu, s = _mu_weights(nus, mu, errors, s)
    w_mu, w_1mu = scale_mu.repeat(2, axis=-1), scale_1mu.repeat(2, axis=-1)
    log_det, quad, factors = _overlap_sum(s, w_mu, w_1mu, d[errors.kept(live)], errors, factors)
    big = log_det > _LOG_MAX
    prefactor = 2.0**n * np.prod(factors, axis=-1) / np.sqrt(np.exp(np.minimum(log_det, _LOG_MAX)))
    value = 1.0 - prefactor * _libm(math.exp, -0.5 * quad)
    if np.count_nonzero(big):  # the log form where det cm_sum is past exp's range
        log_q = n * math.log(2.0) + np.log(factors[big]).sum(axis=-1)
        value[big] = -np.expm1(log_q - 0.5 * (log_det[big] + quad[big]))
    return value


def _log_overlap_stack(d: np.ndarray, cm: np.ndarray, mu: float, errors: ItemErrors) -> np.ndarray:
    # log Q_mu for the items still live, through the spectral form T = chol U:
    # S diag(g(nu)) S^T = T diag(g(nu) / nu) T^T, each nu twice (``spectral_core``)
    chol, k, nu2, u, d = spectral_core(cm, errors, d)
    t, nus = chol @ u, np.sqrt(nu2)
    del chol, k, u
    factors, scale_mu, scale_1mu, t, nus, d = _mu_weights(nus, mu, errors, t, nus, d)
    log_det, quad, factors = _overlap_sum(t, scale_mu / nus, scale_1mu / nus, d, errors, factors)
    return cm.shape[-1] // 2 * math.log(2.0) + 0.5 * (np.log(factors).sum(axis=-1) - log_det - quad)


def tsallis_imaginarity(state: GaussianState, mu: float) -> float:
    """One minus the Tsallis-type overlap of order mu between state and conjugate.

    Needs the full symplectic normal form of the covariance matrix, so this is
    the most expensive of the three measures.  This one-state call always runs
    it; ``measure_all`` and ``measure_stack`` skip it where the module docstring's
    certificate ladder settles the overlap.
    """
    _check_mu(mu)
    errors = ItemErrors(1)
    with np.errstate(over="ignore", invalid="ignore"):  # as _run_at runs the stage
        value = _tsallis_stack(state.d[None], state.cm[None], mu, errors)
    errors.raise_first()
    return float(value[0])


def tsallis_imaginarity_single_mode(n_th: float, zeta: complex, alpha: complex, mu: float) -> float:
    """Closed form of ``tsallis_imaginarity`` on displaced squeezed thermal states."""
    _check_mu(mu)
    r, theta, s2 = _squeezing_terms(n_th, zeta)
    x = n_th / (n_th + 1.0)
    pm = (1.0 - x**mu) * (1.0 - x ** (1.0 - mu))
    if pm == 0.0:  # x = q within rounding of 1, from n_th ~ 1e16 on
        raise OverflowError(_Q_AT_ONE)
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


def _describe(exc: BaseException | None) -> str | None:
    return None if exc is None else f"{type(exc).__name__}: {exc}"


@dataclass
class StackReport:
    """All three measures of a stack of B states, as arrays over the stack.

    Item k holds what ``measure_all`` reports on state k: a failed value is
    NaN, and ``failures[k]`` holds the exceptions of its (imaginarity,
    fidelity, Tsallis) paths, None where the path succeeded.  ``stages[k]``
    is its route record: bit 2i is set if stage i of ``STAGES`` was handed
    the item, bit 2i + 1 if it failed it; 0 after a covariance-ratio failure.

    The covariance-ratio arrays are computed when the report is built.  The
    fidelity and Tsallis stages run together, once, on the first read of
    ``fidelity_imaginarity``, ``tsallis_imaginarity``, ``failures``,
    ``stages`` or ``report``, over the items that passed the covariance-ratio
    stage; a caller that reads only the covariance-ratio arrays never runs them.
    """

    mu: float
    zero_tol: float
    imaginarity: np.ndarray  # (B,)
    h_term: np.ndarray  # (B,) 0/1
    log_dets: np.ndarray  # (B, 3): log det of cm, A11, A22
    # covariance-ratio failures; its live items are the rows of d and cm
    _base: ItemErrors = field(repr=False)
    _d: np.ndarray = field(repr=False)
    _cm: np.ndarray = field(repr=False)

    @cached_property
    def _fragile(self):
        # the fidelity stage on its own ItemErrors over the rows of d and cm, then the Tsallis
        # certificates and normal form through _run_at, by the module docstring's ladder
        fid, mu, d, cm = ItemErrors(len(self._d)), self.mu, self._d, self._cm
        f0_e = fid.spread(_fidelity_stack(d, cm, fid))
        route = fid.stages
        settled = f0_e ** (2.0 * min(mu, 1.0 - mu)) <= SETTLED
        tried = ~settled & (f0_e**OVERLAP_GATE <= SETTLED)
        if np.count_nonzero(tried):
            log_q = np.full(len(tried), np.nan)
            _run_at(
                "overlap", lambda d, cm, e: _log_overlap_stack(d, cm, mu, e), tried, log_q, route, d, cm
            )
            settled |= log_q <= math.log(SETTLED)
        tsallis = np.where(settled, 1.0, np.nan)
        ts = _run_at(
            "normal form", lambda d, cm, e: _tsallis_stack(d, cm, mu, e), ~settled, tsallis, route, d, cm
        )
        rows = zip(fid.errors, map(ts.get, range(len(tsallis))))
        failures = [(None, *next(rows)) if exc is None else (exc,) * 3 for exc in self._base.errors]
        stages = np.zeros(len(failures), dtype=np.uint16)
        stages[self._base.live] = route
        spread = self._base.spread
        return spread(1.0 - f0_e), spread(tsallis), failures, stages

    @property
    def fidelity_imaginarity(self) -> np.ndarray:  # (B,)
        return self._fragile[0]

    @property
    def tsallis_imaginarity(self) -> np.ndarray:  # (B,)
        return self._fragile[1]

    @property
    def failures(self) -> list[tuple[BaseException | None, ...]]:  # (B,) of 3-tuples
        return self._fragile[2]

    @property
    def stages(self) -> np.ndarray:  # (B,) uint16 route records over STAGES
        return self._fragile[3]

    def report(self, k: int) -> MeasureReport:
        """Item k as a ``MeasureReport``, with fidelity and Tsallis failures as error strings.

        Every recorded failure is a named one; only a failure of the
        covariance-ratio measure is raised, as ``measure_all`` raises it.
        """
        imag_exc, fid_exc, ts_exc = self.failures[k]
        if imag_exc is not None:
            raise imag_exc
        fidelity = None if fid_exc is not None else float(self.fidelity_imaginarity[k])
        tsallis = None if ts_exc is not None else float(self.tsallis_imaginarity[k])
        with np.errstate(over="ignore"):  # a determinant past double's range reads inf
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
    """Evaluate all three measures on a stack of valid states.

    Args:
        d: displacements, shape (B, 2n).
        cm: covariance matrices, shape (B, 2n, 2n), already validated.
        mu: Tsallis order in (0, 1).
        zero_tol: threshold of the momentum indicator.

    The covariance-ratio measure is computed here; the fidelity and Tsallis
    paths run on the first read of their results (see ``StackReport``).  An
    invalid ``mu`` or ``zero_tol`` raises here, and so do other shapes
    (``DimensionMismatch``).  A failure stays with its item: the item's value
    is NaN, its exception is kept in ``failures``, and it takes no part in
    later stages.  Items that fail the covariance-ratio measure skip the
    fragile paths.
    """
    _check_mu(mu)
    d = np.asarray(d, dtype=float)
    cm = np.asarray(cm, dtype=float)
    n = cm.shape[-1] // 2 if cm.ndim == 3 else 0
    if n < 1 or cm.shape[1:] != (2 * n, 2 * n) or d.shape != cm.shape[:2]:
        raise DimensionMismatch(f"need d (B, 2n) and cm (B, 2n, 2n), got {d.shape} and {cm.shape}")
    base = ItemErrors(len(cm))
    (value, h, *log_dets), d, cm = base.call(
        partial(_imaginarity_stack, zero_tol=zero_tol), d, cm, carry=(d, cm)
    )
    return StackReport(
        mu=mu,
        zero_tol=zero_tol,
        imaginarity=base.spread(value),
        h_term=base.spread(1.0 * h),
        log_dets=base.spread(np.stack(log_dets, axis=-1)),
        _base=base,
        _d=d,
        _cm=cm,
    )


def measure_all(state: GaussianState, mu: float = 0.5, zero_tol: float = ZERO_TOL) -> MeasureReport:
    """Evaluate all three measures; the fragile paths may fail and are flagged.

    Failures of the fidelity or Tsallis path are captured as messages instead
    of raising; the module docstring's certificate ladder says which stages a
    state runs and which failure it keeps.  A failure of the covariance-ratio
    measure raises: on valid single-mode states its log-determinants fail from
    |zeta| ~ 9.2 on.
    """
    return measure_stack(state.d[None], state.cm[None], mu, zero_tol).report(0)
