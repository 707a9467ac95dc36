"""High-precision reference values of the measures, computed with mpmath.

The float entries of a state are taken exactly and everything after that runs
at ``DPS`` decimal digits, so a value here differs from the exact measure of
the stored matrix by far less than any float path can resolve.  Two rules are
the package's own, not the exact measure's: the momentum indicator uses the
package's realness threshold, and a symplectic eigenvalue up to ``PURE_NU``
counts as a pure mode (the Tsallis weights have a square-root cusp there,
which would turn the rounding of a pure state's float entries into an error
near 1e-8).
"""

import functools

import mpmath as mp
import numpy as np

from gaussimag.linalg import symplectic_form
from gaussimag.measures import PURE_NU
from gaussimag.states import momentum_displaced, momentum_signs

DPS = 50


def _rising_precision(fn):
    # mpmath's eigensolvers can fail to converge at one precision and converge
    # at a higher one (a 2-mode state of fig3b_phi_t1 needs 60 digits)
    @functools.wraps(fn)
    def run(*args):
        for dps in (DPS, DPS + 10, DPS + 30):
            try:
                with mp.workdps(dps):
                    return fn(*args)
            except RuntimeError:
                if dps == DPS + 30:
                    raise

    return run


def imaginarity(d: np.ndarray, cm: np.ndarray) -> float:
    """``1 - det cm / (det A11 det A22) + h``, with h the package's momentum indicator."""
    with mp.workdps(DPS):
        ratio = mp.det(mp.matrix(cm.tolist())) / (
            mp.det(mp.matrix(cm[0::2, 0::2].tolist())) * mp.det(mp.matrix(cm[1::2, 1::2].tolist()))
        )
        return float(1 - ratio + int(momentum_displaced(d)))


@_rising_precision
def fidelity_imaginarity(d: np.ndarray, cm: np.ndarray) -> float:
    """One minus the fidelity between the state (d, cm) and its conjugate.

    Follows the fidelity chain's definitions, with ``W_aux = -(W1 + W2)^{-1} (I + W2 W1)``
    and ``f_tot4`` the product of ``sqrt(w) + sqrt(w - 1)`` over the eigenvalues w of
    ``W_aux^2``.  ``W_aux`` is i times a real matrix, so ``W_aux^2`` is computed in real
    arithmetic; mpmath's ``sqrtm`` does not converge on a pure mode, its eigenvalues do.
    """
    n = len(cm) // 2
    cm1 = mp.matrix(cm.tolist())
    p = mp.diag(momentum_signs(n).tolist())
    delta = mp.matrix(symplectic_form(n).tolist())
    eye = mp.eye(2 * n)
    cm2 = p * cm1 * p
    sigma = cm1 + cm2
    # W_k = -i cm_k Delta: (W1 + W2)^{-1} = -i Delta sigma^{-1}, W2 W1 = -cm2 Delta cm1 Delta
    real_w_aux = delta * mp.inverse(sigma) * (eye - cm2 * delta * cm1 * delta)
    w_aux_sq = -(real_w_aux * real_w_aux)
    omega = mp.eig(w_aux_sq, left=False, right=False)
    f_tot4 = mp.re(mp.fprod(mp.sqrt(w) + mp.sqrt(w - 1) for w in omega))
    dd = mp.matrix((d - momentum_signs(n) * d).tolist())
    exponent = (dd.T * mp.lu_solve(sigma, dd))[0] / 4
    f0 = mp.root(f_tot4 / mp.det(sigma / 2), 4)
    return float(1 - f0 * mp.exp(-exponent))


@_rising_precision
def tsallis_imaginarity(d: np.ndarray, cm: np.ndarray, mu: float) -> float:
    """One minus the Tsallis-type overlap of order mu between the state and its conjugate.

    Through the real spectral form, which needs no symplectic pairing: with
    ``cm = L L^T``, ``K = L^T Delta L`` and ``K^T K = U diag(nu^2) U^T`` (each nu
    twice), ``T = L U`` gives ``S g(D) S^T = T diag(g(nu) / nu) T^T``.
    """
    n = len(cm) // 2
    chol = mp.cholesky(mp.matrix(cm.tolist()))
    k = chol.T * mp.matrix(symplectic_form(n).tolist()) * chol
    nu2, u = mp.eigsy(k.T * k)
    t = chol * u
    nus = [mp.sqrt(x) for x in nu2]
    qs = [mp.mpf(0) if nu <= PURE_NU else (nu - 1) / (nu + 1) for nu in nus]

    def weighted(scale):
        return t * mp.diag([scale(q) / nu for q, nu in zip(qs, nus)]) * t.T

    p = mp.diag(momentum_signs(n).tolist())
    cm_sum = weighted(lambda q: 2 / (1 - q**mu) - 1) + p * weighted(lambda q: 2 / (1 - q ** (1 - mu)) - 1) * p
    # each nu appears twice, so the square root of the product over all 2n is the product per mode
    factors = mp.sqrt(mp.fprod((1 - q) / ((1 - q**mu) * (1 - q ** (1 - mu))) for q in qs))
    prefactor = 2**n * factors / mp.sqrt(mp.det(cm_sum))
    dd = mp.matrix((d - momentum_signs(n) * d).tolist())
    exponent = (dd.T * mp.lu_solve(cm_sum, dd))[0] / 2
    return float(1 - prefactor * mp.exp(-exponent))
