"""High-precision reference values of the measures, computed with mpmath.

The float entries of a state are taken exactly and everything after that runs
at ``DPS`` decimal digits, so a value here differs from the exact measure of
the stored matrix by far less than any float path can resolve.
"""

import mpmath as mp
import numpy as np

from gaussimag.linalg import symplectic_form
from gaussimag.states import momentum_signs

DPS = 50


def fidelity_imaginarity(d: np.ndarray, cm: np.ndarray) -> float:
    """One minus the fidelity between the state (d, cm) and its conjugate.

    Follows the fidelity chain's definitions, with ``W_aux = -(W1 + W2)^{-1} (I + W2 W1)``
    and ``f_tot4`` the product of ``sqrt(w) + sqrt(w - 1)`` over the eigenvalues w of
    ``W_aux^2``.  ``W_aux`` is i times a real matrix, so ``W_aux^2`` is computed in real
    arithmetic; mpmath's ``sqrtm`` does not converge on a pure mode, its eigenvalues do.
    """
    n = len(cm) // 2
    with mp.workdps(DPS):
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
