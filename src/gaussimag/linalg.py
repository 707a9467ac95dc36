"""Dense linear-algebra primitives for covariance-matrix computations.

Quadratures are ordered (q1, p1, ..., qn, pn), so a single mode occupies two
adjacent rows/columns.  Matrices are plain dense ndarrays; the stacked
routines take a leading item axis, ``(B, m, m)``, and run numpy's stacked
``linalg`` over it.  A failure of one item is recorded in an ``ItemErrors``
and drops that item from later stages instead of failing the whole stack;
the single-matrix functions are the one-item case and raise it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ComplexSqrtBranchFailure, WilliamsonResidualError


def _scaled_tol(m: np.ndarray):
    # the one validation tolerance: scale-invariant so boundary (pure) states
    # are accepted; one tolerance per matrix of a stack
    return 1e-9 * (1.0 + np.abs(m).max(axis=(-2, -1)))


def _mT(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-1, -2)


def symplectic_form(n: int) -> np.ndarray:
    """Return the 2n x 2n symplectic form, the direct sum of n copies of [[0,1],[-1,0]]."""
    if n < 1:
        raise ValueError(f"mode count must be >= 1, got {n}")
    delta = np.zeros((2 * n, 2 * n))
    for k in range(n):
        delta[2 * k, 2 * k + 1] = 1.0
        delta[2 * k + 1, 2 * k] = -1.0
    return delta


def is_psd_hermitian(h: np.ndarray) -> bool:
    """Check whether a Hermitian matrix is positive semidefinite within tolerance.

    Args:
        h: square Hermitian matrix (real symmetric or complex).

    Returns:
        True iff the smallest eigenvalue is >= -tol, tol = 1e-9 * (1 + max|h|).

    Raises:
        ValueError: if ``h`` is not Hermitian within the same tolerance.
    """
    h = np.asarray(h)
    t = _scaled_tol(h)
    if float(np.abs(h - h.conj().T).max()) > t:
        raise ValueError("matrix is not Hermitian within tolerance")
    return bool(np.linalg.eigvalsh(h).min() >= -t)


class ItemErrors:
    """Per-item failures of a computation over a stack of ``count`` items.

    ``errors[k]`` is None or the exception item k failed with.  ``live`` holds
    the indices of the items not failed yet; every stage works on those only,
    so the arrays handed between stages are aligned with ``live``.
    """

    def __init__(self, count: int):
        self.errors: list[BaseException | None] = [None] * count
        self.live = np.arange(count)

    def fail(self, bad: np.ndarray, error, *carry: np.ndarray) -> tuple[np.ndarray, ...]:
        """Fail live item j where ``bad[j]`` with ``error(j)``; return ``carry`` without them."""
        if not np.count_nonzero(bad):
            return carry
        for j in np.flatnonzero(bad):
            self.errors[self.live[j]] = error(j)
        keep = ~bad
        self.live = self.live[keep]
        return tuple(a[keep] for a in carry)

    def call(self, fn, *args: np.ndarray, carry: tuple = ()) -> tuple:
        """``(fn(*args), *carry)`` over the live items, keeping failures per item.

        A stacked ``LinAlgError`` says only that some item failed; it is
        re-attributed by calling ``fn`` item by item, and the failing items
        leave the live set before ``fn`` runs on the rest.
        """
        try:
            return (fn(*args), *carry)
        except np.linalg.LinAlgError:
            caught = {}
            for j in range(len(args[0])):
                try:
                    fn(*(a[j : j + 1] for a in args))
                except np.linalg.LinAlgError as exc:
                    caught[j] = exc
            bad = np.isin(np.arange(len(args[0])), list(caught))
            kept = self.fail(bad, caught.__getitem__, *args, *carry)
            return (fn(*kept[: len(args)]), *kept[len(args) :])

    def narrow(self, before: np.ndarray, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
        """Restrict arrays aligned with an earlier live set ``before`` to the items still live."""
        if len(before) == len(self.live):
            return arrays
        keep = np.isin(before, self.live)
        return tuple(a[keep] for a in arrays)

    def spread(self, values: np.ndarray) -> np.ndarray:
        """Values of the live items at their stack positions, NaN at the failed ones."""
        if len(self.live) == len(self.errors):
            return values
        out = np.full((len(self.errors), *values.shape[1:]), np.nan)
        out[self.live] = values
        return out

    def copy(self) -> "ItemErrors":
        other = ItemErrors(0)
        other.errors, other.live = list(self.errors), self.live
        return other

    def raise_first(self) -> None:
        for exc in self.errors:
            if exc is not None:
                raise exc


# cap on the coupled Newton iteration: a Jordan block with eigenvalue of
# magnitude 1e-15 to 1e15 reaches its stopping residual within 30 steps
_NEWTON_STEPS = 100


def _sqrt_newton(a: np.ndarray) -> np.ndarray:
    """Principal square root of one matrix by the coupled Newton iteration.

    Denman-Beavers: ``y, z <- (y + z^-1)/2, (z + y^-1)/2`` from ``y = a,
    z = I`` converges to ``(a^1/2, a^-1/2)`` whenever no eigenvalue of ``a``
    lies on the closed negative real axis, defective or not (Higham 1997).
    A singular iterate gives NaN, which the caller's residual check rejects.
    """
    y, z = a, np.eye(len(a), dtype=a.dtype)
    tol = 1e-14 * (1.0 + np.abs(a).max())
    for _ in range(_NEWTON_STEPS):
        try:
            y, z = 0.5 * (y + np.linalg.inv(z)), 0.5 * (z + np.linalg.inv(y))
        except np.linalg.LinAlgError:
            return np.full_like(a, np.nan)
        if np.abs(y @ y - a).max() <= tol:
            break
    return y


def _norm1(m: np.ndarray) -> np.ndarray:
    # matrix 1-norm of each item: the largest column sum of absolute values
    return np.abs(m).sum(axis=-2).max(axis=-1, initial=0.0)


def _inv_or_nan(m: np.ndarray) -> np.ndarray:
    """Inverses of a stack ``(L, k, k)``; NaN for each exactly singular item."""
    try:
        return np.linalg.inv(m)
    except np.linalg.LinAlgError:
        out = np.full_like(m, np.nan)
        for j in range(len(m)):
            try:
                out[j] = np.linalg.inv(m[j])
            except np.linalg.LinAlgError:
                pass
        return out


def sqrt_principal_stack(
    a: np.ndarray, errors: ItemErrors, cond_limit: float = 1e8, clamp_zero_tol: float = 0.0
) -> np.ndarray:
    """Principal square roots of a stack ``(L, m, m)`` aligned with ``errors.live``.

    Items whose root is undefined or unreliable fail with
    ``ComplexSqrtBranchFailure``; the result covers the items still live.
    Each root comes from an eigendecomposition, or from the coupled Newton
    iteration where the eigenvectors are near-defective; see
    ``sqrt_complex_principal``.  Near-defective means that the 1-norm
    condition number ``|v|_1 |v^-1|_1`` of the eigenvector matrix ``v``
    exceeds ``cond_limit``; it reuses the inverse the eigenvector root needs
    and lies within a factor m of the 2-norm condition number.
    """
    (w, v), a = errors.call(np.linalg.eig, a, carry=(a,))
    scale = np.maximum(1.0, np.abs(w).max(axis=-1, initial=0.0))[:, None]
    if clamp_zero_tol > 0.0:
        clamped = np.abs(w) <= clamp_zero_tol * scale
        w = np.where(clamped, 0.0, w)
    else:
        clamped = np.zeros(w.shape, dtype=bool)
    on_negative_axis = ~clamped & (w.real <= 1e-13 * scale) & (np.abs(w.imag) <= 1e-13 * scale)
    a, w, v = errors.fail(
        on_negative_axis.any(axis=-1),
        lambda j: ComplexSqrtBranchFailure(
            "eigenvalue on the closed negative real axis; principal branch undefined"
        ),
        a, w, v,
    )
    v_inv = _inv_or_nan(v)
    # NaN (an exactly singular basis) compares False and takes the fallback
    eig = _norm1(v) * _norm1(v_inv) <= cond_limit
    root = (v * np.sqrt(w)[:, None, :]) @ v_inv
    # near-defective eigenvector basis: the Newton iteration needs no eigenvectors
    for j in np.flatnonzero(~eig):
        root[j] = _sqrt_newton(a[j])
    residual = np.abs(root @ root - a).max(axis=(-2, -1), initial=0.0)
    limit = 1e-10 * (1.0 + np.abs(a).max(axis=(-2, -1), initial=0.0))
    (root,) = errors.fail(
        ~(residual <= limit),  # NaN residual included
        lambda j: ComplexSqrtBranchFailure(
            f"square-root reconstruction residual {residual[j]:.3e} above tolerance"
        ),
        root,
    )
    return root


def sqrt_complex_principal(
    a: np.ndarray, cond_limit: float = 1e8, clamp_zero_tol: float = 0.0
) -> np.ndarray:
    """Principal square root of a complex square matrix.

    Uses an eigendecomposition; when the eigenvector matrix is ill-conditioned
    (1-norm condition number above ``cond_limit``) falls back to the coupled
    Newton (Denman-Beavers) iteration, which needs no eigenvectors.
    The principal branch requires the spectrum to avoid the closed negative
    real axis, so every eigenvalue of the result lies in the right half-plane.

    Args:
        a: square complex matrix.
        cond_limit: eigenvector-matrix condition number ``|v|_1 |v^-1|_1``
            beyond which the Newton fallback is used.
        clamp_zero_tol: when positive, eigenvalues of magnitude below
            clamp_zero_tol * max(1, spectral radius) are treated as exact
            zeros instead of branch errors (for arguments that sit on the
            positive-semidefinite boundary up to rounding noise).

    Raises:
        ComplexSqrtBranchFailure: if an eigenvalue sits on the closed negative
            real axis, or the reconstruction residual is above 1e-10 relative
            (which includes a Newton fallback that does not converge).
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("input must be a square matrix")
    errors = ItemErrors(1)
    root = sqrt_principal_stack(a[None], errors, cond_limit, clamp_zero_tol)
    errors.raise_first()
    return root[0]


def logdet_spd(a: np.ndarray) -> np.ndarray:
    """log(det(a)) of each symmetric positive definite matrix of a stack ``(..., m, m)``.

    Computed via Cholesky; any item that is not positive definite raises
    ``LinAlgError`` for the whole call.
    """
    chol = np.linalg.cholesky(a)
    return 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)


def grouped_index(n: int) -> np.ndarray:
    """Index array reordering (q1, p1, ..., qn, pn) to (q1, ..., qn, p1, ..., pn)."""
    return np.concatenate([np.arange(0, 2 * n, 2), np.arange(1, 2 * n, 2)])


@dataclass(frozen=True)
class ModeBlocks:
    """Position/momentum blocks of a covariance matrix after mode reordering."""

    a11: np.ndarray  # position-position
    a12: np.ndarray  # position-momentum
    a22: np.ndarray  # momentum-momentum


def block_split(cm: np.ndarray, n: int) -> ModeBlocks:
    """Split a 2n x 2n covariance matrix (or a stack of them) into position/momentum blocks."""
    cm = np.asarray(cm, dtype=float)
    if cm.ndim < 2 or cm.shape[-2:] != (2 * n, 2 * n):
        raise ValueError(f"expected a {2 * n}x{2 * n} matrix, got {cm.shape}")
    return ModeBlocks(
        a11=cm[..., 0::2, 0::2], a12=cm[..., 0::2, 1::2], a22=cm[..., 1::2, 1::2]
    )


@dataclass(frozen=True)
class WilliamsonForm:
    """Symplectic normal form cm = s @ diag(repeat(nus, 2)) @ s.T with s symplectic."""

    s: np.ndarray
    nus: np.ndarray  # symplectic eigenvalues, descending

    def diagonal(self) -> np.ndarray:
        return np.diag(np.repeat(self.nus, 2))


def williamson_stack(
    cm: np.ndarray, errors: ItemErrors, tol: float = 1e-8
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symplectic normal forms of a stack ``(L, 2n, 2n)`` aligned with ``errors.live``.

    Returns ``(s, nus, residual)`` for the items still live, ``residual`` the
    larger of the two Frobenius reconstruction residuals (relative for the cm
    round trip, absolute for ``s Delta s^T = Delta``).  Items that are not
    positive definite fail with ``ValueError``, items whose residual exceeds
    ``tol`` with ``WilliamsonResidualError``.  See ``williamson`` for the method.
    """
    n = cm.shape[-1] // 2
    delta = symplectic_form(n)
    (w, v), cm = errors.call(np.linalg.eigh, 0.5 * (cm + _mT(cm)), carry=(cm,))
    cm, w, v = errors.fail(
        w.min(axis=-1) <= 0.0, lambda j: ValueError("matrix is not positive definite"), cm, w, v
    )
    sw = np.sqrt(w)[:, None, :]
    root, inv_root = (v * sw) @ _mT(v), (v / sw) @ _mT(v)
    skew = inv_root @ delta @ inv_root
    skew = 0.5 * (skew - _mT(skew))
    # Hermitian companion i*skew has spectrum {+-1/nu_l}
    (eigvals, eigvecs), cm, root = errors.call(np.linalg.eigh, 1j * skew, carry=(cm, root))
    cm, root, eigvals, eigvecs = errors.fail(
        (eigvals > 0.0).sum(axis=-1) != n,
        lambda j: WilliamsonResidualError("could not pair the canonical eigenvalues"),
        cm, root, eigvals, eigvecs,
    )
    # eigenvalues ascend, so the n positive ones come last and give descending nus
    vecs = eigvecs[..., n:]
    # deterministic phase: rotate each vector's largest-magnitude component
    # onto the positive real axis (hypot is the scalar abs; numpy's vectorized
    # complex abs may differ from it in the last bit)
    pivot = vecs[np.arange(len(vecs))[:, None], np.abs(vecs).argmax(axis=-2), np.arange(n)]
    vecs = vecs / (pivot / np.hypot(pivot.real, pivot.imag))[:, None, :]
    canonicalizer = np.empty(cm.shape)
    canonicalizer[..., 0::2] = np.sqrt(2.0) * vecs.imag
    canonicalizer[..., 1::2] = np.sqrt(2.0) * vecs.real
    nus = 1.0 / eigvals[..., n:]
    s = (root @ canonicalizer) * (1.0 / np.sqrt(nus)).repeat(2, axis=-1)[:, None, :]

    def frobenius(m):
        return np.sqrt((m * m).sum(axis=(-2, -1)))

    res_cm = frobenius((s * nus.repeat(2, axis=-1)[:, None, :]) @ _mT(s) - cm) / frobenius(cm)
    res_sympl = frobenius(s @ delta @ _mT(s) - delta)
    return errors.fail(
        (res_cm > tol) | (res_sympl > tol),
        lambda j: WilliamsonResidualError(
            f"reconstruction residuals {res_cm[j]:.3e} / {res_sympl[j]:.3e} exceed tol={tol:.1e}"
        ),
        s, nus, np.maximum(res_cm, res_sympl),
    )


def williamson(cm: np.ndarray, tol: float = 1e-8) -> WilliamsonForm:
    """Symplectic diagonalization of a symmetric positive definite matrix.

    Computes the antisymmetric matrix cm^{-1/2} Delta cm^{-1/2}, brings it to
    canonical form through the eigenvectors of its Hermitian companion, and
    assembles the symplectic factor from the canonicalizing orthogonal basis.
    Both reconstruction residuals are verified before returning.

    Args:
        cm: symmetric positive definite 2n x 2n matrix.
        tol: accepted Frobenius residual (relative for the cm round trip).

    Returns:
        WilliamsonForm with ``s`` symplectic and ``nus`` sorted descending.

    Raises:
        WilliamsonResidualError: when the construction fails to reproduce the
            input within ``tol`` (ill-conditioned input).
    """
    cm = np.asarray(cm, dtype=float)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1] or cm.shape[0] % 2:
        raise ValueError("input must be a 2n x 2n matrix")
    errors = ItemErrors(1)
    s, nus, _ = williamson_stack(cm[None], errors, tol)
    errors.raise_first()
    return WilliamsonForm(s=s[0], nus=nus[0])
