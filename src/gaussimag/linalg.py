"""Dense linear-algebra primitives for covariance-matrix computations.

Quadratures are ordered (q1, p1, ..., qn, pn), so a single mode occupies two
adjacent rows/columns.  Matrices are plain dense ndarrays; the stacked
routines take a leading item axis, ``(B, m, m)``, and run numpy's stacked
``linalg`` over it.  A failure of one item is recorded in an ``ItemErrors``
and drops that item from later stages instead of failing the whole stack;
the single-matrix functions are the one-item case and raise it.

The stacked routines hold a few ``(B, m, m)`` stacks at a time: each
intermediate is freed at its last use, and an operation is done in place only
on an array the routine allocated itself, with its operands in the same
order, so every value is the same bytes as the plain expression gives.  No
routine writes into an array it was handed.
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


class ItemErrors:
    """Per-item failures of a computation over a stack of ``count`` items.

    ``errors[k]`` is None or the exception item k failed with.  ``live`` holds
    the indices of the items not failed yet; every stage works on those only.
    A failed item keeps its first failure: ``live`` only shrinks, and a stage
    run on some rows of a stack (``measures._run_at``) gets one of its own.
    The one alignment rule: a stage returns only its own results, over ``live``
    as it leaves it.  A caller that holds an array across a stage reads
    ``live = errors.live`` before the call and indexes the array with
    ``kept(live)`` after it; ``carry`` of ``call`` and ``fail`` is for a
    stage's own arrays.  A check over a plain list of per-item failures goes
    through ``flag``, so an item keeps the failure of its first failed check.
    ``stages[k]`` is item k's route record, which ``measures._run_at`` fills.
    """

    def __init__(self, count: int):
        self.errors: list[BaseException | None] = [None] * count
        self.live = np.arange(count)
        self.stages = np.zeros(count, dtype=np.uint16)

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

    def kept(self, live: np.ndarray):
        """Index of the items still live into an array over ``live``, an earlier ``self.live``."""
        # live only loses items: equal lengths mean none failed
        if len(self.live) == len(live):
            return slice(None)
        return np.isin(live, self.live)

    def spread(self, values: np.ndarray) -> np.ndarray:
        """Values of the live items at their stack positions, NaN at the failed ones."""
        if len(self.live) == len(self.errors):
            return values
        out = np.full((len(self.errors), *values.shape[1:]), np.nan)
        out[self.live] = values
        return out

    def raise_first(self) -> None:
        for exc in self.errors:
            if exc is not None:
                raise exc


def flag(errors: list, bad, error) -> None:
    """Fail item k where ``bad[k]`` with ``error(k)``, unless an earlier check failed it."""
    for k in np.flatnonzero(bad) if np.count_nonzero(bad) else ():
        errors[k] = errors[k] or error(k)


# eigenvalues of magnitude up to this times max(1, spectral radius) count as
# exact zeros: a pure mode puts the fidelity chain's argument on the PSD
# boundary, up to rounding noise around its zero eigenvalues
SQRT_ZERO_CLAMP = 1e-12


def sqrt_principal_stack(a: np.ndarray, errors: ItemErrors) -> tuple:
    """``(root,)``: principal square roots of a stack ``(L, m, m)`` over ``errors.live``.

    An item fails with what ``sqrt_complex_principal`` raises on it; the result
    covers the items still live.
    """
    (w, v), a = errors.call(np.linalg.eig, a, carry=(a,))
    scale = np.maximum(1.0, np.abs(w).max(axis=-1, initial=0.0))[:, None]
    clamped = np.abs(w) <= SQRT_ZERO_CLAMP * scale
    w = np.where(clamped, 0.0, w)
    on_negative_axis = ~clamped & (w.real <= 1e-13 * scale) & (np.abs(w.imag) <= 1e-13 * scale)
    a, w, v = errors.fail(
        on_negative_axis.any(axis=-1),
        lambda j: ComplexSqrtBranchFailure(
            "eigenvalue on the closed negative real axis; principal branch undefined"
        ),
        a, w, v,
    )
    v_inv, a, w, v = errors.call(np.linalg.inv, v, carry=(a, w, v))
    v *= np.sqrt(w)[:, None, :]
    root = v @ v_inv
    del v, v_inv
    limit = 1e-10 * (1.0 + np.abs(a).max(axis=(-2, -1), initial=0.0))
    residual = root @ root
    residual -= a
    del a
    residual = np.abs(residual).max(axis=(-2, -1), initial=0.0)
    return errors.fail(
        ~(residual <= limit),  # NaN residual included
        lambda j: ComplexSqrtBranchFailure(
            f"square-root reconstruction residual {residual[j]:.3e} above tolerance"
        ),
        root,
    )


def sqrt_complex_principal(a: np.ndarray) -> np.ndarray:
    """Principal square root of a complex square matrix, from its eigendecomposition.

    Eigenvalues of magnitude up to ``SQRT_ZERO_CLAMP`` times max(1, spectral
    radius) are taken as exact zeros, so the zero matrix roots to zero.  The
    principal branch requires every other eigenvalue to avoid the closed
    negative real axis; every eigenvalue of the result then lies in the
    closed right half-plane.  A defective or near-defective argument has no
    reliable eigenvector basis: its root is not computed another way but
    fails the residual check, unless the eigenvector root still meets it.

    Raises:
        ComplexSqrtBranchFailure: if an eigenvalue sits on the closed negative
            real axis, or the reconstruction residual is above 1e-10 relative.
        LinAlgError: if the eigenvector basis is exactly singular.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("input must be a square matrix")
    errors = ItemErrors(1)
    (root,) = sqrt_principal_stack(a[None], errors)
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


def block_split(cm: np.ndarray) -> ModeBlocks:
    """Split a 2n x 2n covariance matrix (or a stack of them) into position/momentum blocks."""
    cm = np.asarray(cm, dtype=float)
    if cm.ndim < 2 or cm.shape[-1] != cm.shape[-2] or cm.shape[-1] % 2:
        raise ValueError(f"expected a 2n x 2n matrix, got {cm.shape}")
    return ModeBlocks(
        a11=cm[..., 0::2, 0::2], a12=cm[..., 0::2, 1::2], a22=cm[..., 1::2, 1::2]
    )


def spectral_core(cm: np.ndarray, errors: ItemErrors, *carry: np.ndarray) -> tuple:
    """``(chol, k, nu2, u, *carry)`` over ``errors.live``, the real spectral form of ``cm``.

    ``cm = chol chol^T``, ``k = chol^T Delta chol``, ``k^T k = u diag(nu2) u^T`` with each
    squared symplectic eigenvalue twice, and ``S g(D) S^T = T diag(g(nu) / nu) T^T``, T = chol u.
    """
    chol, *carry = errors.call(np.linalg.cholesky, cm, carry=carry)
    k = _mT(chol) @ symplectic_form(cm.shape[-1] // 2) @ chol
    (nu2, u), chol, k, *carry = errors.call(np.linalg.eigh, _mT(k) @ k, carry=(chol, k, *carry))
    return chol, k, nu2, u, *carry


@dataclass(frozen=True)
class WilliamsonForm:
    """Symplectic normal form cm = s @ diag(repeat(nus, 2)) @ s.T with s symplectic."""

    s: np.ndarray
    nus: np.ndarray  # symplectic eigenvalues, descending


def williamson_stack(cm: np.ndarray, errors: ItemErrors, tol: float = 1e-8) -> tuple:
    """Symplectic normal forms of a stack ``(L, 2n, 2n)`` aligned with ``errors.live``.

    Returns ``(s, nus, residual)`` over the live items: ``residual`` is
    the larger of the two Frobenius reconstruction residuals (relative for the
    cm round trip, absolute for ``s Delta s^T = Delta``).  Indefinite or NaN
    items fail with ``LinAlgError``, items whose residual exceeds ``tol`` or is
    NaN with ``WilliamsonResidualError``.  See ``williamson`` for the method.
    """
    n = cm.shape[-1] // 2
    delta = symplectic_form(n)
    (w, v), cm = errors.call(np.linalg.eigh, 0.5 * (cm + _mT(cm)), carry=(cm,))
    cm, w, v = errors.fail(
        ~(w.min(axis=-1) > 0.0),  # NaN spectrum included
        lambda j: np.linalg.LinAlgError("matrix is not positive definite"),
        cm, w, v,
    )
    sw = np.sqrt(w)[:, None, :]
    root = (v * sw) @ _mT(v)
    inv_root = (v / sw) @ _mT(v)
    del v
    skew = inv_root @ delta @ inv_root
    del inv_root
    # Hermitian companion i*skew, skew = 0.5 (X - X^T), has spectrum {+-1/nu_l}
    companion = 1j * (0.5 * (skew - _mT(skew)))
    del skew
    (eigvals, eigvecs), cm, root = errors.call(np.linalg.eigh, companion, carry=(cm, root))
    del companion
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
    del eigvecs
    canonicalizer = np.empty(cm.shape)
    canonicalizer[..., 0::2] = np.sqrt(2.0) * vecs.imag
    canonicalizer[..., 1::2] = np.sqrt(2.0) * vecs.real
    del vecs
    nus = 1.0 / eigvals[..., n:]
    s = root @ canonicalizer
    del root, canonicalizer
    s *= (1.0 / np.sqrt(nus)).repeat(2, axis=-1)[:, None, :]

    def frobenius(m):
        return np.sqrt((m * m).sum(axis=(-2, -1)))

    res_cm = frobenius((s * nus.repeat(2, axis=-1)[:, None, :]) @ _mT(s) - cm) / frobenius(cm)
    res_sympl = frobenius(s @ delta @ _mT(s) - delta)
    return errors.fail(
        ~((res_cm <= tol) & (res_sympl <= tol)),  # NaN residual included
        lambda j: WilliamsonResidualError(
            f"reconstruction residuals {res_cm[j]:.3e} / {res_sympl[j]:.3e} exceed tol={tol:.1e}"
        ),
        s, nus, np.maximum(res_cm, res_sympl),
    )


def williamson(cm: np.ndarray) -> WilliamsonForm:
    """Symplectic diagonalization of a symmetric positive definite matrix.

    Computes the antisymmetric matrix cm^{-1/2} Delta cm^{-1/2}, brings it to
    canonical form through the eigenvectors of its Hermitian companion, and
    assembles the symplectic factor from the canonicalizing orthogonal basis.
    Both reconstruction residuals are verified before returning.

    Args:
        cm: symmetric positive definite 2n x 2n matrix.

    Returns:
        WilliamsonForm with ``s`` symplectic and ``nus`` sorted descending.

    Raises:
        LinAlgError (a ``ValueError``): when the input is not positive definite or holds a NaN.
        WilliamsonResidualError: when the construction fails to reproduce the
            input within ``williamson_stack``'s default 1e-8 Frobenius
            residual (relative for the cm round trip; ill-conditioned input).
    """
    cm = np.asarray(cm, dtype=float)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1] or cm.shape[0] % 2:
        raise ValueError("input must be a 2n x 2n matrix")
    errors = ItemErrors(1)
    s, nus, _ = williamson_stack(cm[None], errors)
    errors.raise_first()
    return WilliamsonForm(s=s[0], nus=nus[0])
