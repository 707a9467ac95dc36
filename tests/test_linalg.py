import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import gaussimag
from gaussimag.errors import ComplexSqrtBranchFailure, WilliamsonResidualError
from gaussimag.linalg import (
    ItemErrors,
    block_split,
    grouped_index,
    sqrt_complex_principal,
    sqrt_principal_stack,
    symplectic_form,
    williamson,
    williamson_stack,
)
from gaussimag.states import displaced_squeezed_thermal

from conftest import random_cm, random_hermitian_pd


class TestSymplecticForm:
    def test_single_mode(self):
        np.testing.assert_array_equal(symplectic_form(1), [[0.0, 1.0], [-1.0, 0.0]])

    def test_two_modes_is_direct_sum(self):
        delta = symplectic_form(2)
        np.testing.assert_array_equal(delta[:2, :2], symplectic_form(1))
        np.testing.assert_array_equal(delta[2:, 2:], symplectic_form(1))
        np.testing.assert_array_equal(delta[:2, 2:], np.zeros((2, 2)))

    @given(st.integers(min_value=1, max_value=8))
    def test_antisymmetry_and_square(self, n):
        delta = symplectic_form(n)
        np.testing.assert_array_equal(delta.T, -delta)
        np.testing.assert_array_equal(delta @ delta, -np.eye(2 * n))
        np.testing.assert_array_equal(delta @ delta.T, np.eye(2 * n))

    def test_rejects_zero_modes(self):
        with pytest.raises(ValueError):
            symplectic_form(0)


class TestSqrtComplexPrincipal:
    def test_identity(self):
        np.testing.assert_allclose(sqrt_complex_principal(np.eye(3, dtype=complex)), np.eye(3))

    def test_scalar_principal_branch(self):
        root = sqrt_complex_principal(np.array([[4j]]))
        np.testing.assert_allclose(root, [[np.sqrt(2) * (1 + 1j)]], atol=1e-14)

    def test_fidelity_chain_value(self):
        # the factor appearing in the vacuum fidelity trace
        root = sqrt_complex_principal((9.0 / 25.0) * np.eye(2, dtype=complex))
        np.testing.assert_allclose(root, 0.6 * np.eye(2), atol=1e-14)

    def test_negative_axis_rejected(self):
        with pytest.raises(ComplexSqrtBranchFailure, match="negative real axis"):
            sqrt_complex_principal(np.diag([-1.0 + 0j, 2.0]))
        # only eigenvalues within the zero clamp count as zero
        with pytest.raises(ComplexSqrtBranchFailure, match="negative real axis"):
            sqrt_complex_principal(np.diag([-1e-6 + 0j, 2.0]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="^input must be a square matrix$"):
            sqrt_complex_principal(np.ones((2, 3)))

    def test_zero_eigenvalues_are_clamped(self):
        root = sqrt_complex_principal(np.zeros((2, 2), dtype=complex))
        assert root.tobytes() == np.zeros((2, 2), dtype=complex).tobytes()
        # rounding noise around a zero eigenvalue, as a pure mode leaves it
        root = sqrt_complex_principal(np.diag([-1e-13 + 0j, 4.0]))
        np.testing.assert_array_equal(root, np.diag([0.0, 2.0]))

    def test_right_half_plane(self, rng):
        for _ in range(25):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            try:
                root = sqrt_complex_principal(a)
            except ComplexSqrtBranchFailure:
                continue
            assert np.linalg.eigvals(root).real.min() > -1e-10
            assert np.abs(root @ root - a).max() <= 1e-9 * (1 + np.abs(a).max())

    def test_defective_matrix_fails_the_residual_guard(self):
        # a Jordan block has no eigenvector basis, so the eigenvector root is wrong
        jordan = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ComplexSqrtBranchFailure, match=r"residual 1\.000e\+00 above"):
            sqrt_complex_principal(jordan)

    def test_three_by_three_jordan_block(self):
        jordan = 4.0 * np.eye(3, dtype=complex) + np.diag([1.0, 1.0], 1)
        with pytest.raises(ComplexSqrtBranchFailure, match=r"residual 1\.000e\+00 above"):
            sqrt_complex_principal(jordan)

    def test_near_defective_complex_matrix(self, rng):
        # a similarity transform of a 3x3 Jordan block split by 1e-9
        s = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        lam = 2.0 + 1.0j
        j = np.diag([lam, lam + 1e-9, lam + 2e-9]) + np.diag([1.0, 1.0], 1)
        a = s @ j @ np.linalg.inv(s)
        assert np.linalg.cond(np.linalg.eig(a)[1]) > 1e8
        with pytest.raises(ComplexSqrtBranchFailure, match="reconstruction residual"):
            sqrt_complex_principal(a)

    def test_nilpotent_has_no_root(self):
        # its zero eigenvalues are clamped, and the clamped eigenvector root
        # must fail the residual check, not come back as a root
        with pytest.raises(ComplexSqrtBranchFailure, match=r"residual 1\.000e\+00 above"):
            sqrt_complex_principal(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_singular_eigenvector_basis_in_a_stack(self, rng):
        # eig returns an exactly singular basis for the 3x3 nilpotent Jordan
        # block; that item fails alone, as inverting the basis fails, and its
        # neighbour keeps the root it gets on its own
        nilpotent = np.diag([1.0, 1.0], 1).astype(complex)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(np.linalg.eig(nilpotent)[1])
        regular = random_hermitian_pd(3, rng)
        errors = ItemErrors(2)
        (root,) = sqrt_principal_stack(np.stack([nilpotent, regular]), errors)
        assert isinstance(errors.errors[0], np.linalg.LinAlgError)
        assert str(errors.errors[0]) == "Singular matrix"
        assert errors.errors[1] is None
        assert root[0].tobytes() == sqrt_complex_principal(regular).tobytes()
        # the root covers the live items only
        assert errors.live.tolist() == [1]
        assert len(root) == 1


def test_import_does_not_load_scipy():
    # scipy.linalg would triple the import time and add a second OpenBLAS;
    # numpy.ma (pulled in by np.unique) adds 2.2 MB to a fuzz run's peak RSS
    src = str(Path(gaussimag.__file__).resolve().parents[1])
    path = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    code = (
        "import gaussimag, sys\n"
        "print('scipy' in sys.modules)\n"
        "from gaussimag import fuzz\n"
        "for suite in fuzz.SUITES:\n"
        "    fuzz.run_suite(suite, count=20)\n"
        "print('scipy' in sys.modules, 'numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False", "False", "False"]


class TestWilliamson:
    def test_thermal_eigenvalue(self):
        # single-mode thermal with mean photon number 1.5
        form = williamson(displaced_squeezed_thermal(1.5, 0, 0).cm)
        np.testing.assert_allclose(form.nus, [4.0], atol=1e-12)

    def test_vacuum_gives_orthogonal_factor(self):
        form = williamson(np.eye(4))
        np.testing.assert_allclose(form.nus, [1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(form.s @ form.s.T, np.eye(4), atol=1e-12)

    def test_pure_squeezed_eigenvalue_one(self):
        cm = displaced_squeezed_thermal(0.0, 1j, 0).cm
        assert abs(np.linalg.det(cm) - 1.0) < 1e-10
        form = williamson(cm)
        np.testing.assert_allclose(form.nus, [1.0], atol=1e-10)

    def test_roundtrip_random(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 5))
            cm = random_cm(n, rng)
            form = williamson(cm)
            delta = symplectic_form(n)
            recon = form.s @ np.diag(np.repeat(form.nus, 2)) @ form.s.T
            assert np.linalg.norm(recon - cm) <= 1e-8 * np.linalg.norm(cm)
            assert np.linalg.norm(form.s @ delta @ form.s.T - delta) <= 1e-8

    def test_matches_spectrum_of_form_product(self, rng):
        # symplectic eigenvalues are the positive moduli of eig(i Delta cm)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            cm = random_cm(n, rng)
            form = williamson(cm)
            moduli = np.sort(np.abs(np.linalg.eigvals(1j * symplectic_form(n) @ cm)))
            np.testing.assert_allclose(form.nus, moduli[::2][::-1], rtol=1e-9)

    def test_descending_order(self, rng):
        cm = random_cm(4, rng)
        nus = williamson(cm).nus
        assert all(a >= b for a, b in zip(nus, nus[1:]))

    def test_residual_guard_raises(self):
        with pytest.raises(WilliamsonResidualError):
            errors = ItemErrors(1)
            williamson_stack(np.diag([3.0, 2.0, 5.0, 1.0])[None], errors, tol=1e-18)
            errors.raise_first()

    def test_a_nan_residual_fails_at_any_tol(self, rng):
        # at n_th = 1e170 the cm round trip overflows and its residual is NaN; an
        # infinite tol keeps the finite residual of the other item
        good = random_cm(1, rng)
        errors = ItemErrors(2)
        cm = np.stack([displaced_squeezed_thermal(1e170, 0.3j, 0.2j).cm, good])
        with np.errstate(over="ignore", invalid="ignore"):
            *_, residual = williamson_stack(cm, errors, tol=np.inf)
        assert isinstance(errors.errors[0], WilliamsonResidualError)
        assert "nan" in str(errors.errors[0])
        assert errors.live.tolist() == [1] and np.isfinite(residual).all()

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError):
            williamson(np.eye(3))

    @pytest.mark.parametrize(
        "cm", [np.diag([1.0, -1.0, 1.0, 1.0]), np.diag([1.0, 0.0]), np.diag([2.0, np.nan])]
    )
    def test_rejects_non_positive_definite(self, cm):
        # a NaN spectrum fails the positivity check too; LinAlgError is a ValueError
        with pytest.raises(np.linalg.LinAlgError, match="^matrix is not positive definite$"):
            williamson(cm)

    def test_a_failed_item_leaves_the_live_set(self, rng):
        # the indefinite item fails, and the results cover the item left
        good = random_cm(2, rng)
        errors = ItemErrors(2)
        cm = np.stack([np.diag([1.0, -1.0, 1.0, 1.0]), good])
        s, nus, residual = williamson_stack(cm, errors)
        assert isinstance(errors.errors[0], np.linalg.LinAlgError)
        assert errors.live.tolist() == [1]
        assert len(s) == len(nus) == len(residual) == 1
        assert s[0].tobytes() == williamson(good).s.tobytes()


def test_kept_realigns_an_array_over_a_snapshot():
    errors = ItemErrors(5)
    live = errors.live
    # nothing failed: the index copies nothing
    assert errors.kept(live) == slice(None)
    errors.fail(np.array([False, True, False, True, False]), ValueError)
    rows = np.arange(5) * 10
    assert rows[errors.kept(live)].tolist() == [0, 20, 40]


class TestModeReordering:
    def test_single_mode_is_identity(self):
        np.testing.assert_array_equal(grouped_index(1), [0, 1])

    def test_two_mode_displacement(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(v[grouped_index(2)], [1.0, 3.0, 2.0, 4.0])

    @given(st.integers(min_value=1, max_value=4))
    def test_brute_force_index_map(self, n):
        # grouped_index reorders (q1, p1, ..., qn, pn) to (q1, ..., qn, p1, ..., pn)
        idx = grouped_index(n)
        np.testing.assert_array_equal(np.sort(idx), np.arange(2 * n))
        v = np.arange(2 * n, dtype=float)
        expected = np.concatenate([v[0::2], v[1::2]])
        np.testing.assert_array_equal(v[idx], expected)

    def test_block_split_matches_grouped_reordering(self, rng):
        for n in (1, 2, 3):
            cm = random_cm(n, rng)
            grouped = cm[np.ix_(grouped_index(n), grouped_index(n))]
            blocks = block_split(cm)
            np.testing.assert_array_equal(blocks.a11, grouped[:n, :n])
            np.testing.assert_array_equal(blocks.a12, grouped[:n, n:])
            np.testing.assert_array_equal(blocks.a22, grouped[n:, n:])

    def test_block_split_identity(self):
        blocks = block_split(np.eye(4))
        np.testing.assert_array_equal(blocks.a11, np.eye(2))
        np.testing.assert_array_equal(blocks.a22, np.eye(2))
        np.testing.assert_array_equal(blocks.a12, np.zeros((2, 2)))

    def test_block_split_single_mode_scalars(self):
        cm = np.array([[2.0, 0.5], [0.5, 3.0]])
        blocks = block_split(cm)
        assert blocks.a11[0, 0] == 2.0
        assert blocks.a22[0, 0] == 3.0
        assert blocks.a12[0, 0] == 0.5

    def test_block_split_interpolated_bath_pattern(self):
        # the correlated two-mode matrix [[a+,c,b,0],[c,a-,0,-b],[b,0,a+,c],[0,-b,c,a-]]
        ap, am, b, c = 5.0, 4.0, 1.5, 0.7
        cm = np.array(
            [[ap, c, b, 0.0], [c, am, 0.0, -b], [b, 0.0, ap, c], [0.0, -b, c, am]]
        )
        blocks = block_split(cm)
        np.testing.assert_array_equal(blocks.a11, [[ap, b], [b, ap]])
        np.testing.assert_array_equal(blocks.a22, [[am, -b], [-b, am]])
        np.testing.assert_array_equal(blocks.a12, c * np.eye(2))

    def test_block_split_dimension_check(self):
        # odd-sized, non-square and one-dimensional
        for cm in (np.eye(3), np.ones((2, 4)), np.ones(4)):
            with pytest.raises(ValueError):
                block_split(cm)


class TestDeterminantLemmas:
    """Numerical checks of the block-determinant facts the measure relies on."""

    def test_block_diagonal_det_factorizes(self, rng):
        for _ in range(100):
            sizes = rng.integers(1, 4, size=int(rng.integers(2, 4)))
            dim = int(sizes.sum())
            gamma = random_hermitian_pd(dim, rng)
            zeroed = np.zeros_like(gamma)
            prod = 1.0
            at = 0
            for s in sizes:
                block = gamma[at : at + s, at : at + s]
                zeroed[at : at + s, at : at + s] = block
                prod *= np.linalg.det(block).real
                at += s
            det_zeroed = np.linalg.det(zeroed).real
            assert abs(det_zeroed - prod) <= 1e-10 * abs(prod)
            # nonzero off-diagonal blocks strictly lower the determinant
            assert np.linalg.det(gamma).real < prod

    def test_schur_complement_determinant(self, rng):
        for _ in range(100):
            na, nb = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            t = random_hermitian_pd(na + nb, rng)
            a, c, b = t[:na, :na], t[:na, na:], t[na:, na:]
            schur = b - c.conj().T @ np.linalg.solve(a, c)
            lhs = np.linalg.det(t).real
            rhs = np.linalg.det(a).real * np.linalg.det(schur).real
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    def test_sandwiched_inverse_bound(self, rng):
        for _ in range(100):
            dim = int(rng.integers(1, 5))
            b = random_hermitian_pd(dim, rng)
            m = random_hermitian_pd(dim, rng, ridge=0.0)
            k = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            lhs = k.conj().T @ np.linalg.solve(k @ b @ k.conj().T + m, k)
            diff = np.linalg.inv(b) - lhs
            assert np.linalg.eigvalsh(0.5 * (diff + diff.conj().T)).min() >= -1e-10
