import numpy as np
import pytest
from hypothesis import given, strategies as st

from gaussimag.errors import AsymmetricCM, DimensionMismatch, UncertaintyViolation
from gaussimag.linalg import symplectic_form
from gaussimag.dynamics import BathParams, coherent_imaginarity
from gaussimag.measures import imaginarity, imaginarity_single_mode, measure_all, measure_stack
from gaussimag.sampling import random_state
from gaussimag.states import (
    GaussianState,
    coherent_state,
    displaced_squeezed_thermal,
    momentum_displaced,
    momentum_signs,
    two_mode_squeezed_vacuum,
)


class TestValidation:
    def test_coherent_state_needs_a_mode(self):
        with pytest.raises(ValueError, match="^need at least one mode$"):
            coherent_state([])

    def test_vacuum_is_valid(self):
        state = GaussianState(np.zeros(2), np.eye(2))
        assert state.n == 1

    def test_sub_vacuum_noise_rejected(self):
        # eigenvalues of 0.5 I + i Delta are {-0.5, 1.5}
        with pytest.raises(UncertaintyViolation):
            GaussianState(np.zeros(2), 0.5 * np.eye(2))

    def test_asymmetric_cm_rejected(self):
        with pytest.raises(AsymmetricCM):
            GaussianState(np.zeros(2), np.array([[1.0, 0.3], [-0.3, 1.0]]))

    def test_non_finite_cm_rejected(self):
        # its margin comes out NaN, which proves nothing about physicality
        with np.errstate(invalid="ignore"), pytest.raises(UncertaintyViolation, match="nan"):
            GaussianState(np.zeros(2), np.array([[np.inf, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_displacement_rejected(self, bad):
        with pytest.raises(ValueError, match="^displacement entries must be finite$"):
            GaussianState(np.array([0.0, bad]), np.eye(2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            GaussianState(np.zeros(3), np.eye(2))
        with pytest.raises(DimensionMismatch):
            GaussianState(np.zeros(2), np.eye(4))

    def test_squeezed_vacuum_with_unit_squeezing_valid(self):
        assert two_mode_squeezed_vacuum(1.0).n == 2

    def test_immutable(self):
        state = coherent_state([0])
        with pytest.raises(AttributeError):
            state.n = 3
        with pytest.raises(ValueError):
            state.cm[0, 0] = 5.0

    def test_repr_and_immutable_message(self):
        state = two_mode_squeezed_vacuum(0.5)
        assert repr(state) == "GaussianState(n=2)"
        with pytest.raises(AttributeError, match="^GaussianState is immutable$"):
            state.d = None


class TestRealness:
    def test_vacuum_real(self):
        assert coherent_state([0]).is_real()

    def test_complex_coherent_not_real(self):
        assert not coherent_state([1j]).is_real()
        assert coherent_state([2.5]).is_real()

    def test_real_squeezing_axis(self):
        assert displaced_squeezed_thermal(0.0, 0.7, 0.0).is_real()
        assert not displaced_squeezed_thermal(0.0, 0.7j, 0.0).is_real()

    def test_two_mode_squeezed_vacuum_real_any_r(self):
        for r in (0.0, 0.5, 1.0, 2.0):
            assert two_mode_squeezed_vacuum(r).is_real()

    def test_fixed_point_characterization(self, rng):
        # real iff invariant under momentum-sign flip
        for _ in range(100):
            state = random_state(int(rng.integers(1, 4)), rng)
            conj = state.conjugate()
            fixed = (
                np.abs(state.d - conj.d).max() <= 1e-12
                and np.abs(state.cm - conj.cm).max() <= 1e-12
            )
            assert state.is_real() == fixed


class TestZeroTol:
    @pytest.mark.parametrize("zero_tol", [-1.0, -1e-300, float("nan")])
    def test_negative_threshold_rejected_everywhere(self, zero_tol):
        state = coherent_state([0])
        calls = [
            lambda: momentum_displaced(state.d, zero_tol),
            lambda: imaginarity(state, zero_tol),
            lambda: measure_all(state, zero_tol=zero_tol),
            lambda: measure_stack(state.d[None], state.cm[None], zero_tol=zero_tol),
            lambda: imaginarity_single_mode(0.0, 0.0, 0.0, zero_tol),
            lambda: coherent_imaginarity([0.0, 0.0], BathParams(lam=0.1, n_th=0.5), 1.0, zero_tol),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="zero_tol must be >= 0"):
                call()

    def test_zero_threshold_is_valid(self):
        assert not momentum_displaced(np.zeros(2), 0.0)
        assert momentum_displaced(np.array([0.0, 1e-300]), 0.0)
        assert measure_all(coherent_state([0]), zero_tol=0.0).imaginarity == 0.0


class TestConjugation:
    def test_matrix_shape(self):
        # conjugation is diag(1, -1, ..., 1, -1), kept as its sign vector
        np.testing.assert_array_equal(momentum_signs(2), [1.0, -1.0, 1.0, -1.0])
        o = momentum_signs(3)
        np.testing.assert_array_equal(o * o, np.ones(6))

    def test_coherent_example(self):
        conj = coherent_state([1j]).conjugate()
        np.testing.assert_array_equal(conj.d, [0.0, -2.0])
        np.testing.assert_array_equal(conj.cm, np.eye(2))

    def test_real_state_unchanged(self):
        state = displaced_squeezed_thermal(1.0, 0.5, 2.0)
        conj = state.conjugate()
        np.testing.assert_array_equal(conj.d, state.d)
        np.testing.assert_array_equal(conj.cm, state.cm)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_involution_exact(self, seed):
        rng = np.random.default_rng(seed)
        state = random_state(int(rng.integers(1, 4)), rng)
        twice = state.conjugate().conjugate()
        np.testing.assert_array_equal(twice.d, state.d)
        np.testing.assert_array_equal(twice.cm, state.cm)

    def test_conjugate_preserves_realness_flag(self, rng):
        for _ in range(50):
            state = random_state(2, rng)
            assert state.conjugate().is_real() == state.is_real()


class TestReduce:
    def test_all_modes_identity(self, rng):
        state = random_state(3, rng)
        kept = state.reduce([1, 2, 3])
        np.testing.assert_array_equal(kept.d, state.d)
        np.testing.assert_array_equal(kept.cm, state.cm)

    def test_squeezed_vacuum_marginal_is_thermal(self):
        r = 1.0
        kept = two_mode_squeezed_vacuum(r).reduce([1])
        np.testing.assert_array_equal(kept.d, np.zeros(2))
        np.testing.assert_allclose(kept.cm, 2.0 * np.cosh(2 * r) * np.eye(2))

    def test_product_state_block(self):
        a = displaced_squeezed_thermal(0.5, 0.3j, 1 + 1j)
        b = displaced_squeezed_thermal(2.0, 0.0, -1j)
        cm = np.zeros((4, 4))
        cm[:2, :2], cm[2:, 2:] = a.cm, b.cm
        product = GaussianState(np.concatenate([a.d, b.d]), cm)
        np.testing.assert_array_equal(product.reduce([2]).cm, b.cm)
        np.testing.assert_array_equal(product.reduce([2]).d, b.d)

    def test_order_is_preserved(self, rng):
        state = random_state(3, rng)
        swapped = state.reduce([3, 1])
        np.testing.assert_array_equal(swapped.d[:2], state.d[4:6])
        np.testing.assert_array_equal(swapped.cm[:2, :2], state.cm[4:6, 4:6])

    def test_reduction_stays_physical(self, rng):
        delta1 = symplectic_form(1)
        for _ in range(200):
            n = int(rng.integers(2, 5))
            state = random_state(n, rng)
            mode = int(rng.integers(1, n + 1))
            kept = state.reduce([mode])  # constructor re-validates
            assert np.linalg.eigvalsh(kept.cm + 1j * delta1).min() > -1e-9

    def test_bad_subsets_rejected(self, rng):
        state = random_state(2, rng)
        with pytest.raises(ValueError):
            state.reduce([])
        with pytest.raises(ValueError):
            state.reduce([3])
        with pytest.raises(ValueError):
            state.reduce([1, 1])
        # once a bare IndexError (1.0, 1.5) or TypeError ("1") from numpy; True read as mode 1
        for label in (1.0, 1.5, "1", True):
            with pytest.raises(ValueError, match=f"^mode labels must be integers, got {label!r}$"):
                state.reduce([label])
        # numpy integers are labels too
        np.testing.assert_array_equal(state.reduce(np.array([2])).cm, state.reduce([2]).cm)


class TestConstructors:
    def test_coherent_vacuum(self):
        state = coherent_state([0, 0])
        np.testing.assert_array_equal(state.d, np.zeros(4))
        np.testing.assert_array_equal(state.cm, np.eye(4))

    def test_coherent_displacement_layout(self):
        state = coherent_state([1 + 1j])
        np.testing.assert_array_equal(state.d, [2.0, 2.0])

    @given(
        st.lists(
            st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=4,
        )
    )
    def test_coherent_interleaving(self, alphas):
        state = coherent_state(alphas)
        np.testing.assert_array_equal(state.d[0::2], [2 * a.real for a in alphas])
        np.testing.assert_array_equal(state.d[1::2], [2 * a.imag for a in alphas])
        np.testing.assert_array_equal(state.cm, np.eye(2 * len(alphas)))

    def test_squeezed_thermal_limits(self):
        # no squeezing, no thermal noise: coherent
        alpha = 0.3 - 0.8j
        np.testing.assert_allclose(
            displaced_squeezed_thermal(0.0, 0.0, alpha).cm, coherent_state([alpha]).cm
        )
        # thermal only: scalar covariance, real state
        thermal = displaced_squeezed_thermal(1.25, 0.0, 0.0)
        np.testing.assert_allclose(thermal.cm, 3.5 * np.eye(2))
        assert thermal.is_real()

    def test_squeezed_cm_entries(self):
        zeta = 0.8 * np.exp(1j * np.pi / 3)
        state = displaced_squeezed_thermal(0.0, zeta, 0.0)
        ch, sh = np.cosh(1.6), np.sinh(1.6)
        np.testing.assert_allclose(
            state.cm,
            [
                [ch + 0.5 * sh, np.sin(np.pi / 3) * sh],
                [np.sin(np.pi / 3) * sh, ch - 0.5 * sh],
            ],
            atol=1e-14,
        )

    def test_two_mode_squeezed_vacuum_entries(self):
        state = two_mode_squeezed_vacuum(1.0)
        assert state.cm[0, 0] == pytest.approx(2 * np.cosh(2.0))
        assert state.cm[0, 2] == pytest.approx(2 * np.sinh(2.0))
        assert state.cm[1, 3] == pytest.approx(-2 * np.sinh(2.0))
        np.testing.assert_array_equal(two_mode_squeezed_vacuum(0.0).cm, 2.0 * np.eye(4))

    def test_negative_thermal_rejected(self):
        with pytest.raises(ValueError):
            displaced_squeezed_thermal(-0.5, 0.0, 0.0)
