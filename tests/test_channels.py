import hashlib

import numpy as np
import pytest

from gaussimag.channels import GaussianChannel, RealnessClass, classify_real, random_real_channel
from gaussimag.errors import AsymmetricNoise, DimensionMismatch, PhysicalityViolation
from gaussimag.linalg import symplectic_form
from gaussimag.measures import imaginarity
from gaussimag.sampling import random_state
from gaussimag.states import coherent_state, displaced_squeezed_thermal


def identity_channel(n=1):
    return GaussianChannel(np.eye(2 * n), np.zeros((2 * n, 2 * n)), np.zeros(2 * n))


class TestValidation:
    def test_identity_channel(self):
        assert identity_channel().n == 1

    def test_immutable(self):
        channel = identity_channel()
        assert repr(channel) == "GaussianChannel(n=1)"
        with pytest.raises(AttributeError, match="^GaussianChannel is immutable$"):
            channel.n = 3
        for arr in (channel.t, channel.noise, channel.d0):
            with pytest.raises(ValueError):
                arr[0] = 5.0

    def test_measure_and_replace_channel(self):
        # T = 0 discards the input; N = I leaves a vacuum-noise output
        ch = GaussianChannel(np.zeros((2, 2)), np.eye(2), np.zeros(2))
        out = ch.apply(displaced_squeezed_thermal(3.0, 1j, 2 + 2j))
        np.testing.assert_array_equal(out.cm, np.eye(2))
        np.testing.assert_array_equal(out.d, np.zeros(2))

    def test_amplification_without_noise_rejected(self):
        # N + i(Delta - 4 Delta) = -3 i Delta has eigenvalues +-3
        with pytest.raises(PhysicalityViolation):
            GaussianChannel(2.0 * np.eye(2), np.zeros((2, 2)), np.zeros(2))

    def test_asymmetric_noise_rejected(self):
        with pytest.raises(AsymmetricNoise):
            GaussianChannel(np.eye(2), np.array([[1.0, 0.2], [-0.2, 1.0]]), np.zeros(2))

    def test_negative_noise_rejected(self):
        with pytest.raises(PhysicalityViolation):
            GaussianChannel(np.zeros((2, 2)), -np.eye(2), np.zeros(2))

    @pytest.mark.parametrize("key", ["T", "N", "d0"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, key, value):
        # a NaN once passed the symmetry and eigenvalue tests, which compare false
        arrays = {"T": np.eye(2), "N": np.zeros((2, 2)), "d0": np.zeros(2)}
        arrays[key][0, ...] = value
        with pytest.raises(ValueError, match=f"^{key} entries must be finite$"):
            GaussianChannel(arrays["T"], arrays["N"], arrays["d0"])

    def test_dimension_checks(self):
        with pytest.raises(DimensionMismatch):
            GaussianChannel(np.eye(2), np.zeros((2, 2)), np.zeros(4))
        with pytest.raises(DimensionMismatch):
            identity_channel(1).apply(coherent_state([0, 0]))
        message = r"^shift must have even length >= 2, got shape \(3,\)$"
        with pytest.raises(DimensionMismatch, match=message):
            GaussianChannel(np.eye(2), np.zeros((2, 2)), np.zeros(3))


class TestApply:
    def test_identity_preserves_state(self, rng):
        state = random_state(2, rng)
        out = identity_channel(2).apply(state)
        np.testing.assert_array_equal(out.d, state.d)
        np.testing.assert_array_equal(out.cm, state.cm)

    def test_single_mode_diagonal_affine_law(self):
        t11, t22, n11, n22 = 0.6, 0.8, 0.7, 0.9
        ch = GaussianChannel(np.diag([t11, t22]), np.diag([n11, n22]), np.zeros(2))
        state = displaced_squeezed_thermal(0.5, 0.4j, 1 + 2j)
        out = ch.apply(state)
        v = state.cm
        np.testing.assert_allclose(
            out.cm,
            [
                [t11**2 * v[0, 0] + n11, t11 * t22 * v[0, 1]],
                [t11 * t22 * v[0, 1], t22**2 * v[1, 1] + n22],
            ],
        )
        np.testing.assert_allclose(out.d, [t11 * state.d[0], t22 * state.d[1]])

    def test_shift_only(self):
        ch = GaussianChannel(np.zeros((2, 2)), np.eye(2), np.array([1.5, -2.5]))
        out = ch.apply(coherent_state([3 + 3j]))
        np.testing.assert_array_equal(out.d, [1.5, -2.5])

    def test_output_always_physical(self, rng):
        delta_by_n = {n: symplectic_form(n) for n in (1, 2, 3)}
        for _ in range(200):
            n = int(rng.integers(1, 4))
            kind = (
                RealnessClass.COMPLETELY_REAL
                if rng.random() < 0.5
                else RealnessClass.COVARIANT_REAL
            )
            out = random_real_channel(n, kind, rng).apply(random_state(n, rng))
            assert np.linalg.eigvalsh(out.cm + 1j * delta_by_n[n]).min() >= -1e-9


class TestClassification:
    def test_identity_is_covariant_real(self):
        assert classify_real(identity_channel(2)) is RealnessClass.COVARIANT_REAL

    def test_zeroed_momentum_rows_completely_real(self):
        t = np.array([[0.3, -0.7], [0.0, 0.0]])
        ch = GaussianChannel(t, 2.0 * np.eye(2), np.zeros(2))
        assert classify_real(ch) is RealnessClass.COMPLETELY_REAL

    def test_cross_noise_entry_breaks_realness(self):
        noise = 2.0 * np.eye(2)
        noise[0, 1] = noise[1, 0] = 0.5
        ch = GaussianChannel(np.zeros((2, 2)), noise, np.zeros(2))
        assert classify_real(ch) is RealnessClass.NOT_REAL

    def test_momentum_shift_breaks_realness(self):
        ch = GaussianChannel(np.zeros((2, 2)), np.eye(2), np.array([0.0, 1.0]))
        assert classify_real(ch) is RealnessClass.NOT_REAL

    def test_both_patterns(self):
        t = np.zeros((2, 2))
        t[0, 0] = 0.5
        ch = GaussianChannel(t, np.eye(2), np.zeros(2))
        assert classify_real(ch) is RealnessClass.BOTH

    def test_scaling_noise_keeps_class(self, rng):
        for kind in (RealnessClass.COMPLETELY_REAL, RealnessClass.COVARIANT_REAL):
            ch = random_real_channel(2, kind, rng)
            scaled = GaussianChannel(ch.t, 3.0 * ch.noise, ch.d0)
            assert classify_real(scaled) is classify_real(ch)


class TestRandomRealChannels:
    def test_requested_kind_produced(self, rng):
        for kind in (RealnessClass.COMPLETELY_REAL, RealnessClass.COVARIANT_REAL):
            for _ in range(50):
                got = classify_real(random_real_channel(2, kind, rng))
                assert got in (kind, RealnessClass.BOTH)

    def test_deterministic_per_seed(self):
        a = random_real_channel(2, RealnessClass.COVARIANT_REAL, 123)
        b = random_real_channel(2, RealnessClass.COVARIANT_REAL, 123)
        np.testing.assert_array_equal(a.t, b.t)
        np.testing.assert_array_equal(a.noise, b.noise)

    def test_completely_real_breaks_imaginarity(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 4))
            ch = random_real_channel(n, RealnessClass.COMPLETELY_REAL, rng)
            out = ch.apply(random_state(n, rng))
            assert out.is_real()
            assert imaginarity(out) <= 1e-10

    def test_covariant_real_preserves_realness(self, rng):
        from gaussimag.sampling import random_real_state

        for _ in range(100):
            n = int(rng.integers(1, 4))
            ch = random_real_channel(n, RealnessClass.COVARIANT_REAL, rng)
            assert ch.apply(random_real_state(n, rng)).is_real()

    def test_full_validation_accepts_every_drawn_channel(self):
        # drawn channels skip validation: the full constructor must accept each
        # of them and keep its arrays; the digest pins the draws themselves
        # (recorded with numpy 2.4.6 and its bundled OpenBLAS on x86-64)
        digest = hashlib.sha256()
        for kind in (RealnessClass.COMPLETELY_REAL, RealnessClass.COVARIANT_REAL):
            for n in range(1, 5):
                for seed in range(200):
                    ch = random_real_channel(n, kind, seed)
                    full = GaussianChannel(ch.t, ch.noise, ch.d0)
                    drawn = b"".join(a.tobytes() for a in (ch.t, ch.noise, ch.d0))
                    assert drawn == b"".join(a.tobytes() for a in (full.t, full.noise, full.d0))
                    digest.update(drawn)
        assert digest.hexdigest() == (
            "c1a588968e5cb2670879c9cb648c93bab28d9c2c4308a4cfda3e0ead3193d54a"
        )

    def test_rejects_other_kinds(self, rng):
        with pytest.raises(ValueError):
            random_real_channel(1, RealnessClass.NOT_REAL, rng)
