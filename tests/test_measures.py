import math

import numpy as np
import pytest

from gaussimag.errors import InvalidMu, NonRealResult
from gaussimag.measures import (
    _fidelity_chain,
    _fidelity_w_chain,
    fidelity_imaginarity,
    fidelity_imaginarity_single_mode,
    imaginarity,
    imaginarity_single_mode,
    measure_all,
    momentum_indicator,
    tsallis_imaginarity,
    tsallis_imaginarity_single_mode,
)
from gaussimag.sampling import inject_cross_entry, random_real_state, random_state
from gaussimag.states import GaussianState, coherent_state, displaced_squeezed_thermal


def product_state(a, b):
    dim = 2 * (a.n + b.n)
    cm = np.zeros((dim, dim))
    cm[: 2 * a.n, : 2 * a.n] = a.cm
    cm[2 * a.n :, 2 * a.n :] = b.cm
    return GaussianState(np.concatenate([a.d, b.d]), cm)


class TestCovarianceRatioMeasure:
    def test_complex_coherent_is_one_exactly(self):
        assert imaginarity(coherent_state([1j])) == 1.0

    def test_real_states_are_zero(self, rng):
        for _ in range(100):
            assert imaginarity(random_real_state(int(rng.integers(1, 5)), rng)) <= 1e-10

    def test_squeezed_value(self):
        s = math.sinh(2.0) ** 2
        assert imaginarity(displaced_squeezed_thermal(0, 1j, 0)) == pytest.approx(
            1 - 1 / (1 + s), abs=1e-12
        )

    def test_band_structure(self, rng):
        # indicator 0 keeps the value below 1; indicator 1 lifts it into [1, 2]
        for _ in range(200):
            state = random_state(int(rng.integers(1, 4)), rng)
            value = imaginarity(state)
            if momentum_indicator(state) == 0:
                assert 0.0 <= value < 1.0
            else:
                assert 1.0 <= value <= 2.0

    def test_multimode_coherent_indicator(self):
        assert imaginarity(coherent_state([1.0, 2.0, 3.0])) == 0.0
        assert imaginarity(coherent_state([1.0, 2.0, 1e-6j])) == 1.0

    def test_injected_cross_entry_detected(self, rng):
        for _ in range(100):
            state = random_real_state(int(rng.integers(1, 5)), rng)
            broken = inject_cross_entry(state, rng, eps=float(rng.uniform(1e-3, 0.1)))
            assert imaginarity(broken) >= 1e-8

    def test_single_mode_closed_form_matches(self, rng):
        for _ in range(100):
            n_th = rng.uniform(0, 5)
            zeta = rng.uniform(0, 2) * np.exp(1j * rng.uniform(-np.pi, np.pi))
            alpha = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            state = displaced_squeezed_thermal(n_th, zeta, alpha)
            assert imaginarity(state) == pytest.approx(
                imaginarity_single_mode(n_th, zeta, alpha), abs=1e-10
            )

    def test_thermal_independence(self):
        zeta, alpha = 0.8 * np.exp(1j * np.pi / 3), 0.5 + 0.25j
        values = {
            imaginarity_single_mode(n_th, zeta, alpha) for n_th in (0.0, 0.5, 1.0, 5.0, 20.0)
        }
        assert len(values) == 1


class TestFidelityMeasure:
    def test_vacuum_chain_intermediates(self):
        from gaussimag.linalg import symplectic_form

        chain = _fidelity_w_chain(np.eye(2), np.eye(2))
        np.testing.assert_allclose(
            chain["w_aux"], 1.25j * symplectic_form(1), atol=1e-14
        )
        assert chain["f_tot4"] == pytest.approx(4.0, abs=1e-14)

    def test_vacuum_value(self):
        chain = _fidelity_chain(coherent_state([0]))
        assert chain["f0"] == pytest.approx(1.0, abs=1e-14)
        assert chain["value"] == pytest.approx(0.0, abs=1e-14)

    def test_coherent_closed_form(self):
        for alpha in (1j, 0.5 - 0.25j, 2j):
            got = fidelity_imaginarity(coherent_state([alpha]))
            assert got == pytest.approx(1 - math.exp(-2 * alpha.imag**2), abs=1e-12)

    def test_squeezed_closed_form(self):
        s = math.sinh(2.0) ** 2
        got = fidelity_imaginarity(displaced_squeezed_thermal(0, 1j, 0))
        assert got == pytest.approx(1 - (1 + s) ** -0.25, abs=1e-12)

    def test_single_mode_closed_form_matches(self, rng):
        for _ in range(100):
            n_th = rng.uniform(0, 5)
            zeta = rng.uniform(0, 2) * np.exp(1j * rng.uniform(-np.pi, np.pi))
            alpha = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            state = displaced_squeezed_thermal(n_th, zeta, alpha)
            assert fidelity_imaginarity(state) == pytest.approx(
                fidelity_imaginarity_single_mode(n_th, zeta, alpha), abs=1e-9
            )

    def test_factorizes_over_products(self, rng):
        for _ in range(25):
            a = displaced_squeezed_thermal(
                rng.uniform(0, 2),
                rng.uniform(0, 1.5) * np.exp(1j * rng.uniform(-np.pi, np.pi)),
                complex(rng.normal(), rng.normal()),
            )
            b = displaced_squeezed_thermal(
                rng.uniform(0, 2),
                rng.uniform(0, 1.5) * np.exp(1j * rng.uniform(-np.pi, np.pi)),
                complex(rng.normal(), rng.normal()),
            )
            lhs = 1 - fidelity_imaginarity(product_state(a, b))
            rhs = (1 - fidelity_imaginarity(a)) * (1 - fidelity_imaginarity(b))
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestTsallisMeasure:
    def test_vacuum_zero(self):
        for mu in (0.25, 0.5, 0.75):
            assert tsallis_imaginarity(coherent_state([0]), mu) == pytest.approx(0.0, abs=1e-12)

    def test_coherent_closed_form(self):
        got = tsallis_imaginarity(coherent_state([1j]), 0.5)
        assert got == pytest.approx(1 - math.exp(-4), abs=1e-12)

    def test_squeezed_closed_form(self):
        s = math.sinh(2.0) ** 2
        got = tsallis_imaginarity(displaced_squeezed_thermal(0, 1j, 0), 0.5)
        assert got == pytest.approx(1 - (1 + s) ** -0.5, abs=1e-12)

    def test_single_mode_closed_form_matches(self, rng):
        for _ in range(100):
            n_th = rng.uniform(0, 5)
            zeta = rng.uniform(0, 2) * np.exp(1j * rng.uniform(-np.pi, np.pi))
            alpha = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            mu = float(rng.choice([0.25, 0.5, 0.75]))
            state = displaced_squeezed_thermal(n_th, zeta, alpha)
            assert tsallis_imaginarity(state, mu) == pytest.approx(
                tsallis_imaginarity_single_mode(n_th, zeta, alpha, mu), abs=1e-9
            )

    def test_mu_validated(self):
        state = coherent_state([1j])
        for mu in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(InvalidMu):
                tsallis_imaginarity(state, mu)
            with pytest.raises(InvalidMu):
                tsallis_imaginarity_single_mode(0.5, 0.5j, 0, mu)


class TestCrossMeasureProperties:
    def test_ordering_on_coherent_family(self):
        for im in (0.25, 0.5, 1.0, 2.0):
            state = coherent_state([1j * im])
            ign, mf = imaginarity(state), fidelity_imaginarity(state)
            mt = tsallis_imaginarity(state, 0.5)
            assert ign > mt > mf > 0

    def test_ordering_on_squeezed_family(self):
        for theta in (np.pi / 6, np.pi / 2, 5 * np.pi / 6):
            for az in (0.25, 1.0, 2.0):
                state = displaced_squeezed_thermal(0, az * np.exp(1j * theta), 0)
                ign, mf = imaginarity(state), fidelity_imaginarity(state)
                mt = tsallis_imaginarity(state, 0.5)
                assert ign > mt > mf > 0

    def test_conjugation_invariance(self, rng):
        for _ in range(50):
            state = random_state(int(rng.integers(1, 4)), rng)
            conj = state.conjugate()
            assert imaginarity(conj) == pytest.approx(imaginarity(state), abs=1e-12)
            assert fidelity_imaginarity(conj) == pytest.approx(
                fidelity_imaginarity(state), abs=1e-10
            )
            assert tsallis_imaginarity(conj, 0.5) == pytest.approx(
                tsallis_imaginarity(state, 0.5), abs=1e-10
            )


class TestMeasureAll:
    def test_vacuum_report(self):
        report = measure_all(coherent_state([0]))
        assert report.imaginarity == 0.0
        assert report.fidelity_imaginarity == pytest.approx(0.0, abs=1e-12)
        assert report.tsallis_imaginarity == pytest.approx(0.0, abs=1e-12)
        assert report.h_term == 0

    def test_coherent_report(self):
        report = measure_all(coherent_state([1j]), mu=0.5)
        assert report.imaginarity == 1.0
        assert report.fidelity_imaginarity == pytest.approx(1 - math.exp(-2), abs=1e-10)
        assert report.tsallis_imaginarity == pytest.approx(1 - math.exp(-4), abs=1e-10)
        assert report.h_term == 1

    def test_report_internal_consistency(self, rng):
        for _ in range(50):
            report = measure_all(random_state(int(rng.integers(1, 4)), rng))
            ratio = report.det_cm / (report.det_pos_block * report.det_mom_block)
            assert report.imaginarity == pytest.approx(1 - ratio + report.h_term, abs=1e-12)

    def test_fragile_path_failure_is_flagged(self, monkeypatch, rng):
        import gaussimag.measures as measures

        def boom(d, cm, errors):
            errors.fail(np.ones(len(errors.live), dtype=bool), lambda j: NonRealResult("synthetic failure"))
            return np.empty(0), np.empty(0)

        monkeypatch.setattr(measures, "_fidelity_stack", boom)
        report = measures.measure_all(random_state(2, rng))
        assert report.fidelity_imaginarity is None
        assert "synthetic failure" in report.fidelity_error
        assert report.imaginarity is not None
        assert report.tsallis_imaginarity is not None

    def test_four_mode_state_still_reports(self, rng):
        report = measure_all(random_state(4, rng))
        assert 0.0 <= report.imaginarity <= 2.0
