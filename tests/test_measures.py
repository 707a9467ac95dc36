import hashlib
import math

import numpy as np
import pytest

from gaussimag.errors import InvalidMu, NonRealResult
from gaussimag.linalg import ItemErrors
from gaussimag.measures import (
    _fidelity_stack,
    _w_chain_stack,
    fidelity_imaginarity,
    fidelity_imaginarity_single_mode,
    imaginarity,
    imaginarity_single_mode,
    measure_all,
    tsallis_imaginarity,
    tsallis_imaginarity_single_mode,
)
from gaussimag.sampling import random_real_state, random_state
from gaussimag.states import GaussianState, coherent_state, displaced_squeezed_thermal, momentum_displaced

from conftest import inject_cross_entry, wide_state


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
            if not momentum_displaced(state.d):
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


@pytest.mark.parametrize(
    "closed_form",
    [
        imaginarity_single_mode,
        fidelity_imaginarity_single_mode,
        lambda n_th, zeta, alpha: tsallis_imaginarity_single_mode(n_th, zeta, alpha, 0.5),
    ],
    ids=["imaginarity", "fidelity", "tsallis"],
)
def test_single_mode_closed_forms_reject_negative_n_th(closed_form):
    with pytest.raises(ValueError, match="^thermal photon number must be >= 0, got -1.0$"):
        closed_form(-1.0, 0.5, 0.0)


class TestFidelityMeasure:
    def test_vacuum_chain_intermediates(self):
        from gaussimag.linalg import symplectic_form

        w_aux, f_tot4 = _w_chain_stack(2.0 * np.eye(2)[None], ItemErrors(1))
        np.testing.assert_allclose(w_aux[0], 1.25j * symplectic_form(1), atol=1e-14)
        assert complex(f_tot4[0]) == pytest.approx(4.0, abs=1e-14)

    def test_vacuum_value(self):
        vacuum = coherent_state([0])
        cm = vacuum.cm[None]
        f0 = _fidelity_stack(vacuum.d[None], cm, ItemErrors(1))
        assert f0[0] == pytest.approx(1.0, abs=1e-14)
        assert 1 - f0[0] == pytest.approx(0.0, abs=1e-14)

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

    def test_wide_pool_outcomes_are_pinned(self):
        # the first states of the benchmark's 8- and 16-mode wide pool, values
        # and failure messages alike; 12 of the 80 fail the chain and take
        # their f_tot4 from the spectral stage, so none fails.  Recorded
        # with numpy 2.4.6 and its bundled OpenBLAS 0.3.31 on x86-64 with
        # AVX-512, the same under 1 and 2 BLAS threads; another BLAS build may
        # round differently.
        digest, failed = hashlib.sha256(), 0
        for n, count in ((8, 64), (16, 16)):
            for k in range(count):
                report = measure_all(wide_state(n, k)).to_dict()
                failed += report["fidelity_error"] is not None
                digest.update(repr(report).encode())
        assert failed == 0
        assert digest.hexdigest() == (
            "5db43960b47b4dd0d729cdef935f5fb626e9649b0c24137f91280848b66e624b"
        )

    def test_wide_pool_outcomes_are_pinned_past_the_multishift_size(self):
        # 32- and 64-mode wide states, whose chain runs eig on 64 and 128 square
        # matrices; LAPACK's eig takes its multishift path from order 75 on.
        # The chain fails 7 of the 12 32-mode states and 64-mode states 0-3
        # (13 and 15 as well under 1 BLAS thread); the spectral stage rescues
        # them.  At 64 modes det_cm moves by ~1e-13 relative between 1 and 2
        # BLAS threads, so only the values (all 1.0 in double precision) and
        # error strings are hashed there.  Same build as above, the same
        # under 1 and 2 BLAS threads.
        states = {
            n: [wide_state(n, k) for k in ks]
            for n, ks in ((32, range(12)), (64, (0, 1, 2, 3, 13, 15)))
        }
        chain = ItemErrors(12)
        _w_chain_stack(np.stack([state.cm for state in states[32]]), chain)
        lost = [k for k, exc in enumerate(chain.errors) if exc is not None]
        assert lost == [0, 3, 4, 7, 8, 10, 11]
        keys = ("imaginarity", "fidelity_imaginarity", "tsallis_imaginarity")
        keys += ("fidelity_error", "tsallis_error")
        digest, failed = hashlib.sha256(), 0
        for n, pool in states.items():
            for state in pool:
                report = measure_all(state).to_dict()
                failed += report["fidelity_error"] is not None
                digest.update(repr(report if n == 32 else [report[key] for key in keys]).encode())
        assert failed == 0
        assert digest.hexdigest() == (
            "2aedd20672cd4bbe32a374006a655d51a8e37f447f29d15becbdd9f12483be56"
        )


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

    @pytest.mark.parametrize("n_th", [5e15, 1e16, 1e150])
    def test_overflowing_weights_are_a_named_failure(self, n_th):
        # nu = 2 n_th + 1 puts the normal form's q = (nu - 1)/(nu + 1) within rounding
        # of 1, where the overlap read NaN: both calls name the failure, and the
        # fidelity path is unaffected
        message = "Tsallis weights overflow: q = (nu - 1)/(nu + 1) is within rounding of 1"
        state = displaced_squeezed_thermal(n_th, 0.3j, 0.2j)
        report = measure_all(state)
        assert report.tsallis_imaginarity is None
        assert report.tsallis_error == "OverflowError: " + message
        assert report.fidelity_error is None
        with pytest.raises(OverflowError) as raised:
            tsallis_imaginarity(state, 0.5)
        assert str(raised.value) == message


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
            return np.empty(0)

        monkeypatch.setattr(measures, "_fidelity_stack", boom)
        report = measures.measure_all(random_state(2, rng))
        assert report.fidelity_imaginarity is None
        assert "synthetic failure" in report.fidelity_error
        assert report.imaginarity is not None
        assert report.tsallis_imaginarity is not None

    def test_four_mode_state_still_reports(self, rng):
        report = measure_all(random_state(4, rng))
        assert 0.0 <= report.imaginarity <= 2.0
