"""The stacked measure core against its one-item case and the closed identities."""

import numpy as np
import pytest

from gaussimag.dynamics import BathParams, evolve, trajectory
from gaussimag.errors import AsymmetricCM, ComplexSqrtBranchFailure, UncertaintyViolation
from gaussimag.linalg import symplectic_form
from gaussimag.measures import fidelity_imaginarity, imaginarity, measure_all, measure_stack
from gaussimag.sampling import draw_symplectic, random_state, symplectic_stack
from gaussimag.states import (
    GaussianState,
    coherent_state,
    displaced_squeezed_thermal,
    two_mode_squeezed_vacuum,
    validate,
)

BATH = BathParams(lam=0.1, n_th=1.5, big_r=1.0, phi=np.pi / 2)


def stack(states):
    return np.stack([s.d for s in states]), np.stack([s.cm for s in states])


def failing_fidelity_state():
    # a two-mode state on which the fidelity square root leaves the principal branch
    state = random_state(2, np.random.default_rng([7, 2, 424]), max_squeeze=2.0)
    with pytest.raises(ComplexSqrtBranchFailure):
        fidelity_imaginarity(state)
    return state


def mixed_states(n, rng):
    """Pure, thermal and displaced n-mode states, plus random ones."""
    states = [
        coherent_state([0] * n),
        coherent_state([0.5 - 1j] + [0.25j] * (n - 1)),
    ]
    if n == 1:
        states += [
            displaced_squeezed_thermal(0.0, 0.8j, 0.0),
            displaced_squeezed_thermal(2.0, 0.0, 0.0),
            displaced_squeezed_thermal(1.5, 0.6 * np.exp(0.4j), 1.0 + 0.5j),
        ]
    else:
        states += [two_mode_squeezed_vacuum(0.7), evolve(two_mode_squeezed_vacuum(1.0), BATH, 3.0)]
    states += [random_state(n, rng) for _ in range(12)]
    return states


class TestStackMatchesSingleCalls:
    @pytest.mark.parametrize("n", [1, 2])
    def test_mixed_stack_item_equals_one_item_call(self, n, rng):
        states = mixed_states(n, rng)
        if n == 2:
            states.insert(3, failing_fidelity_state())
        reports = measure_stack(*stack(states), mu=0.3)
        assert len(reports.failures) == len(states)
        for k, state in enumerate(states):
            assert reports.report(k).to_dict() == measure_all(state, mu=0.3).to_dict()

    def test_forced_failure_leaves_other_items_unchanged(self, rng):
        good = [random_state(2, rng) for _ in range(6)]
        bad = failing_fidelity_state()
        alone = measure_stack(*stack(good))
        mixed = measure_stack(*stack(good[:3] + [bad] + good[3:]))
        report = mixed.report(3)
        assert report.fidelity_imaginarity is None
        assert report.fidelity_error.startswith("ComplexSqrtBranchFailure: ")
        assert report.tsallis_imaginarity is not None
        assert np.isnan(mixed.fidelity_imaginarity[3])
        keep = [0, 1, 2, 4, 5, 6]
        for field in ("imaginarity", "fidelity_imaginarity", "tsallis_imaginarity", "log_dets"):
            np.testing.assert_array_equal(getattr(mixed, field)[keep], getattr(alone, field))

    def test_linalg_error_is_kept_per_item(self):
        # an indefinite matrix makes the stacked Cholesky fail; only its item fails
        d = np.zeros((3, 2))
        cm = np.stack([np.eye(2), np.diag([1.0, -1.0]), 2.0 * np.eye(2)])
        reports = measure_stack(d, cm)
        assert isinstance(reports.failures[1][0], np.linalg.LinAlgError)
        with pytest.raises(np.linalg.LinAlgError):
            reports.report(1)
        assert reports.report(0).imaginarity == 0.0
        assert reports.report(2).tsallis_imaginarity == pytest.approx(0.0, abs=1e-12)

    def test_validate_is_per_item(self):
        cm = np.stack(
            [np.eye(2), 0.5 * np.eye(2), np.array([[1.0, 0.3], [-0.3, 1.0]]), 3.0 * np.eye(2)]
        )
        sym, margin, errors = validate(cm)
        assert errors[0] is None and errors[3] is None
        assert isinstance(errors[1], UncertaintyViolation)
        assert isinstance(errors[2], AsymmetricCM)
        delta = symplectic_form(1)
        for k in range(4):
            assert margin[k] == np.linalg.eigvalsh(sym[k] + 1j * delta).min()

    def test_checked_constructor_returns_the_margin(self, rng):
        state = random_state(3, rng)
        again, margin = GaussianState.checked(state.d, state.cm)
        np.testing.assert_array_equal(again.cm, state.cm)
        assert margin == np.linalg.eigvalsh(state.cm + 1j * symplectic_form(3)).min()


class TestTrajectoryGrid:
    @pytest.mark.parametrize(
        "state0", [two_mode_squeezed_vacuum(1.0), coherent_state([1 + 0.5j, -1j])]
    )
    def test_matches_per_point_evolution(self, state0):
        times = np.linspace(0.0, 60.0, 61)
        result = trajectory(state0, BATH, times, mu=0.4)
        assert result.family is not None
        for point in result.points:
            want = measure_all(evolve(state0, BATH, point.t), mu=0.4).to_dict()
            got = point.report.to_dict()
            for key, value in want.items():
                if isinstance(value, float):
                    assert got[key] == pytest.approx(value, rel=1e-12, abs=1e-12), key
                else:
                    assert got[key] == value, key


class TestPureStateOracle:
    @pytest.mark.parametrize("mu", [0.2, 0.5, 0.8])
    def test_fidelity_and_tsallis_agree_on_pure_states(self, mu):
        # on pure states the Tsallis overlap is the squared fidelity for every mu
        rng = np.random.default_rng([2024, int(mu * 10)])
        worst = 0.0
        for n in (1, 2, 3, 4):
            states = []
            for _ in range(100):
                s = symplectic_stack(*(a[None] for a in draw_symplectic(n, rng)))[0]
                states.append(GaussianState(rng.normal(size=2 * n), s @ s.T))
            reports = measure_stack(*stack(states), mu=mu)
            assert not any(f != (None, None, None) for f in reports.failures)
            lhs = (1.0 - reports.fidelity_imaginarity) ** 2
            worst = max(worst, float(np.abs(lhs - (1.0 - reports.tsallis_imaginarity)).max()))
        assert worst <= 1e-12


class TestRealnessPredicate:
    def test_tiny_momentum_displacements_add_up(self):
        # each momentum entry is below zero_tol, their l1 norm is not
        state = GaussianState([0.0, 6e-13, 0.0, 6e-13], np.eye(4))
        assert not state.is_real()
        assert imaginarity(state) == 1.0
        assert measure_all(state).h_term == 1
