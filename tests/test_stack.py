"""The stacked measure core against its one-item case and the closed identities."""

import pathlib

import numpy as np
import pytest

from gaussimag import measures
from gaussimag.cli import main
from gaussimag.dynamics import BathParams, evolve, trajectory
from gaussimag.errors import (
    AsymmetricCM,
    ComplexSqrtBranchFailure,
    DimensionMismatch,
    NonRealResult,
    UncertaintyViolation,
    WilliamsonResidualError,
)
from gaussimag.linalg import ItemErrors, symplectic_form
from gaussimag.measures import (
    fidelity_imaginarity,
    imaginarity,
    measure_all,
    measure_stack,
    tsallis_imaginarity,
)
from gaussimag.sampling import draw_symplectic, random_state, symplectic_stack
from gaussimag.states import (
    GaussianState,
    coherent_state,
    displaced_squeezed_thermal,
    momentum_signs,
    real_pattern,
    squeezed_thermal_stack,
    two_mode_squeezed_stack,
    two_mode_squeezed_vacuum,
    validate,
)

from conftest import wide_stack, wide_state

BATH = BathParams(lam=0.1, n_th=1.5, big_r=1.0, phi=np.pi / 2)


def stack(states):
    return np.stack([s.d for s in states]), np.stack([s.cm for s in states])


def failing_fidelity_state(monkeypatch):
    # a two-mode state on which the fidelity chain's square root leaves the
    # principal branch, with the spectral stage that would rescue it made to fail
    def no_rescue(cm, errors):
        errors.fail(np.ones(len(cm), dtype=bool), lambda j: NonRealResult("planted"))
        return np.empty(0)

    monkeypatch.setattr(measures, "_spectral_f_tot4_stack", no_rescue)
    state = random_state(2, np.random.default_rng([7, 2, 424]), max_squeeze=2.0)
    with pytest.raises(ComplexSqrtBranchFailure):
        fidelity_imaginarity(state)
    return state


def routes(stages):
    # per item of a route record, the labels of the stages it was handed, "!" on a failed one
    return [
        [
            label + "!" * (route >> 2 * i + 1 & 1)
            for i, label in enumerate(measures.STAGES)
            if route >> 2 * i & 1
        ]
        for route in stages.tolist()
    ]


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
    def test_mixed_stack_item_equals_one_item_call(self, n, rng, monkeypatch):
        states = mixed_states(n, rng)
        if n == 2:
            states.insert(3, failing_fidelity_state(monkeypatch))
        reports = measure_stack(*stack(states), mu=0.3)
        assert len(reports.failures) == len(states)
        for k, state in enumerate(states):
            assert reports.report(k).to_dict() == measure_all(state, mu=0.3).to_dict()
            assert reports.stages[k] == measure_stack(state.d[None], state.cm[None], mu=0.3).stages[0]
        if n == 2:  # the chain and its rescue both fail the planted state
            assert routes(reports.stages[3:4]) == [["spectral!", "chain!", "normal form"]]

    def test_forced_failure_leaves_other_items_unchanged(self, rng, monkeypatch):
        good = [random_state(2, rng) for _ in range(6)]
        bad = failing_fidelity_state(monkeypatch)
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

    def test_several_chain_failures_in_one_stack(self, monkeypatch):
        # the wide states that test_wide_pool_outcomes_are_pinned scores one at
        # a time, in one stack per mode count; 12 of them fail the fidelity
        # chain, and the spectral stage rescues all 12 within the stack
        spectral = measures._spectral_f_tot4_stack
        rescued = []

        def counted(cm, errors):
            rescued.append(len(cm))
            return spectral(cm, errors)

        failed = 0
        for n, count in ((8, 64), (16, 16)):
            states = [
                random_state(n, np.random.default_rng([n, k]), max_squeeze=2.0) for k in range(count)
            ]
            monkeypatch.setattr(measures, "_spectral_f_tot4_stack", counted)
            reports = measure_stack(*stack(states))
            assert len(reports.failures) == count
            monkeypatch.setattr(measures, "_spectral_f_tot4_stack", spectral)
            for k, state in enumerate(states):
                report = reports.report(k).to_dict()
                assert report == measure_all(state).to_dict()
                failed += report["fidelity_error"] is not None
        assert failed == 0
        assert sum(rescued) == 12

    def test_partial_rescue_in_one_stack(self, monkeypatch):
        # the 8-mode pool stack, where the chain fails 6 items, with the spectral
        # stage made to fail every other item it is handed: a rescued item equals
        # its one-item call, an unrescued one keeps the chain's exception, and no
        # other item moves
        spectral = measures._spectral_f_tot4_stack

        def failing_every(step):
            def stage(cm, errors):
                bad = np.arange(len(cm)) % step == step - 1
                (cm,) = errors.fail(bad, lambda j: NonRealResult("planted"), cm)
                return spectral(cm, errors)

            return stage

        states = [random_state(8, np.random.default_rng([8, k]), max_squeeze=2.0) for k in range(64)]
        d, cm = stack(states)
        clean = measure_stack(d, cm)
        monkeypatch.setattr(measures, "_spectral_f_tot4_stack", failing_every(1))
        chain = measure_stack(d, cm).failures
        monkeypatch.setattr(measures, "_spectral_f_tot4_stack", failing_every(2))
        partial = measure_stack(d, cm)
        partial.failures  # the fragile stages run now, under the planted rescue
        monkeypatch.setattr(measures, "_spectral_f_tot4_stack", spectral)
        lost = [k for k, row in enumerate(chain) if row[1] is not None]
        assert len(lost) == 6
        rescued, unrescued = lost[::2], lost[1::2]
        for k in rescued:
            assert partial.report(k).to_dict() == measure_all(states[k]).to_dict()
        for k in unrescued:
            exc, want = partial.failures[k][1], chain[k][1]
            assert type(exc) is type(want) and str(exc) == str(want) != "planted"
        failed = [k for k, row in enumerate(partial.failures) if row != (None, None, None)]
        assert failed == unrescued
        keep = np.setdiff1d(np.arange(len(states)), unrescued)
        assert np.isnan(partial.fidelity_imaginarity[unrescued]).all()
        np.testing.assert_array_equal(
            partial.fidelity_imaginarity[keep], clean.fidelity_imaginarity[keep]
        )
        for field in ("imaginarity", "tsallis_imaginarity", "log_dets"):
            np.testing.assert_array_equal(getattr(partial, field), getattr(clean, field))

    def test_settled_item_beside_chain_failures(self, monkeypatch):
        # 64-mode items: pool states 64:0 and 64:11, which the determinant bound
        # settles; 64:1, whose determinant bound and spectral stage are both made
        # to fail, so the chain runs on it and fails too; and a displaced coherent
        # state, which the chain passes.  Every value and exception is its
        # one-item call's.
        planted = wide_state(64, 1).cm

        def failing_on_planted(stage):
            def planted_stage(cm, errors):
                bad = (cm == planted).all(axis=(-2, -1))
                (cm,) = errors.fail(bad, lambda j: NonRealResult("planted"), cm)
                return stage(cm, errors)

            return planted_stage

        for name in ("_log_f_tot4_bound", "_spectral_f_tot4_stack"):
            monkeypatch.setattr(measures, name, failing_on_planted(getattr(measures, name)))
        states = [wide_state(64, k) for k in (0, 1, 11)] + [coherent_state([0.5j] * 64)]
        reports = measure_stack(*stack(states))
        for k, state in enumerate(states):
            assert reports.report(k).to_dict() == measure_all(state).to_dict()
        assert reports.fidelity_imaginarity[[0, 2]].tolist() == [1.0, 1.0]
        assert 0.0 < reports.fidelity_imaginarity[3] < 1.0
        assert type(reports.failures[1][1]) is ComplexSqrtBranchFailure
        assert [row[1] is None for row in reports.failures] == [True, False, True, True]

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
        # items 4-10: the squeezed vacua at |zeta| = 9.30..9.36, theta = 1, pure
        # states whose fidelity or Tsallis path fails; no sweep validates them
        zeta = np.linspace(9.3, 9.36, 7) * (np.cos(1.0) + 1j * np.sin(1.0))
        squeezed = squeezed_thermal_stack(np.zeros(7), zeta, np.zeros(7))[1]
        cm = np.concatenate(
            [
                [np.eye(2), 0.5 * np.eye(2), [[1.0, 0.3], [-0.3, 1.0]], 3.0 * np.eye(2)],
                squeezed,
            ]
        )
        sym, margin, errors = validate(cm)
        assert errors[0] is None and errors[3] is None
        assert isinstance(errors[1], UncertaintyViolation)
        assert isinstance(errors[2], AsymmetricCM)
        assert errors[4:] == [None] * 7
        delta = symplectic_form(1)
        for k in range(len(cm)):
            assert margin[k] == np.linalg.eigvalsh(sym[k] + 1j * delta).min()
        # a NaN diagonal entry, at two scales: LAPACK may return finite
        # eigenvalues for such a matrix, but its margin is NaN
        nan_diagonal = np.stack([np.eye(2), 1e3 * np.eye(2)])
        nan_diagonal[:, 0, 0] = np.nan
        _, margin, errors = validate(nan_diagonal)
        assert np.isnan(margin).all()
        for exc in errors:
            if not isinstance(exc, np.linalg.LinAlgError):
                assert type(exc) is UncertaintyViolation
                assert str(exc) == "uncertainty principle violated: min eig of cm + i*Delta is nan"

    def test_failed_eigenproblem_is_not_an_uncertainty_violation(self, monkeypatch):
        # the non-finite items have a NaN margin and keep the eigenproblem's
        # LinAlgError; a LAPACK build that returns NaN instead is made to raise
        eigvalsh = np.linalg.eigvalsh

        def raising(a):
            if not np.isfinite(a).all():
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", raising)
        with np.errstate(over="ignore", invalid="ignore"):
            _, cm = two_mode_squeezed_stack(np.array([0.3, np.nan, 400.0]))
            _, margin, errors = validate(cm)
        assert not np.isfinite(cm[1:]).all(axis=(-2, -1)).any()
        assert errors[0] is None and margin[0] > 0.0
        assert np.isnan(margin[1:]).all()
        for exc in errors[1:]:
            assert type(exc) is np.linalg.LinAlgError
            assert str(exc) == "Eigenvalues did not converge"

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
        for k, t in enumerate(result.times.tolist()):
            want = measure_all(evolve(state0, BATH, t), mu=0.4).to_dict()
            got = result.stack.report(k).to_dict()
            for key, value in want.items():
                if isinstance(value, float):
                    assert got[key] == pytest.approx(value, rel=1e-12, abs=1e-12), key
                else:
                    assert got[key] == value, key


FIGURES = pathlib.Path(__file__).resolve().parent.parent / "figures"


class TestLazyFragileStages:
    """The fidelity and Tsallis stages run once per stack, and only when read."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"fidelity": 0, "tsallis": 0}
        fidelity_stack, tsallis_stack = measures._fidelity_stack, measures._tsallis_stack

        def fidelity(*args):
            counts["fidelity"] += 1
            return fidelity_stack(*args)

        def tsallis(*args):
            counts["tsallis"] += 1
            return tsallis_stack(*args)

        monkeypatch.setattr(measures, "_fidelity_stack", fidelity)
        monkeypatch.setattr(measures, "_tsallis_stack", tsallis)
        return counts

    @pytest.fixture
    def forbidden(self, monkeypatch):
        def fail(*args):
            raise AssertionError("fragile stage ran")

        monkeypatch.setattr(measures, "_fidelity_stack", fail)
        monkeypatch.setattr(measures, "_tsallis_stack", fail)

    @pytest.mark.parametrize("stem", ["fig3a_time_phi10", "fig6a_time_phi10"])
    def test_dynamics_command_never_runs_them(self, forbidden, stem, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["dynamics", str(FIGURES / f"{stem}.json"), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) > 2

    def test_flip_times_never_run_them(self, forbidden):
        bath = BathParams(lam=2.0, n_th=0.5)
        times = np.linspace(0.0, 40.0, 41)
        result = trajectory(coherent_state([1e-3j, 0]), bath, times, zero_tol=1e-4)
        assert len(result.h_flip_times) == 1
        assert result.stack.h_term[0] == 1.0

    def test_point_reports_run_them_once(self, calls):
        result = trajectory(two_mode_squeezed_vacuum(1.0), BATH, np.linspace(0.0, 30.0, 31))
        assert calls == {"fidelity": 0, "tsallis": 0}
        reports = [result.stack.report(k) for k in range(len(result.times))]
        reports += [result.stack.report(k) for k in range(len(result.times))]
        assert calls == {"fidelity": 1, "tsallis": 1}
        assert all(r.fidelity_imaginarity is not None for r in reports)

    def test_every_read_of_a_stack_runs_them_once(self, calls, rng):
        states = [random_state(2, rng) for _ in range(5)]
        reports = measure_stack(*stack(states))
        assert calls == {"fidelity": 0, "tsallis": 0}
        assert reports.imaginarity.shape == (5,)
        assert calls == {"fidelity": 0, "tsallis": 0}
        reports.fidelity_imaginarity
        reports.tsallis_imaginarity
        reports.failures
        reports.stages
        for k in range(5):
            reports.report(k)
        assert calls == {"fidelity": 1, "tsallis": 1}


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


class TestNamedFailures:
    def test_squeezing_scan_records_only_named_failures(self):
        # squeezed vacua at 4 phases x 1,201 values of |zeta| in [0, 12]: the
        # covariance ratio fails from |zeta| ~ 9.2 on, the fragile paths earlier
        r = np.linspace(0.0, 12.0, 1201)
        zeta = (r * np.exp(1j * np.array([0.3, 1.0, np.pi / 2, 2.0]))[:, None]).ravel()
        d, cm = squeezed_thermal_stack(np.zeros(zeta.size), zeta, np.zeros(zeta.size, complex))
        reports = measure_stack(d, cm)
        named = (
            np.linalg.LinAlgError, ComplexSqrtBranchFailure, NonRealResult, WilliamsonResidualError
        )
        for k, (imag_exc, *fragile) in enumerate(reports.failures):
            assert all(exc is None or isinstance(exc, named) for exc in fragile)
            if imag_exc is None:
                reports.report(k)
                continue
            with pytest.raises(type(imag_exc)) as raised:
                reports.report(k)
            assert raised.value is imag_exc


class TestSettledFidelity:
    def test_chain_runs_only_on_unsettled_states(self, monkeypatch):
        # wide states 64:16-31 in one stack: the spectral stage settles all but
        # 64:20, so the chain runs on 64:20 alone; with nothing settled it runs
        # on all 16, and every report is the same
        d, cm = wide_stack(64, range(16, 32))
        chain, seen = measures._w_chain_stack, []

        def spy(rows, errors):
            same = (rows[:, None] == cm).all(axis=(-2, -1))
            seen.append(np.flatnonzero(same.any(axis=0)).tolist())
            return chain(rows, errors)

        monkeypatch.setattr(measures, "_w_chain_stack", spy)
        reports = measure_stack(d, cm)
        settled = [reports.report(k).to_dict() for k in range(16)]
        monkeypatch.setattr(measures, "SETTLED", -np.inf)
        reports = measure_stack(d, cm)
        assert [reports.report(k).to_dict() for k in range(16)] == settled
        assert seen == [[20 - 16], list(range(16))]
        assert all(report["fidelity_imaginarity"] == 1.0 for report in settled)

    def test_cm_is_factored_once_per_stack(self, monkeypatch):
        # wide states 8:0-11, where 8:9 fails the chain: reading every array
        # factors cm itself once, in the covariance-ratio stage
        d, cm = wide_stack(8, range(12))
        logdet, factored = measures.logdet_spd, []

        def spy(a):
            factored.append(a.shape == cm.shape and np.array_equal(a, cm))
            return logdet(a)

        monkeypatch.setattr(measures, "logdet_spd", spy)
        reports = measure_stack(d, cm)
        assert factored == [True, False, False]  # cm, A11 and A22
        reports.fidelity_imaginarity
        reports.tsallis_imaginarity
        for k in range(12):
            reports.report(k)
        assert factored == [True, False, False, False, False]  # and one per overlap tail

    def test_direct_calls_without_a_log_det_cm(self, monkeypatch):
        # squeezed vacua at |zeta| 8.5-12: the Cholesky of cm fails on 26 of the
        # 64, and the one-state call never factors cm.  Each direct call gives
        # the same value, or the same named failure, as with nothing settled;
        # 18 of them fail, with three kinds of exception
        states = [
            displaced_squeezed_thermal(0.0, r * np.exp(1j * phase), alpha)
            for r in np.linspace(8.5, 12.0, 8)
            for phase in (0.3, 1.0, np.pi / 2, 2.0)
            for alpha in (0.0, 0.5j)
        ]
        no_cholesky = ItemErrors(len(states))
        no_cholesky.call(measures.logdet_spd, np.stack([s.cm for s in states]))
        assert sum(exc is not None for exc in no_cholesky.errors) == 26

        def outcomes():
            got = []
            for state in states:
                try:
                    got.append(fidelity_imaginarity(state))
                except (ArithmeticError, np.linalg.LinAlgError) as exc:
                    got.append((type(exc), str(exc)))
            return got

        default = outcomes()
        monkeypatch.setattr(measures, "SETTLED", -np.inf)
        assert outcomes() == default
        failed = [got[0] for got in default if isinstance(got, tuple)]
        assert len(failed) == 18
        assert set(failed) == {NonRealResult, ComplexSqrtBranchFailure, np.linalg.LinAlgError}


def spied(monkeypatch, cm, *names):
    # per named stage of ``measures``, the items it is handed on each call, as
    # lists of their positions in the stack ``cm``; a stage's rows of cm are its
    # one 3-D argument
    seen = {name: [] for name in names}
    for name in names:
        def spy(*args, name=name, stage=getattr(measures, name)):
            rows = next(a for a in args if np.ndim(a) == 3)
            same = (rows[:, None] == cm).all(axis=(-2, -1))
            seen[name].append(np.flatnonzero(same.any(axis=0)).tolist())
            return stage(*args)

        monkeypatch.setattr(measures, name, spy)
    return seen


class TestSettledTsallis:
    def test_williamson_runs_only_on_unsettled_states(self, monkeypatch):
        # wide states 64:16-31 in one stack: the fidelity bound settles the
        # Tsallis value of all but 64:20, and its spectral overlap settles 64:20,
        # so the normal form never runs; with nothing settled it runs on all
        # 16, and every report is the same
        d, cm = wide_stack(64, range(16, 32))
        seen = spied(monkeypatch, cm, "williamson_stack")["williamson_stack"]
        reports = measure_stack(d, cm)
        settled = [reports.report(k).to_dict() for k in range(16)]
        monkeypatch.setattr(measures, "SETTLED", -np.inf)
        reports = measure_stack(d, cm)
        assert [reports.report(k).to_dict() for k in range(16)] == settled
        assert seen == [list(range(16))]
        assert all(report["tsallis_imaginarity"] == 1.0 for report in settled)

    def test_mixed_stack_equals_one_item_calls(self, monkeypatch):
        # 64:16, settled by the determinant bound; 64:38, which the spectral
        # stage does not settle, the chain fails and its spectral value rescues;
        # 64:20, which the spectral stage does not settle; and 64:17, settled by
        # the determinant bound.  64:20 and 64:17 have their normal form made to
        # fail, but the Tsallis value of every item is settled (64:38 and 64:20 by
        # their spectral overlap), so none runs it and each takes 1.0.  Every
        # value and exception is its one-item call's
        states = [wide_state(64, k) for k in (16, 38, 20, 17)]
        williamson = measures.williamson_stack
        planted = np.stack([states[2].cm, states[3].cm])

        def failing_on_planted(cm, errors):
            bad = (cm[:, None] == planted).all(axis=(-2, -1)).any(axis=-1)
            (cm,) = errors.fail(bad, lambda j: WilliamsonResidualError("planted"), cm)
            return williamson(cm, errors)

        monkeypatch.setattr(measures, "williamson_stack", failing_on_planted)
        d, cm = stack(states)
        spectral = spied(monkeypatch, cm, "_spectral_f_tot4_stack")["_spectral_f_tot4_stack"]
        reports = measure_stack(d, cm)
        reports.failures
        assert spectral == [[1, 2]]  # picked and not bound-settled; 64:38 keeps its value for the rescue
        for k, state in enumerate(states):
            assert reports.report(k).to_dict() == measure_all(state).to_dict()
        assert [row[1:] for row in reports.failures[:2]] == [(None, None)] * 2
        assert reports.failures[3] == (None, None, None)
        assert reports.failures[2][2] is None
        assert reports.tsallis_imaginarity.tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_one_state_call_never_settles(self, monkeypatch):
        # wide states 64:0-31 one at a time: measure_all settles every one of
        # them without the normal form, tsallis_imaginarity runs it on every
        # state, and on each it prints measure_all's value
        states = [wide_state(64, k) for k in range(32)]
        williamson, calls = measures.williamson_stack, []

        def counted(cm, errors):
            calls.append(len(cm))
            return williamson(cm, errors)

        monkeypatch.setattr(measures, "williamson_stack", counted)
        settled = []
        for state in states:
            before = len(calls)
            value = measure_all(state).tsallis_imaginarity
            if len(calls) == before:
                settled.append((state, value))
        assert len(settled) == 32 and calls == []
        for state, value in settled:
            assert tsallis_imaginarity(state, 0.5) == value
        assert calls == [1] * 32

    def test_every_route_in_one_stack_equals_one_item_calls(self, monkeypatch):
        # 64:0, settled by the determinant bound; 64:19, by the spectral stage;
        # 64:20, whose Tsallis value its spectral overlap settles; a displaced
        # coherent state, which nothing settles; and 64:38, whose spectral
        # overlap is made to fail, which records no error and sends it to the
        # normal form.  Every value and exception is its one-item call's
        states = [wide_state(64, k) for k in (0, 19, 20)] + [coherent_state([0.05j] * 64), wide_state(64, 38)]
        overlap, planted = measures._log_overlap_stack, states[4].cm

        def failing_on_planted(d, cm, mu, errors):
            bad = (cm == planted).all(axis=(-2, -1))
            d, cm = errors.fail(bad, lambda j: NonRealResult("planted"), d, cm)
            return overlap(d, cm, mu, errors)

        d, cm = stack(states)
        names = "_log_f_tot4_bound", "_spectral_f_tot4_stack", "williamson_stack"
        seen = spied(monkeypatch, cm, *names)
        monkeypatch.setattr(measures, "_log_overlap_stack", failing_on_planted)
        reports = measure_stack(d, cm)
        assert reports.failures == [(None, None, None)] * 5
        assert seen == {
            "_log_f_tot4_bound": [[0, 1]],
            "_spectral_f_tot4_stack": [[1, 2, 4]],  # picked and not bound-settled
            "williamson_stack": [[3, 4]],
        }
        for k, state in enumerate(states):
            assert reports.report(k).to_dict() == measure_all(state).to_dict()
            assert reports.stages[k] == measure_stack(state.d[None], state.cm[None]).stages[0]
        # the chain passes 64:20 under 1 BLAS thread and fails it under 2
        got = [[label.replace("chain!", "chain") for label in route] for route in routes(reports.stages)]
        assert got == [
            ["bound"],
            ["bound", "spectral"],
            ["spectral", "chain", "overlap"],
            ["chain", "normal form"],
            ["spectral", "chain", "overlap!", "normal form"],
        ]
        assert "chain!" in routes(reports.stages)[4]
        assert reports.fidelity_imaginarity[:2].tolist() == [1.0, 1.0]
        assert reports.tsallis_imaginarity[:3].tolist() == [1.0, 1.0, 1.0]
        assert 0.0 < reports.tsallis_imaginarity[3] < 1.0

    def test_no_certificate_runs_when_nothing_can_settle(self, monkeypatch):
        # wide states 64:16-31: with SETTLED at -inf neither the determinant
        # bound nor the spectral overlap runs, and every report is the same
        d, cm = wide_stack(64, range(16, 32))
        settled = [measure_stack(d, cm).report(k).to_dict() for k in range(16)]
        calls = []

        def forbidden(*args):
            calls.append(len(args[0]))
            raise AssertionError("certificate ran")

        monkeypatch.setattr(measures, "_log_f_tot4_bound", forbidden)
        monkeypatch.setattr(measures, "_log_overlap_stack", forbidden)
        monkeypatch.setattr(measures, "SETTLED", -np.inf)
        reports = measure_stack(d, cm)
        assert [reports.report(k).to_dict() for k in range(16)] == settled
        assert calls == []

    @pytest.mark.parametrize(
        "d, cm",
        [
            (np.zeros((0, 4)), np.zeros((0, 4, 4))),
            # both items are indefinite and fail the covariance ratio
            (np.zeros((2, 2)), np.stack([np.diag([1.0, -1.0]), -np.eye(2)])),
            # every item settles both fragile stages
            wide_stack(64, range(16)),
            # no item settles
            wide_stack(8, range(4)),
        ],
        ids=["empty", "all-failed", "all-settled", "none-settled"],
    )
    def test_no_stage_is_handed_an_empty_stack(self, monkeypatch, d, cm):
        names = (
            "_log_f_tot4_bound",
            "_spectral_f_tot4_stack",
            "_w_chain_stack",
            "_log_overlap_stack",
            "williamson_stack",
        )
        seen = spied(monkeypatch, cm, *names)
        reports = measure_stack(d, cm)
        reports.failures
        assert [] not in [rows for calls in seen.values() for rows in calls]
        for k, route in enumerate(routes(reports.stages)):  # the record of the calls seen
            assert route == [label for label, name in zip(measures.STAGES, names) if k in sum(seen[name], [])]
        if len(cm) == 4:
            assert seen["_w_chain_stack"] == seen["williamson_stack"] == [[0, 1, 2, 3]]


class TestRouteRecord:
    @pytest.mark.parametrize(
        "n, count, handed, failed",
        [
            (8, 128, [1, 13, 127, 0, 127], [0, 0, 13, 0, 0]),
            (16, 128, [0, 26, 128, 10, 125], [0, 0, 26, 0, 0]),
            (32, 96, [5, 49, 91, 78, 21], [0, 0, 48, 0, 0]),
            (64, 32, [31, 3, 1, 1, 0], [0, 0, {0, 1}, 0, 0]),
        ],
    )
    def test_wide_stage_counts_are_pinned(self, n, count, handed, failed):
        # per stage of measures.STAGES, how many of the wide pool's first states it is
        # handed and fails in one stack, as scripts/wide_digest.py counts them one at a
        # time; the chain passes 64:20 under 1 BLAS thread and fails it under 2
        stages = measure_stack(*wide_stack(n, range(count))).stages
        bits = stages[:, None] >> 2 * np.arange(len(measures.STAGES))
        assert np.count_nonzero(bits & 1, axis=0).tolist() == handed
        for got, want in zip(np.count_nonzero(bits & 2, axis=0).tolist(), failed):
            assert got in want if isinstance(want, set) else got == want

    def test_an_item_failing_the_covariance_ratio_has_no_route(self):
        cm = np.stack([np.diag([1.0, -1.0]), np.eye(2)])
        reports = measure_stack(np.zeros((2, 2)), cm)
        assert routes(reports.stages) == [[], ["chain", "normal form"]]


class TestFirstFailure:
    def test_a_tail_failure_is_kept_and_never_reaches_the_chain(self, monkeypatch, rng):
        # the two-mode state the chain fails, with no spectral rescue, between two
        # random states, and a LinAlgError planted on the log-determinant of its
        # Sigma / 2: the item keeps the tail's failure, the chain never sees it, and
        # every other value is the unplanted run's
        bad = failing_fidelity_state(monkeypatch)
        d, cm = stack([random_state(2, rng), bad, random_state(2, rng)])
        clean = measure_stack(d, cm)
        assert type(clean.failures[1][1]) is ComplexSqrtBranchFailure
        o = momentum_signs(2)
        half = 0.5 * (bad.cm + np.outer(o, o) * bad.cm)
        logdet = measures.logdet_spd

        def planted(a):
            # the covariance-ratio stage hands in 2x2 blocks too
            if a.shape[-2:] == half.shape and (a == half).all(axis=(-2, -1)).any():
                raise np.linalg.LinAlgError("planted")
            return logdet(a)

        monkeypatch.setattr(measures, "logdet_spd", planted)
        seen = spied(monkeypatch, cm, "_w_chain_stack")["_w_chain_stack"]
        reports = measure_stack(d, cm)
        exc = reports.failures[1][1]
        assert type(exc) is np.linalg.LinAlgError and str(exc) == "planted"
        assert seen == [[0, 2]]
        assert routes(clean.stages)[1] == ["spectral!", "chain!", "normal form"]
        assert routes(reports.stages)[1] == ["normal form"]
        assert [row[1] is None for row in reports.failures] == [True, False, True]
        assert np.isnan(reports.fidelity_imaginarity[1])
        np.testing.assert_array_equal(
            reports.fidelity_imaginarity[[0, 2]], clean.fidelity_imaginarity[[0, 2]]
        )
        for field in ("imaginarity", "tsallis_imaginarity", "log_dets"):
            np.testing.assert_array_equal(getattr(reports, field), getattr(clean, field))
        assert [row[2] for row in reports.failures] == [None] * 3


class TestChainDeterminantCheck:
    def test_an_item_fails_with_its_first_failed_check(self, monkeypatch):
        # planted determinants: an imaginary residue on a non-positive real part
        # reports the residue; a real non-positive one its sign; a good item stays live
        det = np.linalg.det
        planted = np.array([-1.0 + 1.0j, -2.0 + 0.0j])
        monkeypatch.setattr(np.linalg, "det", lambda a: np.append(planted, det(a)[2:]))
        errors = ItemErrors(3)
        w_aux, f_tot4 = measures._w_chain_stack(np.stack([2.0 * np.eye(2)] * 3), errors)
        assert all(isinstance(exc, NonRealResult) for exc in errors.errors[:2])
        assert [str(exc) for exc in errors.errors[:2]] == [
            "total-fidelity determinant has imaginary part 1.000e+00",
            "total-fidelity determinant is not positive: -2.000e+00",
        ]
        assert errors.errors[2] is None and errors.live.tolist() == [2]
        assert len(w_aux) == 1 and f_tot4.tolist() == pytest.approx([4.0])


class TestRealnessPredicate:
    def test_tiny_momentum_displacements_add_up(self):
        # each momentum entry is below zero_tol, their l1 norm is not
        state = GaussianState([0.0, 6e-13, 0.0, 6e-13], np.eye(4))
        assert not state.is_real()
        assert imaginarity(state) == 1.0
        assert measure_all(state).h_term == 1

    def test_a_stack_gives_each_item_its_flag(self):
        # real; displaced momentum only; q-p covariance only; both
        states = [
            displaced_squeezed_thermal(0.5, 0.9, 1.5),
            coherent_state([1j]),
            displaced_squeezed_thermal(0.0, 0.7j, 0.0),
            displaced_squeezed_thermal(0.2, 0.7j, 0.3j),
        ]
        flags = real_pattern(*stack(states))
        assert flags.tolist() == [s.is_real() for s in states] == [True, False, False, False]


@pytest.mark.parametrize(
    "d, cm",
    [
        (np.zeros((2, 2)), np.eye(2)[None]),  # two displacements, one covariance matrix
        (np.zeros((1, 4)), np.eye(2)[None]),  # a two-mode displacement, a one-mode cm
        (np.zeros((1, 3)), np.eye(3)[None]),  # an odd quadrature count
        (np.zeros((1, 2)), np.ones((1, 2, 4))),  # a non-square cm
        (np.zeros(2), np.eye(2)),  # one state, not a stack of one
    ],
)
def test_mismatched_shapes_raise_at_call_time(d, cm):
    # the first two once returned a report: two items for one cm, or a value
    # whose fidelity and Tsallis arrays raised numpy's broadcast error on first read
    with pytest.raises(DimensionMismatch, match=r"need d \(B, 2n\) and cm \(B, 2n, 2n\)"):
        measure_stack(d, cm)
