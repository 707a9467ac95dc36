"""The float measures against the mpmath reference values of ``oracle``."""

import json
import pathlib

import mpmath as mp
import numpy as np
import oracle
import pytest

from gaussimag import measures
from gaussimag.cli import SweepSpec, _grid_states
from gaussimag.linalg import ItemErrors
from gaussimag.measures import measure_all, measure_stack
from gaussimag.sampling import random_state

from conftest import wide_state


def chain_failures(cm: np.ndarray) -> list[int]:
    # stack positions on which the fidelity chain fails
    errors = ItemErrors(len(cm))
    measures._w_chain_stack(cm, errors)
    return [k for k, exc in enumerate(errors.errors) if exc is not None]


class TestRescuedFidelity:
    """Items the fidelity chain fails take ``f_tot4`` from the spectral stage."""

    def check_rescued(self, states, want_failed):
        d, cm = np.stack([s.d for s in states]), np.stack([s.cm for s in states])
        failed = chain_failures(cm)
        assert failed == want_failed
        reports = measure_stack(d[failed], cm[failed])
        for k, value in zip(failed, reports.fidelity_imaginarity):
            assert abs(value - oracle.fidelity_imaginarity(d[k], cm[k])) <= 1e-11

    def test_wide_pool_rescues_match_the_oracle(self):
        # the 8-mode states the benchmark's wide pool starts with; the chain
        # fails 6 of the first 64 (the pool's 16- to 64-mode states fail more
        # often, but take seconds each at this precision)
        states = [wide_state(8, k) for k in range(64)]
        self.check_rescued(states, [9, 29, 30, 38, 39, 47])

    def test_two_mode_rescue_matches_the_oracle(self):
        self.check_rescued([random_state(2, np.random.default_rng([7, 2, 424]), max_squeeze=2.0)], [0])

    def test_oracle_matches_the_chain_where_it_succeeds(self, rng):
        for n in (1, 2, 3):
            state = random_state(n, rng)
            value = measure_all(state).fidelity_imaginarity
            assert abs(value - oracle.fidelity_imaginarity(state.d, state.cm)) <= 1e-11


class TestOracle:
    def test_all_three_match_the_package_on_random_states(self, rng):
        for n in (1, 2, 3):
            for _ in range(3):
                state = random_state(n, rng)
                report = measure_all(state, mu=0.3)
                assert abs(report.imaginarity - oracle.imaginarity(state.d, state.cm)) <= 1e-13
                want = oracle.tsallis_imaginarity(state.d, state.cm, 0.3)
                assert abs(report.tsallis_imaginarity - want) <= 1e-13

    def test_fidelity_retries_where_the_eigensolver_fails(self):
        # mpmath's QR iteration does not converge on this 2-mode state at 50
        # digits and does at 60, 2.7e-16 from the package's value
        path = pathlib.Path(__file__).resolve().parent.parent / "figures" / "fig3b_phi_t1.json"
        spec = SweepSpec.from_dict(json.loads(path.read_text()))
        d, cm, _ = _grid_states(spec, spec.grid())
        with mp.workdps(oracle.DPS), pytest.raises(RuntimeError, match="failed to converge"):
            oracle.fidelity_imaginarity.__wrapped__(d[220], cm[220])
        value = measure_stack(d[220:221], cm[220:221]).fidelity_imaginarity[0]
        assert abs(oracle.fidelity_imaginarity(d[220], cm[220]) - value) <= 1e-15
