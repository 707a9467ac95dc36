"""The float measures against the mpmath reference values of ``oracle``."""

import numpy as np
import oracle

from gaussimag import measures
from gaussimag.linalg import ItemErrors
from gaussimag.measures import measure_all, measure_stack
from gaussimag.sampling import random_state
from gaussimag.states import momentum_signs


def chain_failures(cm: np.ndarray) -> list[int]:
    # stack positions on which the fidelity chain fails
    o = momentum_signs(cm.shape[-1] // 2)
    errors = ItemErrors(len(cm))
    measures._w_chain_stack(0.5 * cm, 0.5 * (np.outer(o, o) * cm), errors)
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
        states = [random_state(8, np.random.default_rng([8, k]), max_squeeze=2.0) for k in range(64)]
        self.check_rescued(states, [9, 29, 30, 38, 39, 47])

    def test_two_mode_rescue_matches_the_oracle(self):
        self.check_rescued([random_state(2, np.random.default_rng([7, 2, 424]), max_squeeze=2.0)], [0])

    def test_oracle_matches_the_chain_where_it_succeeds(self, rng):
        for n in (1, 2, 3):
            state = random_state(n, rng)
            value = measure_all(state).fidelity_imaginarity
            assert abs(value - oracle.fidelity_imaginarity(state.d, state.cm)) <= 1e-11
