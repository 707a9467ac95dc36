"""Identities between the fidelity and the Tsallis overlap on mixed states.

With ``sqrt(F) = 1 - M_F`` the root fidelity between a state and its
conjugate, and ``Q_mu = 1 - M_T(mu) = tr(rho^mu rho*^(1 - mu))`` their Tsallis
overlap, both with the displacement factor:

* the sandwich ``F <= Q_1/2 <= sqrt(F)``: ``Q_1/2 = tr(sqrt(rho) sqrt(rho*))``
  is at most the trace norm of ``sqrt(rho) sqrt(rho*)``, which is ``sqrt(F)``,
  and at least ``F``.  Pure states meet the left side with equality
  (``test_identities``);
* symmetry ``Q_mu = Q_(1 - mu)``: the two are complex conjugates of each
  other, and both are real;
* the Chernoff bounds ``Q_1/2 <= Q_mu <= Q_1/2^(2 min(mu, 1 - mu))``:
  ``log Q_s`` is convex in s with ``Q_0 = Q_1 = 1`` (Audenaert et al., PRL
  98, 160501, 2007), and symmetric about 1/2.

The values are compared as the measures print them, so each side of an
inequality carries a relative error from the stages and an absolute one from
``1 - M``.  Every item must succeed: a failure fails the test instead of
leaving the sample.

At 16 to 64 modes both overlaps are far below the rounding of ``1 - M``, so
the last test compares their logarithms, taken from the stages' own factors:
``sqrt(F) = f0 E`` as ``_fidelity_stack`` returns it, and ``log Q_mu`` from the
normal form without the settle of ``measure_stack``.  Together the sandwich
and the Chernoff bound give ``log Q_mu <= 2 min(mu, 1 - mu) log(f0 E)``, the
bound that settles the Tsallis value of those states.
"""

from functools import cache

import numpy as np
import pytest

from gaussimag import measures
from gaussimag.linalg import ItemErrors, williamson_stack
from gaussimag.measures import measure_stack
from gaussimag.sampling import draw_state, state_stack
from gaussimag.states import momentum_signs

from conftest import wide_stack

MUS = (0.1, 0.25, 0.75, 0.9)
N = [1, 2, 3, 4, 6, 8]
# set from measurement over this sample (1,800 states): past ABS the largest
# relative excess was 3.8e-12 (the sandwich's left side, near equality), but
# for the fidelity chain's drift below; both upper bounds held with 6.9e-7
# relative to spare.  ABS is four roundings of 1 - M
REL, ABS = 1e-11, 4 * np.finfo(float).eps
# near-pure states sit on the sandwich's left edge, where the fidelity chain's
# drift shows: on 4 states at max_squeeze 3 its f_tot4 is 1.4e-6 to 5.7e-6
# relative from the spectral stage's, which moves F by half that, and F exceeds
# Q_1/2 by 7.0e-7 to 2.9e-6 relative
DRIFT, DRIFTED = 1e-5, 4


def at_most(a, b):
    return a <= b * (1.0 + REL) + ABS


@cache
def overlaps(n):
    # (sqrt(F), {mu: Q_mu}) over 300 random n-mode states, a third each at
    # max_squeeze 1, 2 and 3; some of them are not displaced
    rngs = [np.random.default_rng([seed, n]) for seed in range(31, 36)]
    draws = [draw_state(n, rng, squeeze) for rng in rngs for squeeze in (1.0, 2.0, 3.0) for _ in range(20)]
    d, cm = state_stack(draws)
    q = {}
    for mu in (0.5, *MUS):
        reports = measure_stack(d, cm, mu=mu)
        assert reports.failures == [(None, None, None)] * len(cm)
        q[mu] = 1.0 - reports.tsallis_imaginarity
    return 1.0 - reports.fidelity_imaginarity, q


def test_fidelity_sandwiches_the_half_overlap():
    drifted = 0
    for n in N:
        root_f, q = overlaps(n)
        f = root_f * root_f
        assert at_most(f, q[0.5] * (1.0 + DRIFT)).all()
        drifted += np.count_nonzero(~at_most(f, q[0.5]))
        assert at_most(q[0.5], root_f).all()
    assert drifted <= DRIFTED


@pytest.mark.parametrize("n", N)
def test_overlap_is_symmetric_in_mu(n):
    _, q = overlaps(n)
    for mu in (0.1, 0.25):
        assert (np.abs(q[mu] - q[1.0 - mu]) <= REL * q[mu] + ABS).all()


@pytest.mark.parametrize("n", N)
def test_chernoff_bounds(n):
    # Q_1/2 of value 0 stands for an overlap below the absolute error, so the
    # upper bound takes Q_1/2 + ABS to its power
    _, q = overlaps(n)
    for mu in MUS:
        assert at_most(q[0.5], q[mu]).all()
        assert at_most(q[mu], (q[0.5] + ABS) ** (2.0 * min(mu, 1.0 - mu))).all()


# log(f0 E) may be off by a quarter of the chain's drift from the spectral
# f_tot4, at most 2.2e-5 relative on the wide pool, so each side of a log-space
# inequality may exceed the other by LOG_TOL.  Measured on this sample: every
# inequality held with at least 0.17 |log(f0 E)| to spare, and |log(f0 E)| was
# at least 5.7
LOG_TOL = 1e-5


def log_overlap(d, cm, mu):
    # log Q_mu through the normal form, as _tsallis_stack assembles it but with
    # its prefactor and exponential kept in log space
    n = cm.shape[-1] // 2
    errors = ItemErrors(len(cm))
    s, nus, _ = williamson_stack(cm, errors)
    factors, scale_mu, scale_1mu = measures._mu_weights(nus, mu, errors)
    s_t = s.swapaxes(-1, -2)
    o = momentum_signs(n)
    cm_sum = (s * scale_mu.repeat(2, axis=-1)[:, None, :]) @ s_t
    cm_sum += np.outer(o, o) * ((s * scale_1mu.repeat(2, axis=-1)[:, None, :]) @ s_t)
    log_det, quad = measures._overlap_tail(0.5 * (cm_sum + cm_sum.swapaxes(-1, -2)), d, errors)
    assert errors.errors == [None] * len(cm)
    return n * np.log(2.0) + np.log(factors).sum(axis=-1) - 0.5 * log_det - 0.5 * quad


@pytest.mark.parametrize("n, count", [(16, 64), (32, 64), (64, 32)])
def test_log_overlaps_obey_the_settle_bound(n, count):
    # the first states of the benchmark's wide pool (squeezing up to 2)
    d, cm = wide_stack(n, range(count))
    errors = ItemErrors(count)
    f0_e = measures._fidelity_stack(d, cm, errors)
    assert errors.errors == [None] * count
    log_f0_e = np.log(f0_e)
    q_half = log_overlap(d, cm, 0.5)
    assert (2.0 * log_f0_e <= q_half + LOG_TOL).all()
    assert (q_half <= log_f0_e + LOG_TOL).all()
    for mu in (0.1, 0.5, 0.9):
        q_mu = log_overlap(d, cm, mu)
        # the spectral overlap's gate: F = (f0 E)^2 <= Q_1/2 <= Q_mu
        assert (2.0 * log_f0_e <= q_mu + LOG_TOL).all()
        assert (q_mu <= 2.0 * min(mu, 1.0 - mu) * log_f0_e + LOG_TOL).all()
