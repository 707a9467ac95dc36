"""Identities between the measures on product states and on pure states.

* Product states: on a direct sum of single modes, each ``1 - M`` is the
  product of the modes' ``1 - M`` (for the covariance ratio, without its
  momentum indicator, which is the largest of the modes'), so the ``*_single_mode`` closed forms give
  every measure of a k-mode state.  The sum is mixed by a real Gaussian
  unitary, which leaves every measure unchanged (``test_invariance``), so the
  stacked core sees a dense covariance matrix.
* Pure states: ``rho^mu = rho``, so the Tsallis overlap is ``Tr(rho rho*)``,
  the square of the fidelity: ``(1 - M_F)^2 = 1 - M_T``.

Every item must succeed: a failure fails the test instead of leaving the sample.
"""

import numpy as np
import pytest
from test_invariance import real_unitary

from gaussimag.measures import (
    fidelity_imaginarity_single_mode,
    imaginarity_single_mode,
    measure_stack,
    tsallis_imaginarity_single_mode,
)
from gaussimag.sampling import draw_symplectic, symplectic_stack
from gaussimag.states import displaced_squeezed_thermal


def draw_mode(rng):
    # (n_th, zeta, alpha) of a displaced squeezed thermal mode, |zeta| <= 1;
    # some modes are pure and some have no momentum displacement
    n_th = 0.0 if rng.random() < 0.3 else rng.exponential(1.0)
    zeta = rng.uniform(0.0, 1.0) * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
    alpha = complex(rng.normal(), rng.normal() if rng.random() < 0.5 else 0.0)
    return n_th, zeta, alpha


def product_state(modes):
    # direct sum of the single modes, in (q1, p1, ..., qk, pk) order
    k = len(modes)
    states = [displaced_squeezed_thermal(*mode) for mode in modes]
    cm = np.zeros((2 * k, 2 * k))
    for i, state in enumerate(states):
        cm[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = state.cm
    return np.concatenate([state.d for state in states]), cm


@pytest.mark.parametrize("k, mu", [(2, 0.3), (3, 0.5), (4, 0.7)])
def test_product_states_factor_into_single_modes(k, mu):
    rng = np.random.default_rng([27, k])
    d, cm, want = [], [], []
    for _ in range(60):
        modes = [draw_mode(rng) for _ in range(k)]
        d_sum, cm_sum = product_state(modes)
        s = real_unitary(k, rng, 10.0)
        d.append(s @ d_sum)
        cm.append(s @ cm_sum @ s.T)
        singles = [imaginarity_single_mode(*mode) for mode in modes]
        # the determinant part is below 1, so the indicator is the integer part
        h = [float(value >= 1.0) for value in singles]
        want.append(
            (
                max(h),
                np.prod([1.0 - (value - hi) for value, hi in zip(singles, h)]),
                np.prod([1.0 - fidelity_imaginarity_single_mode(*mode) for mode in modes]),
                np.prod([1.0 - tsallis_imaginarity_single_mode(*mode, mu) for mode in modes]),
            )
        )
    reports = measure_stack(np.array(d), np.array(cm), mu=mu)
    assert reports.failures == [(None, None, None)] * len(want)
    h, imaginarity, fidelity, tsallis = np.array(want).T
    np.testing.assert_array_equal(reports.h_term, h)
    # set from measurement: the largest gaps over the three stacks were
    # 1.5e-14 (I), 5.7e-13 (M_T) and 7.8e-13 (M_F) but for one item each at
    # k = 3 and 4.  There the fidelity chain's own value is 6.9e-8 and 8.3e-8
    # from the mpmath oracle, and the closed form within 2e-15 of it
    assert np.abs(1.0 - (reports.imaginarity - h) - imaginarity).max() <= 5e-14
    assert np.abs(1.0 - reports.tsallis_imaginarity - tsallis).max() <= 2e-12
    fidelity_gap = np.abs(1.0 - reports.fidelity_imaginarity - fidelity)
    assert np.count_nonzero(fidelity_gap > 2e-12) <= 1
    assert fidelity_gap.max() <= 2e-7


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_pure_states_square_the_fidelity(n):
    # cm = S S^T, half of the items displaced; squeezing up to max_squeeze 2
    rng = np.random.default_rng([27, n])
    rs, g = map(np.array, zip(*(draw_symplectic(n, rng, 2.0) for _ in range(40))))
    s = symplectic_stack(rs, g)
    cm = s @ s.swapaxes(-1, -2)
    cm = 0.5 * (cm + cm.swapaxes(-1, -2))
    d = rng.normal(size=(40, 2 * n))
    d[::2] = 0.0
    reports = measure_stack(d, cm)
    assert reports.failures == [(None, None, None)] * 40
    fidelity = 1.0 - reports.fidelity_imaginarity
    # set from measurement: at most 2.2e-14 (n = 2); at max_squeeze 4 the
    # fidelity chain drifts and the gap reaches 1.7e-8 at n = 1
    assert np.abs(fidelity * fidelity - (1.0 - reports.tsallis_imaginarity)).max() <= 5e-14
