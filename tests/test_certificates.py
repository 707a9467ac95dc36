"""The two settle certificates: bounds that let an item skip a fragile path.

* The determinant bound ``measures._log_f_tot4_bound`` is an upper bound on
  the spectral stage's ``f_tot4``, so the ``f0 E`` it gives is at or above the
  spectral one.
* The spectral overlap ``measures._log_overlap_stack`` is the Tsallis overlap
  through the real spectral form; where it settles an item, the normal form
  prints exactly 1.0 and agrees with it in log space.

Past double's range the measures switch to log forms instead of printing a
silent NaN or 1.0; those are checked against the product closed forms.
"""

import math

import numpy as np
import pytest
from test_cross_measures import log_overlap
from test_identities import product_state

from gaussimag import measures
from gaussimag.linalg import ItemErrors, logdet_spd
from gaussimag.measures import (
    SETTLED,
    fidelity_imaginarity_single_mode,
    measure_all,
    tsallis_imaginarity_single_mode,
)
from gaussimag.sampling import draw_symplectic, random_state, symplectic_stack
from gaussimag.states import GaussianState


def pool(n, ks):
    states = [random_state(n, np.random.default_rng([n, k]), max_squeeze=2.0) for k in ks]
    return np.stack([s.d for s in states]), np.stack([s.cm for s in states])


def sample(n, rng):
    # four random states at max_squeeze 1, 2 and 3, four pure ones and a
    # product of squeezed thermal modes
    cms = [random_state(n, rng, max_squeeze=squeeze).cm for squeeze in (1.0, 2.0, 3.0) for _ in range(4)]
    rs, g = map(np.array, zip(*(draw_symplectic(n, rng, 2.0) for _ in range(4))))
    s = symplectic_stack(rs, g)
    cms += list(s @ s.swapaxes(-1, -2))
    modes = [(rng.exponential(1.0), rng.uniform(0.0, 1.0) * np.exp(2j * rng.uniform(0, np.pi)), 0.0) for _ in range(n)]
    cms.append(product_state(modes)[1])
    return np.stack([0.5 * (cm + cm.T) for cm in cms])


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32, 64])
def test_determinant_bound_is_above_the_spectral_f_tot4(n):
    cm = sample(n, np.random.default_rng([33, n]))
    bound_errors, spectral_errors = ItemErrors(len(cm)), ItemErrors(len(cm))
    log_bound = measures._log_f_tot4_bound(cm, bound_errors)
    spectral = measures._spectral_f_tot4_stack(cm, spectral_errors)
    assert bound_errors.errors == spectral_errors.errors == [None] * len(cm)
    # log space: 1e-12 relative in f_tot4, so in f0 E
    assert (log_bound >= np.log(spectral) - 1e-12).all()


@pytest.mark.parametrize("n, count", [(32, 96), (64, 32)])
def test_spectral_overlap_settles_only_what_the_normal_form_prints_as_one(n, count):
    # the wide pool's items that reach the Tsallis test, as StackReport._fragile picks them
    d, cm = pool(n, range(count))
    errors = ItemErrors(count)
    f0_e, _ = measures._fidelity_stack(d, cm, logdet_spd(cm), errors)
    assert errors.errors == [None] * count
    tried = ~(f0_e <= SETTLED) & (f0_e * f0_e <= SETTLED)
    errors = ItemErrors(np.count_nonzero(tried))
    log_q = measures._log_overlap_stack(d[tried], cm[tried], 0.5, errors)
    assert errors.errors == [None] * len(log_q)
    settled = np.exp(log_q) <= SETTLED
    assert settled.any()
    d, cm, log_q = d[tried][settled], cm[tried][settled], log_q[settled]
    errors = ItemErrors(len(cm))
    assert measures._tsallis_stack(d, cm, 0.5, errors).tolist() == [1.0] * len(cm)
    assert errors.errors == [None] * len(cm)
    assert np.abs(log_q - log_overlap(d, cm, 0.5)).max() <= 1e-6


@pytest.mark.parametrize("n, count", [(16, 128), (32, 96), (64, 32)])
def test_overlap_gate_misses_no_settle(n, count):
    # on the wide pool's items with F <= SETTLED, log Q_1/2 >= OVERLAP_GATE log(f0 E), so
    # every item the spectral overlap settles passes the gate (f0 E)^OVERLAP_GATE <= SETTLED
    d, cm = pool(n, range(count))
    errors = ItemErrors(count)
    f0_e, _ = measures._fidelity_stack(d, cm, logdet_spd(cm), errors)
    tried = ~(f0_e <= SETTLED) & (f0_e * f0_e <= SETTLED)
    assert tried.any()
    log_q = measures._log_overlap_stack(d[tried], cm[tried], 0.5, ItemErrors(np.count_nonzero(tried)))
    assert (log_q >= measures.OVERLAP_GATE * np.log(f0_e[tried])).all()
    settled = log_q <= math.log(SETTLED)
    assert (f0_e[tried][settled] ** measures.OVERLAP_GATE <= SETTLED).all()


def product_report(n_th, n):
    mode = (n_th, 0.3j, 0.0)
    d, cm = product_state([mode] * n)
    report = measure_all(GaussianState(d, cm))
    fidelity = 1.0 - (1.0 - fidelity_imaginarity_single_mode(*mode)) ** n
    tsallis = 1.0 - (1.0 - tsallis_imaginarity_single_mode(*mode, 0.5)) ** n
    return report, fidelity, tsallis


@pytest.mark.parametrize("n_th, n", [(30.0, 56), (30.0, 64), (1000.0, 56), (1000.0, 64)])
def test_large_determinants_give_a_value_or_a_named_failure(n_th, n):
    # det cm_sum of the Tsallis tail passes exp's range from (30, 64) on, and
    # det(Sigma/2) and the chain's f_tot4 at n_th = 1000; no RuntimeWarning is
    # raised (warnings are errors here), and det_cm may read inf
    report, fidelity, tsallis = product_report(n_th, n)
    assert report.tsallis_error is None
    assert abs(report.tsallis_imaginarity - tsallis) <= 1e-9 and report.tsallis_imaginarity < 1.0
    if n_th == 30.0:
        assert report.fidelity_error is None
        assert abs(report.fidelity_imaginarity - fidelity) <= 1e-9
    else:
        assert report.fidelity_imaginarity is None
        assert report.fidelity_error == "OverflowError: total-fidelity determinant overflows"
        assert math.isinf(report.det_cm)


def test_fidelity_log_form_where_only_the_tail_determinant_overflows():
    # det(Sigma/2) past exp's range with f_tot4 inside it: f0 in log form
    f_tot4, log_det = np.array([1e300, 4.0]), np.array([800.0, 2.0])
    f0 = measures._f0(f_tot4, log_det)
    assert f0[1] == math.pow(4.0, 0.25) / math.pow(math.exp(2.0), 0.25)
    assert f0[0] == pytest.approx(math.exp(0.25 * (math.log(1e300) - 800.0)), rel=1e-14)
