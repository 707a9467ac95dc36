"""Working set of the stacked fidelity and Tsallis stages, and what they may write.

Each stage frees its intermediates at their last use and writes in place only
into arrays it allocated itself, so its traced peak stays a few complex
``(B, 2n, 2n)`` stacks and its inputs come back bitwise unchanged.
"""

import tracemalloc

import numpy as np
import pytest

from gaussimag import linalg, measures
from gaussimag.linalg import ItemErrors
from gaussimag.measures import measure_stack

from conftest import wide_stack

B, N = 256, 16
# one complex (B, 2n, 2n) stack, the unit of every bound below
COMPLEX_STACK = B * (2 * N) ** 2 * 16


@pytest.fixture(scope="module")
def stages():
    # the pool's first 256 16-mode states: the chain fails 57 of them, so the
    # fidelity stage's failure copies and spectral rescue are inside its peak
    d, cm = wide_stack(N, range(B))
    return {
        "fidelity": lambda: measures._fidelity_stack(d, cm, ItemErrors(B)),
        "spectral": lambda: measures._spectral_f_tot4_stack(cm, ItemErrors(B)),
        "williamson": lambda: linalg.williamson_stack(cm, ItemErrors(B)),
        "tsallis": lambda: measures._tsallis_stack(d, cm, 0.5, ItemErrors(B)),
    }


def traced_peak(stage, unit=COMPLEX_STACK) -> float:
    """Peak of the memory ``stage()`` allocates, in ``unit`` bytes (complex stacks)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        stage()
        return (tracemalloc.get_traced_memory()[1] - start) / unit
    finally:
        tracemalloc.stop()


# measured 5.15, 2.53, 2.57 and 2.57 stacks with numpy 2.4; each stage held
# 11.49, 4.05, 5.59 and 5.59 while its intermediates lived to the end, and
# fidelity 5.81 while the chain carried the caller's d and cm
@pytest.mark.parametrize(
    "stage, bound", [("fidelity", 5.3), ("spectral", 2.75), ("williamson", 2.75), ("tsallis", 2.75)]
)
def test_traced_peak_is_bounded(stages, stage, bound):
    assert traced_peak(stages[stage]) <= bound


# stacks where the certificates settle items: of the pool's first 64 32-mode
# states the determinant bound settles the 4 picked ones, and the chain gets a
# copy of the other 60 rows; it settles all of the first 16 64-mode states, and
# gets cm itself.  Measured 4.15 and 1.50 complex stacks of their own size with
# numpy 2.4.  At n = 64, B = 64 all 64 items are picked, the determinant bound
# settles 56 and the spectral stage gets a copy of the other 8: measured 1.938
# (2.961 while the spectral stage got a copy of every picked item), bounded at
# that plus 5%
@pytest.mark.parametrize("n, count, bound", [(32, 64, 4.45), (64, 16, 2.95), (64, 64, 2.035)])
def test_settled_fidelity_peak_is_bounded(n, count, bound):
    d, cm = wide_stack(n, range(count))
    unit = count * (2 * n) ** 2 * 16
    assert traced_peak(lambda: measures._fidelity_stack(d, cm, ItemErrors(count)), unit) <= bound


# both fragile stages as a report runs them, on the same stacks: the Tsallis
# stage skips the items the fidelity bound settles, and gets a copy of the
# other rows.  Measured 4.145 and 1.502 stacks with numpy 2.4; 1.938 at n = 64,
# B = 64, bounded at that plus 5%
@pytest.mark.parametrize("n, count, bound", [(32, 64, 4.3), (64, 16, 2.62), (64, 64, 2.035)])
def test_settled_fragile_peak_is_bounded(n, count, bound):
    reports = measure_stack(*wide_stack(n, range(count)))
    unit = count * (2 * n) ** 2 * 16
    assert traced_peak(lambda: reports._fragile, unit) <= bound


def writable(*arrays):
    return tuple(np.array(a) for a in arrays)


def read_everything(reports, count):
    arrays = (reports.imaginarity, reports.h_term, reports.log_dets)
    arrays += (reports.fidelity_imaginarity, reports.tsallis_imaginarity)
    assert all(len(a) == count for a in arrays)
    for k, failed in enumerate(reports.failures):
        if failed[0] is None:
            reports.report(k)


@pytest.mark.parametrize(
    "d, cm",
    [
        # wide state 8:9 fails the chain, so the spectral rescue runs
        wide_stack(8, range(12)),
        # the middle item is indefinite and fails the covariance ratio
        (np.zeros((3, 2)), np.stack([np.eye(2), np.diag([1.0, -1.0]), 2.0 * np.eye(2)])),
    ],
    ids=["chain-failure", "indefinite"],
)
def test_measure_stack_leaves_its_inputs_unchanged(d, cm):
    d, cm = writable(d, cm)
    before = d.tobytes(), cm.tobytes()
    reports = measure_stack(d, cm, mu=0.3)
    read_everything(reports, len(cm))
    assert (d.tobytes(), cm.tobytes()) == before


def test_stages_leave_their_inputs_unchanged():
    d, cm = writable(*wide_stack(8, range(12)))
    # the last item has its eigenvalues on the negative axis and fails
    square = np.concatenate([cm, -cm[:1]]).astype(complex)
    inputs = (d, cm, square)
    before = [a.tobytes() for a in inputs]
    measures._w_chain_stack(cm, ItemErrors(12))
    measures._spectral_f_tot4_stack(cm, ItemErrors(12))
    measures._fidelity_stack(d, cm, ItemErrors(12))
    linalg.williamson_stack(cm, ItemErrors(12))
    measures._tsallis_stack(d, cm, 0.5, ItemErrors(12))
    linalg.sqrt_principal_stack(square, ItemErrors(13))
    assert [a.tobytes() for a in inputs] == before


@pytest.mark.parametrize("n", [1, 4])
def test_empty_stack_gives_empty_fields(n):
    reports = measure_stack(np.zeros((0, 2 * n)), np.zeros((0, 2 * n, 2 * n)))
    assert reports.imaginarity.shape == reports.h_term.shape == (0,)
    assert reports.log_dets.shape == (0, 3)
    assert reports.fidelity_imaginarity.shape == reports.tsallis_imaginarity.shape == (0,)
    assert reports.failures == []
