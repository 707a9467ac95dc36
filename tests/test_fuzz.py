"""The stacked fuzz suites against a per-case oracle on the one-state public path."""

import hashlib
import math
import warnings

import numpy as np
import pytest

from gaussimag import fuzz
from gaussimag.channels import RealnessClass, random_real_channel
from gaussimag.fuzz import SUITES, FuzzResult, _draw_by_mode_count, run_suite
from gaussimag.linalg import ItemErrors, symplectic_form, williamson_stack
from gaussimag.measures import imaginarity
from gaussimag.sampling import random_real_state, random_state

from conftest import inject_cross_entry, random_cm

CASES = 60
# sha256 of each suite's output: summary() and repr(worst_margin) at seeds 0,
# 7 and 300001 (300 cases each), and summary() of a seed-7, 100-case run at
# tol=-1, whose FAIL lines name the failing cases.  Recorded with numpy 2.4.6
# and its bundled OpenBLAS 0.3.31 on x86-64 with AVX-512.
PINNED = {
    "monotonicity": (
        "00dcae69aa4a0b546351ba79b746465b8e1beb8246f0f3e396496e00ace89778",
        "70fb3c06c18884c2eb886a194122ffbd064567a2f22c7d9d2430ef96dd22b5dc",
    ),
    "faithfulness": (
        "1ca0e84cb4ba0f28b127060b84b44cc4a15cba8d780baa8bc553617a51c30768",
        "7fe3ed58f181c58a338fa6e14aecee5c2870f4d75e8c71edf8e975747e1ad5ff",
    ),
    "hierarchy": (
        "1225e2a8edb24223dc1933c996f30e23ddff67b95774da801daf436cfc63eef3",
        "a2123a987beac23d456be22e3c1e012e6e924b63ff1652399e71d739c7cc4f26",
    ),
    "williamson": (
        "d8cbd89b6085305e46add2528bf865e7e059fc12e3abea827149aa7fc965964d",
        "2a1e1b05f852be5cb72537976a8f2a24187b01517040a8ed9dcbd164d66f1200",
    ),
}


def monotonicity_margin(rng, case, tol):
    n = int(rng.integers(1, 4))
    state = random_state(n, rng)
    kind = (RealnessClass.COMPLETELY_REAL, RealnessClass.COVARIANT_REAL)[case % 2]
    out = random_real_channel(n, kind, rng).apply(state)
    margin = imaginarity(out) - imaginarity(state) - tol
    if kind is RealnessClass.COMPLETELY_REAL:
        breaking = imaginarity(out) - 1e-10
        if not out.is_real():
            breaking = max(breaking, 1.0)
        margin = max(margin, breaking)
    return margin


def faithfulness_margin(rng, case, tol):
    real = random_real_state(int(rng.integers(1, 5)), rng)
    if case % 2 == 0:
        return imaginarity(real) - tol
    eps = float(np.exp(rng.uniform(np.log(1e-3), np.log(0.1))))
    return 1e-8 - imaginarity(inject_cross_entry(real, rng, eps))


def hierarchy_margin(rng, case, tol):
    n = int(rng.integers(2, 5))
    state = random_state(n, rng)
    full = imaginarity(state)
    margin = float("-inf")
    for mask in range(1, 2**n - 1):
        modes = [m + 1 for m in range(n) if mask >> m & 1]
        margin = max(margin, imaginarity(state.reduce(modes)) - full - tol)
    perm = [int(m) + 1 for m in rng.permutation(n)]
    return max(margin, abs(imaginarity(state.reduce(perm)) - full) - 1e-12)


def williamson_margin(rng, case, tol):
    n = int(rng.integers(1, 5))
    cm = random_cm(n, rng)
    errors = ItemErrors(1)
    (s,), (nus,), _ = williamson_stack(cm[None], errors, tol=float("inf"))
    errors.raise_first()
    delta = symplectic_form(n)
    diagonal = np.diag(np.repeat(nus, 2))
    res_cm = np.linalg.norm(s @ diagonal @ s.T - cm) / np.linalg.norm(cm)
    res_sympl = float(np.linalg.norm(s @ delta @ s.T - delta))
    return max(res_cm, res_sympl) - tol


ORACLES = {
    "monotonicity": monotonicity_margin,
    "faithfulness": faithfulness_margin,
    "hierarchy": hierarchy_margin,
    "williamson": williamson_margin,
}


def recorded_margins(monkeypatch, suite, seed, count, tol=None):
    recorded = []
    record = FuzzResult.record

    def spy(self, case, margin):
        recorded.append((case, margin))
        record(self, case, margin)

    monkeypatch.setattr(FuzzResult, "record", spy)
    return run_suite(suite, seed=seed, count=count, tol=tol), recorded


@pytest.mark.parametrize("suite", SUITES)
@pytest.mark.parametrize("seed", [3, 2024])
def test_margins_match_the_per_case_oracle(monkeypatch, suite, seed):
    result, recorded = recorded_margins(monkeypatch, suite, seed, CASES)
    tol = result.tol  # the suite's default
    expected = [
        (case, ORACLES[suite](np.random.default_rng([seed, case]), case, tol))
        for case in range(CASES)
    ]
    assert recorded == expected  # bit for bit, in case order
    assert result.failures == 0
    assert result.worst_margin == max(m for _, m in expected)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 10**30])
def test_case_generators_match_default_rng(seed):
    # seeds of one to four 32-bit words, so the case word falls inside the
    # SeedSequence pool and, at 10**30, after it
    def draw(case, n, rng):
        return case, n, rng.random(3), rng.normal(size=3), rng.integers(0, 2**62, size=3)

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no integer overflow warnings from the seeding
        groups = _draw_by_mode_count(seed, 100, (1, 5), draw)
    drawn = sorted(d for _, draws in groups.values() for d in draws)
    assert [case for case, *_ in drawn] == list(range(100))
    for case, n, uniform, normal, integers in drawn:
        rng = np.random.default_rng([seed, case])
        assert n == rng.integers(1, 5)
        assert uniform.tobytes() == rng.random(3).tobytes()
        assert normal.tobytes() == rng.normal(size=3).tobytes()
        assert integers.tolist() == rng.integers(0, 2**62, size=3).tolist()


@pytest.mark.parametrize("seed, error", [(-1, ValueError), (1.5, TypeError), ("3", TypeError)])
def test_bad_seed_raises(seed, error):
    with pytest.raises(error):
        run_suite("williamson", seed=seed, count=3)


def test_unknown_suite_raises():
    with pytest.raises(KeyError, match=r"unknown suite 'bogus'; choose from \('monotonicity', "):
        run_suite("bogus", seed=0, count=3)


def test_nan_tol_raises():
    # a NaN margin never counts as a failure, so every case would pass
    with pytest.raises(ValueError, match="nan"):
        run_suite("hierarchy", seed=0, count=3, tol=float("nan"))


@pytest.mark.parametrize("tol", [math.inf, -math.inf])
def test_infinite_tol_raises(tol):
    # an infinite tol passes (inf) or fails (-inf) every case of a suite, testing nothing
    with pytest.raises(ValueError, match=f"^tol must be finite, got {tol}$"):
        run_suite("williamson", seed=0, count=3, tol=tol)


@pytest.mark.parametrize(
    "count, error, message",
    [
        (-5, ValueError, "^count must be >= 0, got -5$"),
        (2.5, TypeError, "^'float' object cannot be interpreted as an integer$"),
    ],
)
def test_bad_count_raises(count, error, message):
    # a bad count once raised numpy's errors on the case-word array it sizes
    with pytest.raises(error, match=message):
        run_suite("hierarchy", seed=0, count=count)


def test_non_real_output_fails_every_completely_real_case(monkeypatch):
    # a completely real channel's output must be exactly real, whatever it measures
    _, plain = recorded_margins(monkeypatch, "monotonicity", 3, CASES)
    plain = list(plain)
    monkeypatch.setattr(fuzz, "real_pattern", lambda d, cm: False)
    result, patched = recorded_margins(monkeypatch, "monotonicity", 3, CASES)
    assert [case for case, _ in patched] == list(range(CASES))
    for (case, margin), (_, plain_margin) in zip(patched, plain):
        if case % 2 == 0:  # completely real channel
            assert margin >= 1 - 1e-10
        else:  # covariant real channel: untouched
            assert margin == plain_margin
    assert result.failures == CASES // 2


@pytest.mark.parametrize("suite", ["hierarchy", "williamson"])
def test_failing_cases_keep_case_order(suite):
    # with tol=-1 every case of these two suites fails (the other two have
    # terms that do not move with tol): each case is recorded once, under its
    # own index and in case order, although the scoring runs by mode count
    result = run_suite(suite, seed=5, count=25, tol=-1.0)
    assert result.failures == 25
    assert [case for case, _ in result.failing_cases] == list(range(10))
    assert "FAIL case=0 seed=(5,0)" in result.summary()


@pytest.mark.parametrize(
    "suite, failures",
    [("monotonicity", 13), ("faithfulness", 13), ("hierarchy", 25), ("williamson", 25)],
)
def test_fixed_bounds_do_not_move_with_tol(suite, failures):
    # tol=-1 fails every case of hierarchy and williamson, but faithfulness's
    # planted cases keep their fixed 1e-8 bound and pass, and so do the
    # completely-real monotonicity cases whose input measures exactly 1 (the
    # output measures 0, so the margin is 0 and the fixed 1e-10 term is below)
    assert run_suite(suite, seed=5, count=25, tol=-1.0).failures == failures


@pytest.mark.parametrize("suite", SUITES)
def test_zero_cases(suite):
    result = run_suite(suite, seed=0, count=0)
    assert (result.failures, result.failing_cases, result.worst_margin) == (0, [], float("-inf"))


@pytest.mark.parametrize("suite", SUITES)
def test_outputs_are_pinned(suite):
    passing = hashlib.sha256()
    for seed in (0, 7, 300001):
        result = run_suite(suite, seed=seed, count=300)
        passing.update(f"{result.summary()}\n{result.worst_margin!r}\n".encode())
    forced = run_suite(suite, seed=7, count=100, tol=-1.0)
    assert "\nFAIL case=" in forced.summary()
    failing = hashlib.sha256(forced.summary().encode())
    assert (passing.hexdigest(), failing.hexdigest()) == PINNED[suite]
