"""Stacked baths, closed forms and trajectories against the per-item arithmetic they replace."""

import cmath
import math
import struct

import numpy as np
import pytest

from gaussimag import dynamics
from gaussimag.dynamics import (
    BathParams,
    bath_stack,
    coherent_imaginarity,
    squeezed_vacuum_imaginarity,
    trajectory,
)
from gaussimag.states import coherent_state, two_mode_squeezed_vacuum

# t = 0; ordinary times; a subnormal and an underflowed decay at lam = 0.1 and 2.0
TIMES = [0.0, 0.3, 1.0, 7.3, 60.0, 360.0, 7200.0, 1e6]
# enough items that a formula off in the last bit on a few in a thousand shows
MANY_TIMES = TIMES + np.linspace(0.05, 40.0, 120).tolist()
# R = 0 of both signs, phi a multiple of pi/2 (and -0.0), n_th = 0
EDGE_BATHS = [
    (lam, n_th, big_r, phi)
    for lam in (0.1, 2.0)
    for n_th in (0.0, 1.5)
    for big_r in (0.0, -0.0, 1.0, -2.5)
    for phi in [k * math.pi / 2 for k in range(-4, 5)] + [-0.0, 10.0]
]


def squares_off_by_a_bit(fn, count=20):
    """Arguments x where fn(x)**2 (libm's pow) and fn(x) * fn(x) differ in the last bit."""
    values = ((x, fn(x)) for x in np.linspace(-12.0, 12.0, 40001).tolist())
    return [x for x, y in values if y**2 != y * y][:count]


# baths whose cosh(R)**2 or sinh(R)**2 a vectorized square would get wrong
SQUARE_BATHS = [
    (0.1, 1.5, big_r, 0.3) for fn in (math.cosh, math.sinh) for big_r in squares_off_by_a_bit(fn)
]


def random_baths(rng, count):
    return [
        (
            float(rng.uniform(0.01, 2.0)),
            float(rng.uniform(0.0, 20.0)),
            float(rng.uniform(-4.0, 4.0)),
            float(rng.uniform(-15.0, 15.0)),
        )
        for _ in range(count)
    ]


def one_bath(p):
    # (n, m, l_plus, l_minus) of a BathParams' one-bath stack as Python scalars
    return tuple(a[0].item() for a in p.stack[1:])


def reference_bath_derived(n_th, big_r, phi):
    # the scalar arithmetic of one bath's derived quantities
    ch, sh = math.cosh(big_r), math.sinh(big_r)
    n = n_th * (ch**2 + sh**2) + sh**2
    m = -(2.0 * n_th + 1.0) * ch * sh * cmath.exp(1j * phi)
    return n, m, n + m.real, n - m.real


def reference_squeezed_vacuum(r, lam, derived, t):
    # the scalar arithmetic that squeezed_vacuum_imaginarity always had
    _, m, l_plus, l_minus = derived
    decay = math.exp(-lam * t)
    ap = 2.0 * decay * math.cosh(2 * r) + (1.0 - decay) * (1.0 + 2.0 * l_plus)
    am = 2.0 * decay * math.cosh(2 * r) + (1.0 - decay) * (1.0 + 2.0 * l_minus)
    b = 2.0 * decay * math.sinh(2 * r)
    c = 2.0 * (1.0 - decay) * m.imag
    det = (
        b**4
        + c**4
        + 2.0 * b**2 * c**2
        + ap**2 * am**2
        - 2.0 * ap * am * c**2
        - ap**2 * b**2
        - am**2 * b**2
    )
    return 1.0 - det / ((ap**2 - b**2) * (am**2 - b**2))


def reference_coherent(alphas, lam, derived, t, zero_tol):
    # the scalar arithmetic that coherent_imaginarity always had
    _, m, l_plus, l_minus = derived
    decay = math.exp(-lam * t)
    a_plus = decay + (1.0 - decay) * (1.0 + 2.0 * l_plus)
    a_minus = decay + (1.0 - decay) * (1.0 + 2.0 * l_minus)
    c = 2.0 * (1.0 - decay) * m.imag
    h0 = 1.0 if 2.0 * sum(abs(complex(a).imag) for a in alphas) > zero_tol else 0.0
    return 1.0 + h0 - (a_plus * a_minus - c**2) ** 2 / (a_plus**2 * a_minus**2)


def bits(values):
    """The bytes of each float, both parts of a complex: signed zeros differ."""
    parts = [p for v in values for p in ((v.real, v.imag) if isinstance(v, complex) else (v,))]
    return [struct.pack("<d", p) for p in parts]


class TestBathStack:
    def test_one_call_matches_the_scalar_arithmetic(self, rng):
        baths = EDGE_BATHS + SQUARE_BATHS + random_baths(rng, 2000)
        stack, errors = bath_stack(*(np.array(column) for column in zip(*baths)))
        assert errors == [None] * len(baths)
        assert bits(stack.lam.tolist()) == bits([b[0] for b in baths])
        for k, (_, n_th, big_r, phi) in enumerate(baths):
            got = [a[k].item() for a in (stack.n, stack.m, stack.l_plus, stack.l_minus)]
            assert bits(got) == bits(reference_bath_derived(n_th, big_r, phi)), baths[k]

    def test_bath_derived_is_the_one_bath_case(self, rng):
        for bath in EDGE_BATHS + SQUARE_BATHS + random_baths(rng, 50):
            got = one_bath(BathParams(*bath))
            assert bits(got) == bits(reference_bath_derived(*bath[1:])), bath

    def test_errors_follow_the_constructor_order(self):
        # lam before n_th before overflow, and an overflowing n_th before an
        # overflowing R; a valid bath has no error
        lam = np.array([0.0, -1.0, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.0])
        n_th = np.array([-1.0, 0.5, -0.5, 0.5, 0.5, 0.0, np.inf, 1e300, np.inf, np.inf])
        big_r = np.array([1000.0, 1.0, 1000.0, 300.0, 10.0, -1000.0, 0.0, 0.0, 1000.0, 0.0])
        _, errors = bath_stack(lam, n_th, big_r, np.zeros(10))
        assert errors == [
            "damping rate must be > 0, got 0.0",
            "damping rate must be > 0, got -1.0",
            "thermal photon number must be >= 0, got -0.5",
            "bath squeezing R=300.0 overflows the bath photon number",
            None,
            "bath squeezing R=-1000.0 overflows the bath photon number",
            "thermal photon number n_th=inf overflows the bath photon number",
            "thermal photon number n_th=1e+300 overflows the bath photon number",
            "thermal photon number n_th=inf overflows the bath photon number",
            "damping rate must be > 0, got 0.0",
        ]
        # a message prints the value as given: an integer stays an integer
        assert bath_stack([-1], [0], [0], [0])[1] == ["damping rate must be > 0, got -1"]


class TestClosedFormStacks:
    # many baths and times: a square off in the last bit on one item in a thousand shows
    def test_squeezed_vacuum(self, rng):
        for k, bath in enumerate(EDGE_BATHS[::3] + random_baths(rng, 150)):
            p, r = BathParams(*bath), (0.0, 0.7, 1.0)[k % 3]
            want = [reference_squeezed_vacuum(r, bath[0], one_bath(p), t) for t in MANY_TIMES]
            got = dynamics._squeezed_vacuum_stack(r, p.stack, np.array(MANY_TIMES))
            assert bits(got.tolist()) == bits(want), (r, bath)
            one_time = [squeezed_vacuum_imaginarity(r, p, t) for t in TIMES]
            assert bits(one_time) == bits(want[: len(TIMES)])

    def test_coherent(self, rng):
        for k, bath in enumerate(EDGE_BATHS[::3] + random_baths(rng, 150)):
            p = BathParams(*bath)
            alphas, zero_tol = [(1j, 0), (0.5, -0.3 + 0.2j), (0, 0)][k % 3], (1e-12, 0.5)[k % 2]
            derived = one_bath(p)
            want = [reference_coherent(alphas, bath[0], derived, t, zero_tol) for t in MANY_TIMES]
            got = dynamics._coherent_stack(alphas, p.stack, np.array(MANY_TIMES), zero_tol)
            assert bits(got.tolist()) == bits(want), (alphas, zero_tol, bath)
            one_time = [coherent_imaginarity(alphas, p, t, zero_tol) for t in TIMES]
            assert bits(one_time) == bits(want[: len(TIMES)])


class TestLazyPoints:
    """Time k of a trajectory is ``times[k]``, ``closed_form[k]`` and ``stack.report(k)``."""

    @pytest.mark.parametrize("family", ["sv", "coherent"])
    def test_points_hold_the_per_time_values(self, family):
        p = BathParams(0.1, 1.5, 1.0, 10.0)
        if family == "sv":
            result = trajectory(two_mode_squeezed_vacuum(1.0), p, TIMES)
            closed = [reference_squeezed_vacuum(1.0, p.lam, one_bath(p), t) for t in TIMES]
        else:
            result = trajectory(coherent_state([1j, 0]), p, TIMES)
            closed = [reference_coherent((1j, 0), p.lam, one_bath(p), t, 1e-12) for t in TIMES]
        assert bits(result.times.tolist()) == bits(TIMES)
        assert bits(result.closed_form.tolist()) == bits(closed)
