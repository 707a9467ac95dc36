"""End-to-end acceptance checks at their contracted tolerances.

Each test prints one PASS line; run with ``pytest tests/test_acceptance.py -v -s``
to see them.  The randomized checks use fixed seeds and are deterministic.
"""

import math

import numpy as np
from gaussimag.dynamics import BathParams, evolve, trajectory
from gaussimag.fuzz import run_suite
from gaussimag.linalg import ItemErrors, symplectic_form
from gaussimag.measures import (
    _fidelity_stack,
    _w_chain_stack,
    fidelity_imaginarity,
    fidelity_imaginarity_single_mode,
    imaginarity,
    tsallis_imaginarity,
    tsallis_imaginarity_single_mode,
)
from gaussimag.states import coherent_state, displaced_squeezed_thermal, two_mode_squeezed_vacuum

from conftest import random_hermitian_pd


def done(number, text):
    print(f"ACCEPTANCE {number:2d}: PASS - {text}")


def test_c01_coherent_closed_forms():
    state = coherent_state([1j])
    assert imaginarity(state) == 1.0
    m_f = fidelity_imaginarity(state)
    m_t = tsallis_imaginarity(state, 0.5)
    assert abs(m_f - (1 - math.exp(-2))) <= 1e-8
    assert abs(m_t - (1 - math.exp(-4))) <= 1e-8
    assert abs(m_f - fidelity_imaginarity_single_mode(0.0, 0.0, 1j)) <= 1e-8
    assert abs(m_t - tsallis_imaginarity_single_mode(0.0, 0.0, 1j, 0.5)) <= 1e-8

    real = coherent_state([1.0])
    assert abs(imaginarity(real)) <= 1e-10
    assert abs(fidelity_imaginarity(real)) <= 1e-10
    assert abs(tsallis_imaginarity(real, 0.5)) <= 1e-10
    done(1, "coherent-state closed forms and real-coherent zeros")


def test_c02_squeezed_closed_forms():
    worst = 0.0
    for theta in np.arange(0, 7) * np.pi / 6:
        for magnitude in np.arange(0.1, 2.0001, 0.1):
            state = displaced_squeezed_thermal(0.0, magnitude * np.exp(1j * theta), 0.0)
            s = math.sin(theta) ** 2 * math.sinh(2 * magnitude) ** 2
            i_gn = imaginarity(state)
            m_f = fidelity_imaginarity(state)
            m_t = tsallis_imaginarity(state, 0.5)
            worst = max(
                worst,
                abs(i_gn - (1 - 1 / (1 + s))),
                abs(m_f - (1 - (1 + s) ** -0.25)),
                abs(m_t - (1 - (1 + s) ** -0.5)),
            )
            # theta in {0, pi} gives s = 0 up to sin(pi) rounding (~1e-32)
            if s > 1e-12:
                assert i_gn > m_t > m_f > 0
    assert worst <= 1e-8
    done(2, f"squeezed-state closed forms on the grid (worst {worst:.2e}) with ordering")


def test_c03_thermal_independence():
    zeta, alpha = 0.8 * np.exp(1j * np.pi / 3), 0.5 + 0.25j
    values = [
        imaginarity(displaced_squeezed_thermal(n_th, zeta, alpha))
        for n_th in (0.0, 0.5, 1.0, 5.0, 20.0)
    ]
    spread = max(values) - min(values)
    assert spread <= 1e-10
    done(3, f"covariance-ratio measure independent of thermal occupation (spread {spread:.2e})")


def test_c04_single_mode_closed_vs_general():
    rng = np.random.default_rng(7)
    worst_f = worst_t = 0.0
    for _ in range(500):
        n_th = rng.uniform(0, 5)
        zeta = rng.uniform(0, 2) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        alpha = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        mu = float(rng.choice([0.25, 0.5, 0.75]))
        state = displaced_squeezed_thermal(n_th, zeta, alpha)
        worst_f = max(
            worst_f,
            abs(fidelity_imaginarity(state) - fidelity_imaginarity_single_mode(n_th, zeta, alpha)),
        )
        worst_t = max(
            worst_t,
            abs(
                tsallis_imaginarity(state, mu)
                - tsallis_imaginarity_single_mode(n_th, zeta, alpha, mu)
            ),
        )
    assert worst_f <= 1e-8
    assert worst_t <= 1e-8
    done(4, f"closed vs general single-mode paths over 500 triples ({worst_f:.2e}, {worst_t:.2e})")


def test_c05_monotonicity_under_real_channels():
    result = run_suite("monotonicity", seed=0, count=10_000, tol=1e-9)
    assert result.failures == 0, result.summary()
    done(5, f"no measure increase over 10^4 random real channels (worst {result.worst_margin:.2e})")


def test_c06_faithfulness():
    result = run_suite("faithfulness", seed=0, count=2_000, tol=1e-10)
    assert result.failures == 0, result.summary()
    done(6, "10^3 real states measure <= 1e-10; 10^3 planted cross entries measure >= 1e-8")


def test_c07_dynamics_dual_path():
    times = np.linspace(0.0, 60.0, 200)
    for phi in (10.0, 15.0, 20.0):
        bath = BathParams(lam=0.1, n_th=1.5, big_r=1.0, phi=phi)
        result = trajectory(two_mode_squeezed_vacuum(1.0), bath, times)
        general = np.array([result.stack.report(k).imaginarity for k in range(len(times))])
        closed = result.closed_form
        assert np.abs(general - closed).max() <= 1e-9
        assert np.all(np.diff(general) >= -1e-12)
        stationary = imaginarity(evolve(two_mode_squeezed_vacuum(1.0), bath, math.inf))
        settled = imaginarity(evolve(two_mode_squeezed_vacuum(1.0), bath, 5.0 / bath.lam))
        assert abs(settled - stationary) <= 1e-2

        coherent_run = trajectory(coherent_state([1j, 0]), bath, times)
        general = np.array([coherent_run.stack.report(k).imaginarity for k in range(len(times))])
        closed = coherent_run.closed_form
        assert np.abs(general - closed).max() <= 1e-9
    done(7, "trajectory general path matches printed closed forms at 200 points, 3 phases")


def test_c08_phase_oscillation():
    phis = np.linspace(0.0, 4 * np.pi, 121)
    amplitudes = []
    for t in (1.0, 2.0, 3.0):
        values = np.array(
            [
                imaginarity(
                    evolve(
                        two_mode_squeezed_vacuum(1.0),
                        BathParams(lam=0.1, n_th=1.5, big_r=1.0, phi=float(phi)),
                        t,
                    )
                )
                for phi in phis
            ]
        )
        shifted = np.array(
            [
                imaginarity(
                    evolve(
                        two_mode_squeezed_vacuum(1.0),
                        BathParams(lam=0.1, n_th=1.5, big_r=1.0, phi=float(phi) + np.pi),
                        t,
                    )
                )
                for phi in phis
            ]
        )
        assert np.abs(values - shifted).max() <= 1e-9
        amplitude = values.max() - values.min()
        assert amplitude >= 1e-3
        amplitudes.append(float(amplitude))
    assert amplitudes[0] < amplitudes[1] < amplitudes[2]
    done(8, f"pi-periodic phase oscillation with growing amplitude {amplitudes}")


def test_c09_hierarchy():
    result = run_suite("hierarchy", seed=0, count=10_000, tol=1e-9)
    assert result.failures == 0, result.summary()
    done(9, "10^4 states: no proper reduction raises the value, relabelling moves it <= 1e-12")


def test_c10_normal_form_and_determinant_oracles():
    result = run_suite("williamson", seed=0, count=1_000, tol=1e-8)
    assert result.failures == 0, result.summary()

    rng = np.random.default_rng(42)
    for _ in range(1_000):
        # block-diagonal determinant factorization and its strict converse
        sizes = rng.integers(1, 4, size=int(rng.integers(2, 4)))
        dim = int(sizes.sum())
        gamma = random_hermitian_pd(dim, rng)
        zeroed = np.zeros_like(gamma)
        prod = 1.0
        at = 0
        for size in sizes:
            block = gamma[at : at + size, at : at + size]
            zeroed[at : at + size, at : at + size] = block
            prod *= np.linalg.det(block).real
            at += size
        assert abs(np.linalg.det(zeroed).real - prod) <= 1e-10 * abs(prod)
        assert np.linalg.det(gamma).real < prod

        # determinant via the Schur complement
        na, nb = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        t = random_hermitian_pd(na + nb, rng)
        a, c, b = t[:na, :na], t[:na, na:], t[na:, na:]
        rhs = np.linalg.det(a).real * np.linalg.det(
            b - c.conj().T @ np.linalg.solve(a, c)
        ).real
        assert abs(np.linalg.det(t).real - rhs) <= 1e-10 * abs(rhs)

        # sandwiched-inverse operator bound
        dim = int(rng.integers(1, 5))
        base = random_hermitian_pd(dim, rng)
        noise = random_hermitian_pd(dim, rng, ridge=0.0)
        k = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        lhs = k.conj().T @ np.linalg.solve(k @ base @ k.conj().T + noise, k)
        diff = np.linalg.inv(base) - lhs
        assert np.linalg.eigvalsh(0.5 * (diff + diff.conj().T)).min() >= -1e-10
    done(10, "normal-form round trips (10^3) and determinant/operator oracles (10^3)")


def test_c11_vacuum_fidelity_regression():
    # the hand-derived auxiliary-chain trace that pins the square-root branch
    w_aux, f_tot4 = _w_chain_stack(2.0 * np.eye(2)[None], ItemErrors(1))
    assert np.abs(w_aux[0] - 1.25j * symplectic_form(1)).max() <= 1e-12
    assert abs(complex(f_tot4[0]) - 4.0) <= 1e-12

    vacuum = coherent_state([0])
    cm = vacuum.cm[None]
    f0 = _fidelity_stack(vacuum.d[None], cm, ItemErrors(1))
    assert abs(f0[0] - 1.0) <= 1e-12
    assert abs(1 - f0[0]) <= 1e-12
    done(11, "vacuum fidelity-chain intermediates and value reproduce the fixed trace")
