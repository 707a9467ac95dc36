import math

import numpy as np
import pytest

from gaussimag.dynamics import (
    BathParams,
    coherent_imaginarity,
    evolve,
    squeezed_vacuum_imaginarity,
    trajectory,
)
from gaussimag.errors import WrongModeCount
from gaussimag.linalg import symplectic_form
from gaussimag.measures import imaginarity
from gaussimag.states import GaussianState, coherent_state, two_mode_squeezed_vacuum

BATH = BathParams(lam=0.1, n_th=1.5, big_r=1.0, phi=np.pi / 2)


def scalars(p):
    """The one bath of ``p.stack`` as Python scalars, under the same field names."""
    return p.stack._make(a.item() for a in p.stack)


def stationary(p):
    """The stationary state: any start evolved to t = inf."""
    return evolve(two_mode_squeezed_vacuum(1.0), p, math.inf)


class TestBathParams:
    def test_unsqueezed_bath(self):
        d = scalars(BathParams(lam=1.0, n_th=0.8))
        assert d.n == pytest.approx(0.8)
        assert d.m == 0.0
        assert d.l_plus == pytest.approx(0.8)
        assert d.l_minus == pytest.approx(0.8)

    def test_squeezed_bath_values(self):
        d = scalars(BathParams(lam=0.1, n_th=1.5, big_r=1.0))
        assert d.n == pytest.approx(1.5 * math.cosh(2.0) + math.sinh(1.0) ** 2, abs=1e-12)
        assert abs(d.m) == pytest.approx(2.0 * math.sinh(2.0), abs=1e-12)

    def test_vacuum_bath(self):
        d = scalars(BathParams(lam=0.5, n_th=0.0, big_r=0.0))
        assert (d.n, d.m, d.l_plus, d.l_minus) == (0.0, 0.0, 0.0, 0.0)

    def test_squeezing_bound_holds_identically(self, rng):
        for _ in range(100):
            p = BathParams(
                lam=float(rng.uniform(0.01, 2)),
                n_th=float(rng.uniform(0, 20)),
                big_r=float(rng.uniform(0, 3)),
                phi=float(rng.uniform(0, 2 * np.pi)),
            )
            d = scalars(p)
            assert abs(d.m) ** 2 <= d.n * (d.n + 1) + 1e-9

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BathParams(lam=0.0, n_th=1.0)
        with pytest.raises(ValueError):
            BathParams(lam=1.0, n_th=-0.1)

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"lam": math.nan}, "damping rate must be > 0, got nan"),
            ({"n_th": math.nan}, "thermal photon number must be >= 0, got nan"),
            ({"big_r": math.nan}, "bath squeezing R must be a number, got nan"),
            ({"phi": math.nan}, "bath squeezing phase phi must be finite, got nan"),
            ({"phi": -math.inf}, "bath squeezing phase phi must be finite, got -inf"),
            ({"lam": math.inf}, "damping rate must be finite, got inf"),
            ({"lam": -math.inf}, "damping rate must be > 0, got -inf"),
        ],
    )
    def test_non_finite_parameters_rejected(self, params, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            BathParams(**{"lam": 0.1, "n_th": 0.5, "big_r": 1.0, "phi": 0.3, **params})

    @pytest.mark.parametrize("big_r", [8.0, 10.0, 20.0, -10.0])
    def test_large_squeezing_is_physical(self, big_r):
        # N(N+1) - |M|^2 = n_th(n_th+1) exactly; at these R rounding once broke a bound check
        d = scalars(BathParams(lam=0.1, n_th=0.5, big_r=big_r, phi=0.3))
        assert abs(d.m) ** 2 == pytest.approx(d.n * (d.n + 1) - 0.75, rel=1e-12)

    @pytest.mark.parametrize("big_r", [300.0, 1000.0, -1000.0])
    def test_overflowing_squeezing_names_r(self, big_r):
        # cosh(R)**2 overflows from R ~ 355 and cosh(R) itself from R ~ 710
        with pytest.raises(ValueError, match=f"^bath squeezing R={big_r} overflows"):
            BathParams(lam=0.1, n_th=0.5, big_r=big_r)


class TestStationaryState:
    def test_vacuum_bath_gives_identity(self):
        out = stationary(BathParams(lam=1.0, n_th=0.0, big_r=0.0))
        np.testing.assert_allclose(out.cm, np.eye(4))

    def test_real_squeezing_phase_is_diagonal(self):
        out = stationary(BathParams(lam=1.0, n_th=1.5, big_r=1.0, phi=0.0)).cm
        np.testing.assert_allclose(out, np.diag(np.diag(out)))

    def test_cross_entry_value(self):
        out = stationary(BATH).cm
        assert out[0, 1] == pytest.approx(-2.0 * 2.0 * math.sinh(2.0), abs=1e-12)
        np.testing.assert_allclose(out[:2, :2], out[2:, 2:])
        np.testing.assert_allclose(out[:2, 2:], np.zeros((2, 2)))

    def test_stationary_state_is_physical(self):
        out = stationary(BATH)
        np.testing.assert_array_equal(out.d, np.zeros(4))
        GaussianState(out.d, out.cm)
        # the same stationary state from another start, to the bit
        np.testing.assert_array_equal(evolve(coherent_state([2 + 1j, -1j]), BATH, math.inf).cm, out.cm)


class TestEvolve:
    def test_time_zero_identity(self):
        s0 = two_mode_squeezed_vacuum(1.0)
        out = evolve(s0, BATH, 0.0)
        np.testing.assert_allclose(out.cm, s0.cm, atol=1e-14)
        np.testing.assert_array_equal(out.d, s0.d)

    def test_long_time_limit(self):
        s0 = coherent_state([2 + 1j, -1j])
        out = evolve(s0, BATH, 500.0)
        np.testing.assert_allclose(out.cm, stationary(BATH).cm, atol=1e-12)
        np.testing.assert_allclose(out.d, np.zeros(4), atol=1e-8)

    def test_semigroup_property(self, rng):
        s0 = two_mode_squeezed_vacuum(0.8)
        for _ in range(20):
            p = BathParams(
                lam=float(rng.uniform(0.05, 1)),
                n_th=float(rng.uniform(0, 5)),
                big_r=float(rng.uniform(0, 2)),
                phi=float(rng.uniform(0, 2 * np.pi)),
            )
            t1, t2 = float(rng.uniform(0, 10)), float(rng.uniform(0, 10))
            stepped = evolve(evolve(s0, p, t1), p, t2)
            direct = evolve(s0, p, t1 + t2)
            assert np.abs(stepped.cm - direct.cm).max() <= 1e-10
            assert np.abs(stepped.d - direct.d).max() <= 1e-10

    def test_interpolated_entries_match_closed_coefficients(self):
        r, t = 1.0, 7.3
        d = scalars(BATH)
        decay = math.exp(-BATH.lam * t)
        ap = 2 * decay * math.cosh(2 * r) + (1 - decay) * (1 + 2 * d.l_plus)
        am = 2 * decay * math.cosh(2 * r) + (1 - decay) * (1 + 2 * d.l_minus)
        b = 2 * decay * math.sinh(2 * r)
        c = 2 * (1 - decay) * d.m.imag
        out = evolve(two_mode_squeezed_vacuum(r), BATH, t)
        expected = np.array(
            [[ap, c, b, 0.0], [c, am, 0.0, -b], [b, 0.0, ap, c], [0.0, -b, c, am]]
        )
        np.testing.assert_allclose(out.cm, expected, atol=1e-12)
        np.testing.assert_array_equal(out.d, np.zeros(4))

    def test_output_stays_physical(self, rng):
        delta = symplectic_form(2)
        s0 = two_mode_squeezed_vacuum(1.2)
        for t in np.linspace(0, 80, 30):
            out = evolve(s0, BATH, float(t))
            assert np.linalg.eigvalsh(out.cm + 1j * delta).min() >= -1e-9

    @pytest.mark.parametrize(
        "s0", [two_mode_squeezed_vacuum(1.2), coherent_state([2 + 1j, -1j])], ids=["sv", "coherent"]
    )
    def test_matches_validated_construction(self, s0):
        # evolve skips validation; the validating constructor must agree bit for bit
        for t in np.linspace(0, 80, 41):
            out = evolve(s0, BATH, float(t))
            ref = GaussianState(out.d, out.cm)
            np.testing.assert_array_equal(out.cm, ref.cm)
            np.testing.assert_array_equal(out.d, ref.d)
            assert not out.cm.flags.writeable and not out.d.flags.writeable

    def test_wrong_mode_count(self):
        with pytest.raises(WrongModeCount):
            evolve(coherent_state([1j]), BATH, 1.0)
        with pytest.raises(ValueError):
            evolve(two_mode_squeezed_vacuum(1.0), BATH, -1.0)


class TestTrajectory:
    def test_squeezed_vacuum_dual_path(self):
        result = trajectory(two_mode_squeezed_vacuum(1.0), BATH, np.linspace(0, 60, 50))
        assert result.family == "squeezed_vacuum"
        for k, closed in enumerate(result.closed_form):
            assert closed == pytest.approx(result.stack.report(k).imaginarity, abs=1e-9)
            assert result.stack.report(k).h_term == 0

    def test_squeezed_vacuum_displacement_stays_zero(self):
        result = trajectory(two_mode_squeezed_vacuum(0.7), BATH, [0.0, 5.0, 50.0])
        for k in range(len(result.times)):
            assert result.stack.report(k).h_term == 0

    def test_coherent_dual_path_and_floor(self):
        result = trajectory(coherent_state([1j, 0]), BATH, np.linspace(0, 60, 50))
        assert result.family == "coherent"
        values = [result.stack.report(k).imaginarity for k in range(len(result.times))]
        assert values[0] == 1.0  # no bath correlations yet
        assert min(values) >= 1.0
        for k, closed in enumerate(result.closed_form):
            assert closed == pytest.approx(result.stack.report(k).imaginarity, abs=1e-9)

    def test_indicator_flip_is_reported(self):
        # a coarse zero threshold makes the decaying displacement cross it in-window
        fast = BathParams(lam=2.0, n_th=0.5, big_r=0.3, phi=1.0)
        result = trajectory(
            coherent_state([1e-3j, 0]), fast, np.linspace(0, 10, 40), zero_tol=1e-4
        )
        assert result.stack.report(0).h_term == 1
        assert result.stack.report(-1).h_term == 0
        assert len(result.h_flip_times) == 1

    def test_unrecognized_initial_state_has_no_closed_form(self, rng):
        from gaussimag.sampling import random_state

        result = trajectory(random_state(2, rng), BATH, [0.0, 1.0])
        assert result.family is None
        assert result.closed_form is None

    def test_times_validated(self):
        s0 = two_mode_squeezed_vacuum(1.0)
        with pytest.raises(ValueError):
            trajectory(s0, BATH, [])
        with pytest.raises(ValueError):
            trajectory(s0, BATH, [1.0, 0.5])
        with pytest.raises(ValueError):
            trajectory(s0, BATH, [-1.0, 0.5])

    @pytest.mark.parametrize("times", [[math.nan], [0.0, math.nan], [math.nan, 1.0]])
    def test_nan_times_rejected(self, times):
        with pytest.raises(ValueError, match="^times must be sorted and nonnegative$"):
            trajectory(two_mode_squeezed_vacuum(1.0), BATH, times)

    def test_nan_time_rejected_by_evolve(self):
        with pytest.raises(ValueError, match="^time must be >= 0, got nan$"):
            evolve(two_mode_squeezed_vacuum(1.0), BATH, math.nan)


class TestClosedForms:
    def test_monotone_growth_for_paper_phases(self):
        ts = np.linspace(0, 60, 200)
        for phi in (10.0, 15.0, 20.0):
            p = BathParams(lam=0.1, n_th=1.5, big_r=1.0, phi=phi)
            vals = np.array([squeezed_vacuum_imaginarity(1.0, p, t) for t in ts])
            assert np.all(np.diff(vals) >= -1e-12)
            assert vals[0] == pytest.approx(0.0, abs=1e-12)

    def test_limit_matches_stationary_evaluation(self):
        for phi in (10.0, 15.0, 20.0):
            p = BathParams(lam=0.1, n_th=1.5, big_r=1.0, phi=phi)
            assert squeezed_vacuum_imaginarity(1.0, p, 1e6) == pytest.approx(
                imaginarity(stationary(p)), abs=1e-9
            )

    def test_coherent_initial_value_is_exactly_one(self):
        assert coherent_imaginarity([1j, 0], BATH, 0.0) == 1.0

    def test_phase_periodicity(self):
        for t in (1.0, 2.0, 3.0):
            for phi in np.linspace(0, 4 * np.pi, 17):
                a = squeezed_vacuum_imaginarity(
                    1.0, BathParams(lam=0.1, n_th=1.5, big_r=1.0, phi=float(phi)), t
                )
                b = squeezed_vacuum_imaginarity(
                    1.0, BathParams(lam=0.1, n_th=1.5, big_r=1.0, phi=float(phi) + np.pi), t
                )
                assert a == pytest.approx(b, abs=1e-12)
