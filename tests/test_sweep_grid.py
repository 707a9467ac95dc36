"""Stacked sweep grids against the one-state-per-point arithmetic they replace."""

import json
import math
import pathlib

import numpy as np
import pytest

from gaussimag.cli import FAMILY_PARAMS, SweepSpec, _grid_inputs, _grid_states
from gaussimag.dynamics import BathParams, evolve
from gaussimag.states import coherent_state, displaced_squeezed_thermal, two_mode_squeezed_vacuum
from gaussimag.states import validate

FIGURES = sorted((pathlib.Path(__file__).resolve().parent.parent / "figures").glob("*.json"))

POLAR = {"abs_zeta": 0.4, "theta": 1.1}
CARTESIAN = {"re_zeta": 0.2, "im_zeta": -0.5}
BATH = {"n_th": 1.5, "R": 1.0, "phi": 0.7, "lam": 0.1, "t": 2.0}
BASE = {
    "coherent": {"re_alpha": -0.0, "im_alpha": -0.7},
    "squeezed": POLAR,
    "squeezed_thermal": {"n_th": 0.4, "re_alpha": 0.3, "im_alpha": -0.2, **POLAR},
    "sv_dynamics": {"r": 0.8, **BATH},
    "coherent_dynamics": {
        "re_alpha1": 0.3, "im_alpha1": 1.0, "re_alpha2": -0.4, "im_alpha2": 0.2, **BATH
    },
}
NONNEGATIVE = {"n_th", "lam", "t", "s"}


def zeta_of(params):
    # the per-point squeezing parameter, as the sweep command computed it
    if "s" in params:
        return 1j * 0.5 * math.asinh(math.sqrt(params["s"]))
    if "re_zeta" in params or "im_zeta" in params:
        return complex(params.get("re_zeta", 0.0), params.get("im_zeta", 0.0))
    r, theta = params.get("abs_zeta", 0.0), params.get("theta", 0.0)
    return r * complex(math.cos(theta), math.sin(theta))


def reference_squeezed_thermal(n_th, zeta, alpha):
    # the one-state arithmetic that displaced_squeezed_thermal always had
    zeta, alpha = complex(zeta), complex(alpha)
    r = abs(zeta)
    theta = np.angle(zeta) if r > 0 else 0.0
    ch, sh = np.cosh(2 * r), np.sinh(2 * r)
    c, s = np.cos(theta) * sh, np.sin(theta) * sh
    cm = (1.0 + 2.0 * n_th) * np.array([[ch + c, s], [s, ch - c]])
    return np.array([2.0 * alpha.real, 2.0 * alpha.imag]), cm


def reference_coherent(alphas):
    d = np.array([x for a in alphas for x in (2.0 * a.real, 2.0 * a.imag)])
    return d, np.eye(len(d))


def reference_two_mode_squeezed(r):
    ch, sh = 2.0 * np.cosh(2 * r), 2.0 * np.sinh(2 * r)
    cm = np.array(
        [[ch, 0.0, sh, 0.0], [0.0, ch, 0.0, -sh], [sh, 0.0, ch, 0.0], [0.0, -sh, 0.0, ch]]
    )
    return np.zeros(4), cm


def reference_evolved(d0, cm0, bath, t):
    # the one-time arithmetic that evolve always had
    _, _, m, l_plus, l_minus = (a[0].item() for a in bath.stack)
    c = 2.0 * m.imag
    block = np.array([[1.0 + 2.0 * l_plus, c], [c, 1.0 + 2.0 * l_minus]])
    nu = np.zeros((4, 4))
    nu[:2, :2] = nu[2:, 2:] = block
    decay = math.exp(-bath.lam * t)
    return math.exp(-0.5 * bath.lam * t) * d0, decay * cm0 + (1.0 - decay) * nu


def per_point_state(spec, value):
    """``(d, cm)`` of one grid point, built on its own by the reference arithmetic."""
    params = {**spec.fixed, spec.axis: float(value)}
    family = spec.family
    alpha = complex(params.get("re_alpha", 0.0), params.get("im_alpha", 0.0))
    if family == "coherent":
        return reference_coherent([alpha])
    if family in ("squeezed", "squeezed_thermal"):
        return reference_squeezed_thermal(params.get("n_th", 0.0), zeta_of(params), alpha)
    bath = BathParams(params["lam"], params["n_th"], params.get("R", 0.0), params.get("phi", 0.0))
    if family == "sv_dynamics":
        d0, cm0 = reference_two_mode_squeezed(params["r"])
    else:
        parts = [[params.get(f"{p}_alpha{j}", 0.0) for p in ("re", "im")] for j in (1, 2)]
        d0, cm0 = reference_coherent([complex(re, im) for re, im in parts])
    return reference_evolved(d0, cm0, bath, params.get("t", 0.0))


def spec_for(family, axis, start, stop, count=7, **fixed):
    base = dict(BASE[family])
    if axis == "s":
        base = {}
    elif axis in CARTESIAN:
        base = {k: v for k, v in base.items() if k not in POLAR} | CARTESIAN
    base.update(fixed)
    base.pop(axis, None)
    grid = {"start": start, "stop": stop, "count": count}
    return SweepSpec.from_dict({"family": family, "axis": axis, "grid": grid, "fixed": base})


SWEEPABLE = [(family, axis) for family, axes in FAMILY_PARAMS.items() for axis in sorted(axes)]


@pytest.mark.parametrize("family, axis", SWEEPABLE)
def test_stack_item_equals_per_point_construction(family, axis):
    start = {"lam": 0.05}.get(axis, 0.0 if axis in NONNEGATIVE else -1.5)
    spec = spec_for(family, axis, start, 2.0, count=41)
    d, cm, error = _grid_states(spec, spec.grid())
    assert error is None and len(d) == len(cm) == spec.count
    for k, value in enumerate(spec.grid()):
        want_d, want_cm = per_point_state(spec, value)
        assert d[k].tobytes() == want_d.tobytes(), (family, axis, k)  # signed zeros too
        assert cm[k].tobytes() == want_cm.tobytes(), (family, axis, k)


@pytest.mark.parametrize("zeta", [0j, -0.0 + 0j, 0.9, 0.5 - 0.2j, -1.3j, 2.0 + 1.1j])
def test_one_state_constructors_keep_their_arithmetic(zeta):
    # the public constructors are the one-item stacks; they still equal the reference
    state = displaced_squeezed_thermal(0.3, zeta, -0.0 + 1j)
    want = reference_squeezed_thermal(0.3, zeta, -0.0 + 1j)
    assert (state.d.tobytes(), state.cm.tobytes()) == tuple(a.tobytes() for a in want)
    alphas = [zeta, 1j]
    state = coherent_state(alphas)
    assert state.d.tobytes() == reference_coherent(alphas)[0].tobytes()
    state = two_mode_squeezed_vacuum(abs(zeta))
    assert state.cm.tobytes() == reference_two_mode_squeezed(abs(zeta))[1].tobytes()
    bath = BathParams(lam=0.3, n_th=0.5, big_r=abs(zeta), phi=1.2)
    evolved = evolve(state, bath, 1.7)
    want = reference_evolved(state.d, state.cm, bath, 1.7)
    assert (evolved.d.tobytes(), evolved.cm.tobytes()) == tuple(a.tobytes() for a in want)


def first_error(spec, grid):
    d, cm, error = _grid_states(spec, np.array(grid))
    return len(d), str(error)


def test_second_of_two_bad_points_is_not_reported():
    spec = spec_for("squeezed_thermal", "n_th", 0.0, 1.0)
    assert first_error(spec, [0.5, -1.0, 0.5, -2.0]) == (
        1, "thermal photon number must be >= 0, got -1.0"
    )


def test_unphysical_point_before_a_failed_check_is_reported():
    # point 1's state is not finite; point 3 fails its parameter check
    spec = spec_for("squeezed_thermal", "n_th", 0.0, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        kept, message = first_error(spec, [0.5, 1e308, 0.5, -1.0])
    assert (kept, message) == (1, "n_th=1e+308: ValueError: covariance matrix is not finite")


def test_checks_of_one_point_run_in_order():
    # point 0 passes its bath check and fails the time check, which a later
    # point's failed bath check must not mask
    spec = spec_for("sv_dynamics", "lam", 0.1, 1.0, t=-1.0)
    assert first_error(spec, [0.1, -1.0]) == (0, "time must be >= 0, got -1.0")
    spec = spec_for("sv_dynamics", "lam", 0.1, 1.0)
    assert first_error(spec, [0.1, -1.0]) == (1, "damping rate must be > 0, got -1.0")


@pytest.mark.parametrize("path", FIGURES, ids=lambda path: path.stem)
def test_figure_grids_pass_the_full_check(path):
    # a sweep checks only finiteness; every state of every figure passes validate,
    # whose symmetrization leaves it byte for byte as built
    spec = SweepSpec.from_dict(json.loads(path.read_text()))
    d, cm, error = _grid_states(spec, spec.grid())
    assert error is None and len(cm) == spec.count
    sym, _, errors = validate(cm)
    assert errors == [None] * spec.count
    assert sym.tobytes() == cm.tobytes()


def overflow_scans():
    zeta = np.linspace(0.0, 360.0, 3601)
    for theta in (0.0, 1.0):
        for n_th in (0.0, 1e150):
            spec = spec_for("squeezed_thermal", "abs_zeta", 0.0, 1.0, theta=theta, n_th=n_th)
            yield pytest.param(spec, zeta, id=f"abs_zeta-theta={theta:g}-n_th={n_th:g}")
    n_th = np.logspace(-3.0, 308.0, 3111)
    yield pytest.param(spec_for("squeezed_thermal", "n_th", 0.0, 1.0), n_th, id="n_th")
    yield pytest.param(spec_for("sv_dynamics", "r", 0.0, 1.0), zeta, id="two_mode_r")


@pytest.mark.parametrize("spec, grid", overflow_scans())
def test_finiteness_check_rejects_exactly_what_validate_rejects(spec, grid):
    # scans into overflow: the one check a sweep keeps flags the points validate rejects
    with np.errstate(all="ignore"):
        _, cm, _, _ = _grid_inputs(spec, grid)
        rejected = np.array([exc is not None for exc in validate(cm)[2]])
        # some rejected states have finite entries: only cm + cm^T overflows
        assert (rejected & np.isfinite(cm).all(axis=(-2, -1))).any()
        d, _, error = _grid_states(spec, grid[~rejected])
        assert error is None and len(d) == np.count_nonzero(~rejected)
        for value in grid[rejected]:
            d, _, error = _grid_states(spec, np.array([value]))
            want = f"{spec.axis}={value:.12g}: ValueError: covariance matrix is not finite"
            assert (len(d), str(error)) == (0, want)
