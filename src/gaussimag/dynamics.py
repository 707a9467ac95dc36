"""Closed-form dissipative dynamics of two-mode Gaussian states.

Both modes couple identically to a Markovian bath with damping rate ``lam``,
thermal occupation ``n_th``, squeezing ``big_r`` and squeezing phase ``phi``.
The master equation is never integrated: its solution interpolates the
covariance matrix exponentially toward the stationary one while damping the
displacement, and those expressions are used directly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import WrongModeCount
from .measures import MeasureReport, StackReport, _libm, measure_stack
from .states import ZERO_TOL, GaussianState, check_zero_tol


@dataclass(frozen=True)
class BathParams:
    """Markovian bath: damping rate, thermal photon number, squeezing, phase."""

    lam: float
    n_th: float
    big_r: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError(f"damping rate must be > 0, got {self.lam}")
        if self.n_th < 0:
            raise ValueError(f"thermal photon number must be >= 0, got {self.n_th}")
        try:
            derived = self.derived
            # guards hand-entered parameters; the (n_th, R) parameterization
            # satisfies |M|^2 = N(N+1) - n_th(n_th+1) identically
            unphysical = abs(derived.m) ** 2 > derived.n * (derived.n + 1.0) + 1e-9
        except OverflowError:
            raise ValueError(
                f"bath squeezing R={self.big_r} overflows the bath photon number"
            ) from None
        if unphysical:
            raise ValueError("bath squeezing exceeds the physical bound |M|^2 <= N(N+1)")

    @cached_property
    def derived(self) -> "BathDerived":
        """``bath_derived`` of this bath, computed once."""
        return bath_derived(self)


class BathDerived(NamedTuple):
    n: float
    m: complex
    l_plus: float
    l_minus: float


def bath_derived(p: BathParams) -> BathDerived:
    """Effective photon number, squeezing correlation and their combinations."""
    ch, sh = math.cosh(p.big_r), math.sinh(p.big_r)
    n = p.n_th * (ch**2 + sh**2) + sh**2
    m = -(2.0 * p.n_th + 1.0) * ch * sh * cmath.exp(1j * p.phi)
    return BathDerived(n=n, m=m, l_plus=n + m.real, l_minus=n - m.real)


def _nu_stack(baths: Sequence[BathParams]) -> np.ndarray:
    # stationary covariance matrices (B, 4, 4), one per bath
    derived = np.array([(d.l_plus, d.l_minus, d.m.imag) for d in (p.derived for p in baths)])
    lp, lm, mi = derived.reshape(-1, 3).T
    block = np.stack((1.0 + 2.0 * lp, 2.0 * mi, 2.0 * mi, 1.0 + 2.0 * lm), axis=-1)
    out = np.zeros((len(baths), 4, 4))
    out[:, :2, :2] = out[:, 2:, 2:] = block.reshape(-1, 2, 2)
    return out


def nu_infinity(p: BathParams) -> np.ndarray:
    """Stationary covariance matrix: two identical single-mode blocks."""
    return _nu_stack([p])[0]


def _evolved(d0: np.ndarray, cm0: np.ndarray, baths: Sequence[BathParams], times: np.ndarray):
    # (d, cm) stacks: item k is initial state k at times[k] under baths[k], a
    # single initial state or bath serving every item; cm interpolates toward
    # nu_infinity, the displacement decays at half the rate
    if d0.shape[-1] != 4:
        raise WrongModeCount(f"bath dynamics is defined for 2 modes, got {d0.shape[-1] // 2}")
    lam = np.array([p.lam for p in baths])
    decay = _libm(math.exp, -lam * times)[:, None, None]
    cm = decay * cm0 + (1.0 - decay) * _nu_stack(baths)
    return _libm(math.exp, -0.5 * lam * times)[:, None] * d0, cm


def evolve(state0: GaussianState, p: BathParams, t: float) -> GaussianState:
    """State at time t: cm interpolates toward nu_infinity, displacement decays."""
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    d, cm = _evolved(state0.d, state0.cm, [p], np.array([t], dtype=float))
    # no re-validation: a convex combination of physical covariance matrices is
    # physical, and nu_infinity is physical by the (n_th, R) parameterization
    return GaussianState._trusted(d[0], cm[0])


def squeezed_vacuum_imaginarity(r: float, p: BathParams, t: float) -> float:
    """Closed-form imaginarity at time t for a two-mode squeezed-vacuum start."""
    d = p.derived
    decay = math.exp(-p.lam * t)
    ap = 2.0 * decay * math.cosh(2 * r) + (1.0 - decay) * (1.0 + 2.0 * d.l_plus)
    am = 2.0 * decay * math.cosh(2 * r) + (1.0 - decay) * (1.0 + 2.0 * d.l_minus)
    b = 2.0 * decay * math.sinh(2 * r)
    c = 2.0 * (1.0 - decay) * d.m.imag
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


def coherent_imaginarity(
    alphas: Sequence[complex], p: BathParams, t: float, zero_tol: float = ZERO_TOL
) -> float:
    """Closed-form imaginarity at time t for a two-mode coherent start.

    The damped displacement never reaches zero at finite time, so the
    indicator term equals its initial value throughout.
    """
    d = p.derived
    decay = math.exp(-p.lam * t)
    a_plus = decay + (1.0 - decay) * (1.0 + 2.0 * d.l_plus)
    a_minus = decay + (1.0 - decay) * (1.0 + 2.0 * d.l_minus)
    c = 2.0 * (1.0 - decay) * d.m.imag
    check_zero_tol(zero_tol)
    h0 = 1.0 if 2.0 * sum(abs(complex(a).imag) for a in alphas) > zero_tol else 0.0
    return 1.0 + h0 - (a_plus * a_minus - c**2) ** 2 / (a_plus**2 * a_minus**2)


def _detect_family(state0: GaussianState):
    """Recognize the two initial families that have printed closed forms."""
    if state0.n != 2:
        return None
    cm, d = state0.cm, state0.d
    if np.allclose(cm, np.eye(4), atol=ZERO_TOL):
        alphas = (complex(d[0], d[1]) / 2.0, complex(d[2], d[3]) / 2.0)
        return ("coherent", alphas)
    if float(np.abs(d).max()) <= ZERO_TOL:
        ch, sh = cm[0, 0] / 2.0, cm[0, 2] / 2.0
        pattern = np.array(
            [
                [2 * ch, 0.0, 2 * sh, 0.0],
                [0.0, 2 * ch, 0.0, -2 * sh],
                [2 * sh, 0.0, 2 * ch, 0.0],
                [0.0, -2 * sh, 0.0, 2 * ch],
            ]
        )
        hyperbolic = abs(ch**2 - sh**2 - 1.0) <= 1e-9
        if ch >= 1.0 and hyperbolic and np.allclose(cm, pattern, atol=ZERO_TOL):
            return ("squeezed_vacuum", 0.5 * math.asinh(sh))
    return None


@dataclass(frozen=True)
class TrajectoryPoint:
    """One time of a trajectory, a view into the trajectory's ``StackReport``."""

    t: float
    closed_form: float | None
    _stack: StackReport = field(repr=False, compare=False)
    _k: int = field(repr=False, compare=False)

    @property
    def report(self) -> MeasureReport:
        """``measure_all`` of the state at time t, built on each read.

        The first read of any point runs the fidelity and Tsallis paths of the
        whole trajectory, and raises a failure of them that is not numeric.
        """
        return self._stack.report(self._k)


@dataclass(frozen=True)
class TrajectoryResult:
    points: tuple[TrajectoryPoint, ...]
    family: str | None
    #: times where the numeric indicator term changed between grid points;
    #: mathematically it never flips, numerically the decayed displacement
    #: eventually underflows any threshold
    h_flip_times: tuple[float, ...]
    #: the measures of every point as arrays, item k at ``points[k].t``
    stack: StackReport


def trajectory(
    state0: GaussianState,
    p: BathParams,
    times: Sequence[float],
    mu: float = 0.5,
    zero_tol: float = ZERO_TOL,
) -> TrajectoryResult:
    """Measure reports along the evolution, with closed forms when recognized.

    ``times`` must be sorted and nonnegative.  When the initial state matches
    the squeezed-vacuum or coherent family, each point also carries the
    corresponding closed-form imaginarity for dual-path comparison.

    The covariance-ratio measure of every point is computed here, and its
    first failure is raised here.  The fidelity and Tsallis paths run only
    when a point's ``report`` (or the stack's fragile arrays) is first read,
    so a caller that reads ``stack.imaginarity``, ``stack.h_term`` and the
    closed forms never pays for them.
    """
    times = [float(t) for t in times]
    if not times:
        raise ValueError("need at least one time point")
    if any(t < 0 for t in times) or any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("times must be sorted and nonnegative")
    # no re-validation, as in evolve: a convex combination of physical matrices is physical
    d, cm = _evolved(state0.d, state0.cm, [p], np.array(times))
    reports = measure_stack(d, cm, mu=mu, zero_tol=zero_tol)
    # the first covariance-ratio failure; the fragile paths stay unrun
    reports._base.raise_first()
    detected = _detect_family(state0)
    points = []
    for k, t in enumerate(times):
        closed = None
        if detected is not None:
            kind, param = detected
            if kind == "squeezed_vacuum":
                closed = squeezed_vacuum_imaginarity(param, p, t)
            else:
                closed = coherent_imaginarity(param, p, t, zero_tol)
        points.append(TrajectoryPoint(t=t, closed_form=closed, _stack=reports, _k=k))
    h = reports.h_term.tolist()
    flips = tuple(times[k] for k in range(1, len(h)) if h[k] != h[k - 1])
    family = detected[0] if detected is not None else None
    return TrajectoryResult(points=tuple(points), family=family, h_flip_times=flips, stack=reports)
