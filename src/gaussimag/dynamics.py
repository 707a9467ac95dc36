"""Closed-form dissipative dynamics of two-mode Gaussian states.

Both modes couple identically to a Markovian bath with damping rate ``lam``,
thermal occupation ``n_th``, squeezing ``big_r`` and squeezing phase ``phi``.
The master equation is never integrated: its solution interpolates the
covariance matrix exponentially toward the stationary one while damping the
displacement, and those expressions are used directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import WrongModeCount
from .linalg import flag
from .measures import StackReport, _libm, measure_stack
from .states import ZERO_TOL, GaussianState, check_zero_tol, two_mode_squeezed_layout


@dataclass(frozen=True)
class BathParams:
    """Markovian bath: damping rate, thermal photon number, squeezing, phase."""

    lam: float
    n_th: float
    big_r: float = 0.0
    phi: float = 0.0
    #: this bath as a one-item ``bath_stack``
    stack: "BathStack" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        stack, errors = bath_stack([self.lam], [self.n_th], [self.big_r], [self.phi])
        if errors[0] is not None:
            raise ValueError(errors[0])
        object.__setattr__(self, "stack", stack)


class BathStack(NamedTuple):
    """B baths as (B,) arrays: damping rate, effective photon number n, squeezing
    correlation m, and l_plus = n + Re m, l_minus = n - Re m."""

    lam: np.ndarray
    n: np.ndarray
    m: np.ndarray  # complex
    l_plus: np.ndarray
    l_minus: np.ndarray


# from |R| = 200 on, N(N+1) >= sinh(R)**4 overflows; math.cosh raises from |R| ~ 710
_R_OVERFLOW = 200.0


def bath_stack(lam, n_th, big_r, phi) -> tuple[BathStack, list[str | None]]:
    """Effective photon number, squeezing correlation and their combinations of B baths.

    Takes (B,) sequences of ``BathParams``' fields.  Returns the baths and,
    per bath, None or the message of the first check it fails, in
    ``BathParams``' order; a failed bath's values are unspecified.  The
    arithmetic is that of the scalar formulas, bit for bit.
    """
    # the messages print the values as given; the arithmetic runs on floats
    given = [np.asarray(v) for v in (lam, n_th, big_r, phi)]
    lam, n_th, big_r, phi = (np.asarray(v, dtype=float) for v in given)
    with np.errstate(over="ignore", invalid="ignore"):
        # a clipped R overflows N(N+1) just as the R it replaces does
        r = np.clip(big_r, -_R_OVERFLOW, _R_OVERFLOW)
        ch, sh = _libm(math.cosh, r), _libm(math.sinh, r)
        sh2 = _libm(pow, sh, 2)
        n = n_th * (_libm(pow, ch, 2) + sh2) + sh2
        # m = f * cmath.exp(1j * phi) as complex arithmetic computes it:
        # exp(1j * phi) = (cos, sin) of 0.0 + phi, and f is (f, 0.0)
        f = -(2.0 * n_th + 1.0) * ch * sh
        angle = phi + 0.0
        cos, sin = np.cos(angle), np.sin(angle)
        m = np.empty(len(n), dtype=complex)
        m.real, m.imag = f * cos - 0.0 * sin, f * sin + 0.0 * cos
        baths = BathStack(lam, n, m, n + m.real, n - m.real)
        # |M|^2 <= N(N+1) holds identically, N(N+1) - |M|^2 = n_th(n_th+1), so
        # no derived quantity overflows before N(N+1) does
        overflow = np.isinf(n * (n + 1.0))
        n_th_overflow = np.isinf(n_th * (n_th + 1.0))
    # written so that NaN fails each check
    checks = (
        (~(lam > 0), "damping rate must be > 0, got {}", given[0]),
        (~np.isfinite(lam), "damping rate must be finite, got {}", given[0]),
        (~(n_th >= 0), "thermal photon number must be >= 0, got {}", given[1]),
        (n_th_overflow, "thermal photon number n_th={} overflows the bath photon number", given[1]),
        (np.isnan(big_r), "bath squeezing R must be a number, got {}", given[2]),
        (overflow, "bath squeezing R={} overflows the bath photon number", given[2]),
        (~np.isfinite(phi), "bath squeezing phase phi must be finite, got {}", given[3]),
    )
    errors = [None] * len(n)
    for bad, message, values in checks:
        flag(errors, bad, lambda k: message.format(values[k].item()))
    return baths, errors


def _nu_stack(baths: BathStack) -> np.ndarray:
    # stationary covariance matrices (B, 4, 4), one per bath
    lp, lm, mi = baths.l_plus, baths.l_minus, baths.m.imag
    block = np.stack((1.0 + 2.0 * lp, 2.0 * mi, 2.0 * mi, 1.0 + 2.0 * lm), axis=-1)
    out = np.zeros((len(lp), 4, 4))
    out[:, :2, :2] = out[:, 2:, 2:] = block.reshape(-1, 2, 2)
    return out


def _decay(lam: np.ndarray, times: np.ndarray) -> np.ndarray:
    # exp(-lam t), the weight of the initial covariance matrix at time t
    return _libm(math.exp, -lam * times)


def _evolved(d0: np.ndarray, cm0: np.ndarray, baths: BathStack, times: np.ndarray):
    # (d, cm) stacks: item k is initial state k at times[k] under bath k, a
    # single initial state or bath serving every item; cm interpolates toward
    # the stationary one, the displacement decays at half the rate
    if d0.shape[-1] != 4:
        raise WrongModeCount(f"bath dynamics is defined for 2 modes, got {d0.shape[-1] // 2}")
    decay = _decay(baths.lam, times)[:, None, None]
    cm = decay * cm0 + (1.0 - decay) * _nu_stack(baths)
    return _libm(math.exp, -0.5 * baths.lam * times)[:, None] * d0, cm


def evolve(state0: GaussianState, p: BathParams, t: float) -> GaussianState:
    """State at time t: cm interpolates toward the stationary one, displacement decays.

    ``t = math.inf`` gives the stationary state: zero displacement and the
    stationary covariance matrix, two identical single-mode blocks.
    """
    if not t >= 0:
        raise ValueError(f"time must be >= 0, got {t}")
    d, cm = _evolved(state0.d, state0.cm, p.stack, np.array([t], dtype=float))
    # no re-validation: a convex combination of physical covariance matrices is
    # physical, and the stationary cm is physical by the (n_th, R) parameterization
    return GaussianState._trusted(d[0], cm[0])


def _squeezed_vacuum_stack(r: float, bath: BathStack, times: np.ndarray) -> np.ndarray:
    # closed-form imaginarity of a two-mode squeezed-vacuum start at each time
    decay = _decay(bath.lam, times)
    ap = 2.0 * decay * math.cosh(2 * r) + (1.0 - decay) * (1.0 + 2.0 * bath.l_plus)
    am = 2.0 * decay * math.cosh(2 * r) + (1.0 - decay) * (1.0 + 2.0 * bath.l_minus)
    b = 2.0 * decay * math.sinh(2 * r)
    c = 2.0 * (1.0 - decay) * bath.m.imag
    ap2, am2, b2, c2 = (_libm(pow, x, 2) for x in (ap, am, b, c))
    det = (
        _libm(pow, b, 4)
        + _libm(pow, c, 4)
        + 2.0 * b2 * c2
        + ap2 * am2
        - 2.0 * ap * am * c2
        - ap2 * b2
        - am2 * b2
    )
    return 1.0 - det / ((ap2 - b2) * (am2 - b2))


def squeezed_vacuum_imaginarity(r: float, p: BathParams, t: float) -> float:
    """Closed-form imaginarity at time t for a two-mode squeezed-vacuum start."""
    return _squeezed_vacuum_stack(r, p.stack, np.array([t], dtype=float))[0].item()


def _coherent_stack(
    alphas: Sequence[complex], bath: BathStack, times: np.ndarray, zero_tol: float
) -> np.ndarray:
    # closed-form imaginarity of a two-mode coherent start at each time
    check_zero_tol(zero_tol)
    decay = _decay(bath.lam, times)
    a_plus = decay + (1.0 - decay) * (1.0 + 2.0 * bath.l_plus)
    a_minus = decay + (1.0 - decay) * (1.0 + 2.0 * bath.l_minus)
    c = 2.0 * (1.0 - decay) * bath.m.imag
    h0 = 1.0 if 2.0 * sum(abs(complex(a).imag) for a in alphas) > zero_tol else 0.0
    overlap = _libm(pow, a_plus * a_minus - _libm(pow, c, 2), 2)
    return 1.0 + h0 - overlap / (_libm(pow, a_plus, 2) * _libm(pow, a_minus, 2))


def coherent_imaginarity(
    alphas: Sequence[complex], p: BathParams, t: float, zero_tol: float = ZERO_TOL
) -> float:
    """Closed-form imaginarity at time t for a two-mode coherent start.

    The damped displacement never reaches zero at finite time, so the
    indicator term equals its initial value throughout.
    """
    return _coherent_stack(alphas, p.stack, np.array([t], dtype=float), zero_tol)[0].item()


def _detect_family(state0: GaussianState):
    """Recognize the two 2-mode initial families that have printed closed forms."""
    cm, d = state0.cm, state0.d
    if np.allclose(cm, np.eye(4), atol=ZERO_TOL):
        alphas = (complex(d[0], d[1]) / 2.0, complex(d[2], d[3]) / 2.0)
        return ("coherent", alphas)
    if float(np.abs(d).max()) <= ZERO_TOL:
        ch, sh = cm[0, 0] / 2.0, cm[0, 2] / 2.0
        pattern = two_mode_squeezed_layout(cm[0, 0], cm[0, 2])
        hyperbolic = abs(ch**2 - sh**2 - 1.0) <= 1e-9
        if ch >= 1.0 and hyperbolic and np.allclose(cm, pattern, atol=ZERO_TOL):
            return ("squeezed_vacuum", 0.5 * math.asinh(sh))
    return None


@dataclass(frozen=True)
class TrajectoryResult:
    times: np.ndarray
    #: the closed-form imaginarity at every time, None without a recognized family
    closed_form: np.ndarray | None
    family: str | None
    #: times where the numeric indicator term changed between grid points;
    #: mathematically it never flips, numerically the decayed displacement
    #: eventually underflows any threshold
    h_flip_times: tuple[float, ...]
    #: the measures of every time as arrays, item k at ``times[k]``
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
    the squeezed-vacuum or coherent family, each time also carries the
    corresponding closed-form imaginarity for dual-path comparison.

    Time k is ``times[k]``, ``closed_form[k]`` and ``stack.report(k)``.  The
    covariance-ratio measure of every time is computed here, and its first
    failure is raised here.  The fidelity and Tsallis paths run only when
    ``stack.report`` or the stack's fragile arrays are first read, so a
    caller that reads ``stack.imaginarity``, ``stack.h_term`` and
    ``closed_form`` never pays for them.
    """
    times = np.array(times, dtype=float)
    if not times.size:
        raise ValueError("need at least one time point")
    if not (np.all(times >= 0) and np.all(np.diff(times) >= 0)):
        raise ValueError("times must be sorted and nonnegative")
    # no re-validation, as in evolve: a convex combination of physical matrices is physical
    d, cm = _evolved(state0.d, state0.cm, p.stack, times)
    reports = measure_stack(d, cm, mu=mu, zero_tol=zero_tol)
    # the first covariance-ratio failure; the fragile paths stay unrun
    reports._base.raise_first()
    family, closed = None, None
    detected = _detect_family(state0)
    if detected is not None:
        family, param = detected
        if family == "squeezed_vacuum":
            closed = _squeezed_vacuum_stack(param, p.stack, times)
        else:
            closed = _coherent_stack(param, p.stack, times, zero_tol)
    flips = times[1:][np.diff(reports.h_term) != 0]
    return TrajectoryResult(
        times=times,
        closed_form=closed,
        family=family,
        h_flip_times=tuple(flips.tolist()),
        stack=reports,
    )
