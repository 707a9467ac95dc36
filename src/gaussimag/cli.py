"""Command-line front end.

Subcommands: ``validate`` a state/channel file, ``measure`` a state file,
``sweep`` a parameter grid to CSV, ``dynamics`` a time trajectory to CSV,
``fuzz`` one of the randomized property suites.

Exit codes: 0 success, 1 domain failure (invalid input or violated property),
2 usage/parse error.  CSV uses 12 significant digits, JSON 17.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import defaultdict
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import fuzz
from .channels import GaussianChannel, classify_real
from .dynamics import BathParams, BathStack, _evolved, bath_stack, trajectory
from .errors import DimensionMismatch
from .linalg import flag
from .measures import _check_mu, _describe, _libm, measure_all, measure_stack
from .states import ZERO_TOL, GaussianState, _built, _finite_faults, check_zero_tol
from .states import coherent_stack, squeezed_thermal_stack, two_mode_squeezed_stack

FAMILY_PARAMS = {
    "coherent": {"re_alpha", "im_alpha"},
    "squeezed": {"theta", "abs_zeta", "s", "re_zeta", "im_zeta"},
    "squeezed_thermal": {"n_th", "theta", "abs_zeta", "re_zeta", "im_zeta", "re_alpha", "im_alpha"},
    "sv_dynamics": {"r", "n_th", "R", "phi", "lam", "t"},
    "coherent_dynamics": {
        "re_alpha1", "im_alpha1", "re_alpha2", "im_alpha2", "n_th", "R", "phi", "lam", "t",
    },
}

FAMILIES = tuple(FAMILY_PARAMS)
# the spec parameters of a bath, in BathParams' order
BATH_KEYS = ("lam", "n_th", "R", "phi")


class SpecError(ValueError):
    """Sweep/dynamics spec file is structurally or semantically invalid."""


class _ParseError(Exception):
    """An input file could not be read or is not what the command expects (exit 2)."""


def _fmt_json(value) -> str:
    # floats with 17 significant digits for exact round-trip
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, dict):
        items = ", ".join(f"{json.dumps(k)}: {_fmt_json(v)}" for k, v in value.items())
        return "{" + items + "}"
    return json.dumps(value)


def _fmt_csv(value) -> str:
    if value is None:
        return ""
    return format(float(value), ".12g")


def _is_number(value, integer: bool = False) -> bool:
    # a JSON value that float() or numpy has read is a number (an integer, if
    # asked) unless it is true or false, which both read as 1 and 0
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        return False
    return not integer or isinstance(value, int) or isinstance(value, float) and value.is_integer()


@dataclass(frozen=True)
class SweepSpec:
    family: str
    axis: str
    start: float
    stop: float
    count: int
    fixed: dict
    mu: float
    zero_tol: float

    @classmethod
    def from_dict(cls, obj: dict) -> "SweepSpec":
        def number(name, value):
            read = float(value)  # names the fault of a null or a non-numeric string
            if not _is_number(value):
                raise TypeError(f"{name} is not a number: {json.dumps(value)}")
            return read

        try:
            family, axis, grid = obj["family"], obj["axis"], obj["grid"]
            start, stop = number("grid start", grid["start"]), number("grid stop", grid["stop"])
            if not _is_number(count := grid["count"], integer=True):
                raise TypeError(f"grid count is not an integer: {json.dumps(count)}")
            fixed = {k: number(f"fixed {k}", v) for k, v in dict(obj.get("fixed", {})).items()}
            mu = number("mu", obj.get("mu", 0.5))
            zero_tol = number("zero_tol", obj.get("zero_tol", ZERO_TOL))
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError(f"missing or malformed spec field: {exc}") from exc
        if family not in FAMILIES:
            raise SpecError(f"unknown family {family!r}; choose from {FAMILIES}")
        if count < 2:
            raise SpecError(f"grid count must be >= 2, got {count}")
        allowed = FAMILY_PARAMS[family]
        if axis not in allowed:
            raise SpecError(f"axis {axis!r} does not belong to family {family!r}")
        for key in fixed:
            if key not in allowed:
                raise SpecError(f"fixed parameter {key!r} does not belong to family {family!r}")
        if axis in fixed:
            raise SpecError(f"axis {axis!r} may not also be fixed")
        try:
            _check_mu(mu)
            check_zero_tol(zero_tol)
        except ValueError as exc:
            raise SpecError(str(exc)) from exc
        return cls(family, axis, start, stop, int(count), fixed, mu, zero_tol)

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


def _at_point(spec: SweepSpec, value: float, exc: Exception) -> str:
    return f"{spec.axis}={_fmt_csv(value)}: {_describe(exc)}"


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    # complex(re, im) item by item: re + 1j * im would turn a real part -0.0 into 0.0
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _grid_baths(spec: SweepSpec, p: dict, given: set, points: int) -> tuple[BathStack, list]:
    # the baths of the points and their messages, one bath when the axis is not a bath parameter
    for key in ("lam", "n_th"):
        if key not in given:
            raise SpecError(f"dynamics family needs parameter {key!r}")
    count = points if spec.axis in BATH_KEYS else 1
    baths, failed = bath_stack(*(p[k][:count] for k in BATH_KEYS))
    return baths, failed * (points // count)  # a single bath's check holds at every point


def _grid_inputs(spec: SweepSpec, grid: np.ndarray):
    """``(d, cm, dynamics, errors)`` of the grid points, checked as one-point specs are.

    ``d`` and ``cm`` stack the states, or the initial states that ``dynamics = (baths,
    times)`` evolve; ``errors[k]`` is the message of point k's first failed check.
    """
    given = {*spec.fixed, spec.axis}
    fixed = {k: np.full_like(grid, v) for k, v in spec.fixed.items()}
    p = defaultdict(lambda: np.zeros_like(grid), fixed, **{spec.axis: grid})
    errors = [None] * len(grid)
    alpha = _complex(p["re_alpha"], p["im_alpha"])
    if spec.family == "coherent":
        return *coherent_stack(alpha[:, None]), None, errors
    if spec.family.endswith("_dynamics"):
        baths, errors = _grid_baths(spec, p, given, len(grid))
        flag(errors, ~(p["t"] >= 0), lambda k: f"time must be >= 0, got {p['t'][k]}")
        if spec.family == "sv_dynamics":
            missing = np.full(len(grid), "r" not in given)
            flag(errors, missing, lambda _: "sv_dynamics needs parameter 'r'")
            return *two_mode_squeezed_stack(p["r"]), (baths, p["t"]), errors
        alphas = np.stack([_complex(p[f"re_alpha{j}"], p[f"im_alpha{j}"]) for j in (1, 2)], axis=-1)
        return *coherent_stack(alphas), (baths, p["t"]), errors
    if "s" in given:
        if given & {"theta", "abs_zeta", "re_zeta", "im_zeta"}:
            raise SpecError("parameter 's' fixes theta=pi/2 and cannot be combined")
        flag(errors, p["s"] < 0, lambda k: f"s must be >= 0, got {p['s'][k]}")
        zeta = 1j * 0.5 * _libm(math.asinh, np.sqrt(np.maximum(p["s"], 0.0)))
    elif given & {"re_zeta", "im_zeta"}:
        if given & {"theta", "abs_zeta"}:
            raise SpecError("give zeta either in cartesian or polar form, not both")
        zeta = _complex(p["re_zeta"], p["im_zeta"])
    else:
        zeta = p["abs_zeta"] * _complex(np.cos(p["theta"]), np.sin(p["theta"]))
    n_th = p["n_th"]
    flag(errors, n_th < 0, lambda k: f"thermal photon number must be >= 0, got {n_th[k]}")
    return *squeezed_thermal_stack(n_th, zeta, alpha), None, errors


def _grid_states(spec: SweepSpec, grid: np.ndarray):
    """Physical ``(d, cm)`` stacks of the longest valid grid prefix and the SpecError ending it."""
    d, cm, dynamics, errors = _grid_inputs(spec, grid)
    for fault, bad in _finite_faults(d, cm).items():
        flag(errors, bad, lambda k: _at_point(spec, grid[k], ValueError(fault)))
    keep = next((k for k, exc in enumerate(errors) if exc), len(grid))
    d, cm = d[:keep], cm[:keep]
    if dynamics is not None:  # evolution keeps a state physical
        baths, times = dynamics
        d, cm = _evolved(d, cm, BathStack._make(a[:keep] for a in baths), times[:keep])
    return d, cm, SpecError(errors[keep]) if keep < len(grid) else None


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _ParseError(exc) from exc


# each file kind: its array fields, and the vector a declared mode count n sizes, with its name
_FILES = {"state": (("d", "cm"), "d", "displacement"), "channel": (("T", "N", "d0"), "d0", "shift")}


def _fields(obj, kind: str) -> dict:
    # obj with the fields of kind read as float arrays, once it is a JSON object
    # holding every one of them and any declared mode count n is an integer sizing its vector
    keys, vector, noun = _FILES[kind]
    if not (isinstance(obj, dict) and all(key in obj for key in keys)):
        raise _ParseError(f"{kind} file is not a JSON object with fields {', '.join(keys)}")
    if not _is_number(n := obj.get("n", 0), integer=True):
        raise _ParseError(f"{kind} field n is not an integer: {json.dumps(n)}")
    arrays = {}
    for key in keys:
        fault = f"{kind} field {key} is not an array of numbers"
        try:
            arrays[key] = np.asarray(obj[key], dtype=float)
        except (TypeError, ValueError) as exc:
            raise _ParseError(f"{fault}: {exc}") from exc
        # numpy reads null, true and false as NaN, 1.0 and 0.0
        if held := [x for x in np.asarray(obj[key], dtype=object).flat if not _is_number(x)]:
            raise _ParseError(f"{fault}: it holds {json.dumps(held[0])}")
    if "n" in obj and 2 * int(n) != arrays[vector].size:
        raise DimensionMismatch(f"declared n={n} but {noun} has {arrays[vector].size} entries")
    return {**obj, **arrays}


def _write_lines(lines: list[str], out: str | None):
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def cmd_validate(args) -> int:
    obj = _load_json(args.path)
    if not isinstance(obj, dict) or not ("cm" in obj or "T" in obj):
        raise _ParseError("file is neither a state ('cm') nor a channel ('T')")
    if "cm" in obj:
        obj = _fields(obj, "state")
        state, min_eig = GaussianState.checked(obj["d"], obj["cm"])
        sym = float(np.abs(obj["cm"] - obj["cm"].T).max())
        print(f"state: n={state.n}")
        print(f"cm_symmetry_residual={_fmt_csv(sym)}")
        print(f"uncertainty_min_eig={_fmt_csv(min_eig)}")
        print(f"is_real={state.is_real()}")
    else:
        obj = _fields(obj, "channel")
        channel, noise_min, condition_min = GaussianChannel.checked(obj["T"], obj["N"], obj["d0"])
        print(f"channel: n={channel.n}")
        print(f"noise_min_eig={_fmt_csv(noise_min)}")
        print(f"physicality_min_eig={_fmt_csv(condition_min)}")
        print(f"realness={classify_real(channel).value}")
    print("valid")
    return 0


def cmd_measure(args) -> int:
    obj = _fields(_load_json(args.path), "state")
    state = GaussianState(obj["d"], obj["cm"])
    report = measure_all(state, mu=args.mu, zero_tol=args.zero_tol)
    if args.format == "json":
        print(_fmt_json(report.to_dict()))
    else:
        keys = [
            "imaginarity", "fidelity_imaginarity", "tsallis_imaginarity", "mu",
            "h_term", "det_cm", "det_pos_block", "det_mom_block", "zero_tol",
        ]
        data = report.to_dict()
        print(",".join(keys))
        print(",".join(_fmt_csv(data[k]) for k in keys))
    for label, err in (("fidelity", report.fidelity_error), ("tsallis", report.tsallis_error)):
        if err is not None:
            print(f"warning: {label} path failed: {err}", file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    spec = SweepSpec.from_dict(_load_json(args.spec))
    grid = spec.grid()
    lines = ["axis,i_gn,m_f,m_t"]
    d, cm, error = _grid_states(spec, grid)
    reports = measure_stack(d, cm, spec.mu, spec.zero_tol)
    columns = (reports.imaginarity, reports.fidelity_imaginarity, reports.tsallis_imaginarity)
    rows = zip(grid[: len(d)].tolist(), *(c.tolist() for c in columns))
    for row, failed in zip(rows, reports.failures):
        if not any(failed):
            lines.append("%.12g,%.12g,%.12g,%.12g" % row)
            continue
        # a covariance-ratio failure ends the sweep; a fidelity or Tsallis one leaves its cell empty
        if failed[0] is not None:
            raise SpecError(_at_point(spec, row[0], failed[0])) from failed[0]
        row = row[:2] + tuple(None if exc else v for v, exc in zip(row[2:], failed[1:]))
        lines.append(",".join(_fmt_csv(c) for c in row))
    if error is not None:
        raise error
    _write_lines(lines, args.out)
    return 0


def cmd_dynamics(args) -> int:
    spec = SweepSpec.from_dict(_load_json(args.spec))
    if spec.family not in ("sv_dynamics", "coherent_dynamics"):
        raise SpecError(f"dynamics needs a dynamics family, got {spec.family!r}")
    if spec.axis != "t":
        raise SpecError(f"dynamics sweeps the axis 't', got {spec.axis!r}")
    grid = spec.grid()
    d, cm, _, errors = _grid_inputs(spec, grid)
    if any(errors):
        raise SpecError(next(filter(None, errors)))
    # the initial state and the bath do not depend on t; the bath passed its checks
    bath = BathParams(*(spec.fixed.get(k, 0.0) for k in BATH_KEYS))
    try:
        state0 = _built(lambda: (d[:1], cm[:1]))
        result = trajectory(state0, bath, grid, mu=spec.mu, zero_tol=spec.zero_tol)
    except ValueError as exc:
        raise SpecError(_describe(exc)) from exc
    # covariance-ratio arrays only: the fidelity and Tsallis paths never run
    columns = [result.times, result.stack.imaginarity, result.closed_form, result.stack.h_term]
    fmt = "%.12g,%.12g,%.12g,%d"
    if result.closed_form is None:
        fmt = "%.12g,%.12g,,%d"
        del columns[2]
    rows = zip(*(c.tolist() for c in columns))
    _write_lines(["t,i_gn,i_gn_closed,h_term", *(fmt % row for row in rows)], args.out)
    for t in result.h_flip_times:
        print(
            f"note: indicator term flipped near t={_fmt_csv(t)} "
            "(decayed displacement crossed zero_tol)",
            file=sys.stderr,
        )
    return 0


def cmd_fuzz(args) -> int:
    if args.suite not in fuzz.SUITES:
        print(f"unknown suite {args.suite!r}; choose from {fuzz.SUITES}", file=sys.stderr)
        return 2
    result = fuzz.run_suite(args.suite, seed=args.seed, count=args.count, tol=args.tol)
    print(result.summary())
    return 0 if result.failures == 0 else 1


def _non_negative_int(text: str) -> int:
    if (value := int(text)) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _tolerance(text: str) -> float:
    # a NaN margin never counts as a failure, and an infinite tol moves every margin to +-inf
    if math.isnan(value := float(text)):
        raise argparse.ArgumentTypeError(f"must be a number, got {text}")
    if math.isinf(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussimag",
        description="Imaginarity measures for Gaussian states: validate, measure, sweep, evolve, fuzz.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a state or channel JSON file")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("measure", help="evaluate all measures on a state JSON file")
    p.add_argument("path")
    p.add_argument("--mu", type=float, default=0.5)
    p.add_argument("--zero-tol", type=float, default=ZERO_TOL, dest="zero_tol")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("sweep", help="evaluate the measures over a parameter grid")
    p.add_argument("spec")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("dynamics", help="evaluate a bath trajectory with its closed form")
    p.add_argument("spec")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_dynamics)

    p = sub.add_parser("fuzz", help="run a randomized property suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--count", type=_non_negative_int, default=1000)
    p.add_argument("--tol", type=_tolerance, default=None)
    p.set_defaults(func=cmd_fuzz)
    return parser


# one parser per process: parse_args returns a fresh namespace on every call
_parser = cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; normalize the contract
        return 2 if exc.code not in (0, None) else 0
    try:
        # an overflowing grid is reported as an invalid spec, not as numpy warnings
        with np.errstate(all="ignore"):
            return args.func(args)
    except _ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except SpecError as exc:
        print(f"invalid spec: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # an invalid state, channel or option value
        print(_describe(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
