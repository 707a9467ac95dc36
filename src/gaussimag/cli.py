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
from dataclasses import dataclass

import numpy as np

from . import fuzz
from .channels import GaussianChannel, classify_real
from .dynamics import BathParams, evolve, trajectory
from .errors import InvalidMu
from .linalg import symplectic_form
from .measures import measure_all, measure_stack
from .states import GaussianState, arrays_from_dict, coherent_state, displaced_squeezed_thermal
from .states import two_mode_squeezed_vacuum

FAMILIES = ("coherent", "squeezed", "squeezed_thermal", "sv_dynamics", "coherent_dynamics")

FAMILY_PARAMS = {
    "coherent": {"re_alpha", "im_alpha"},
    "squeezed": {"theta", "abs_zeta", "s", "re_zeta", "im_zeta"},
    "squeezed_thermal": {"n_th", "theta", "abs_zeta", "re_zeta", "im_zeta", "re_alpha", "im_alpha"},
    "sv_dynamics": {"r", "n_th", "R", "phi", "lam", "t"},
    "coherent_dynamics": {
        "re_alpha1", "im_alpha1", "re_alpha2", "im_alpha2", "n_th", "R", "phi", "lam", "t",
    },
}


class SpecError(ValueError):
    """Sweep/dynamics spec file is structurally or semantically invalid."""


def _fmt_json(value) -> str:
    # floats with 17 significant digits for exact round-trip
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, dict):
        items = ", ".join(f"{json.dumps(k)}: {_fmt_json(v)}" for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt_json(v) for v in value) + "]"
    return json.dumps(value)


def _fmt_csv(value) -> str:
    if value is None:
        return ""
    return format(float(value), ".12g")


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
        try:
            family = obj["family"]
            axis = obj["axis"]
            grid = obj["grid"]
            start, stop, count = float(grid["start"]), float(grid["stop"]), int(grid["count"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError(f"missing or malformed spec field: {exc}") from exc
        if family not in FAMILIES:
            raise SpecError(f"unknown family {family!r}; choose from {FAMILIES}")
        if count < 2:
            raise SpecError(f"grid count must be >= 2, got {count}")
        allowed = FAMILY_PARAMS[family]
        if axis not in allowed:
            raise SpecError(f"axis {axis!r} does not belong to family {family!r}")
        fixed = dict(obj.get("fixed", {}))
        for key in fixed:
            if key not in allowed:
                raise SpecError(f"fixed parameter {key!r} does not belong to family {family!r}")
        if axis in fixed:
            raise SpecError(f"axis {axis!r} may not also be fixed")
        mu = float(obj.get("mu", 0.5))
        if not 0.0 < mu < 1.0:
            raise SpecError(f"mu must be in (0, 1), got {mu}")
        return cls(
            family=family,
            axis=axis,
            start=start,
            stop=stop,
            count=count,
            fixed=fixed,
            mu=mu,
            zero_tol=float(obj.get("zero_tol", 1e-12)),
        )

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


def _squeezed_zeta(params: dict) -> complex:
    if "s" in params:
        if any(k in params for k in ("theta", "abs_zeta", "re_zeta", "im_zeta")):
            raise SpecError("parameter 's' fixes theta=pi/2 and cannot be combined")
        s = params["s"]
        if s < 0:
            raise SpecError(f"s must be >= 0, got {s}")
        return 1j * 0.5 * math.asinh(math.sqrt(s))
    if "re_zeta" in params or "im_zeta" in params:
        if "theta" in params or "abs_zeta" in params:
            raise SpecError("give zeta either in cartesian or polar form, not both")
        return complex(params.get("re_zeta", 0.0), params.get("im_zeta", 0.0))
    r = params.get("abs_zeta", 0.0)
    theta = params.get("theta", 0.0)
    return r * complex(math.cos(theta), math.sin(theta))


def _state_for_point(spec: SweepSpec, value: float) -> GaussianState:
    params = dict(spec.fixed)
    params[spec.axis] = float(value)
    family = spec.family
    if family == "coherent":
        return coherent_state([complex(params.get("re_alpha", 0.0), params.get("im_alpha", 0.0))])
    if family == "squeezed":
        return displaced_squeezed_thermal(0.0, _squeezed_zeta(params), 0.0)
    if family == "squeezed_thermal":
        alpha = complex(params.get("re_alpha", 0.0), params.get("im_alpha", 0.0))
        zeta = _squeezed_zeta({k: v for k, v in params.items() if k not in ("n_th", "re_alpha", "im_alpha")})
        return displaced_squeezed_thermal(params.get("n_th", 0.0), zeta, alpha)
    bath, t = _bath_and_time(params)
    return evolve(_dynamics_initial(family, params), bath, t)


def _bath_and_time(params: dict) -> tuple[BathParams, float]:
    try:
        bath = BathParams(
            lam=float(params["lam"]),
            n_th=float(params["n_th"]),
            big_r=float(params.get("R", 0.0)),
            phi=float(params.get("phi", 0.0)),
        )
    except KeyError as exc:
        raise SpecError(f"dynamics family needs parameter {exc}") from exc
    except ValueError as exc:
        raise SpecError(str(exc)) from exc
    t = float(params.get("t", 0.0))
    if t < 0:
        raise SpecError(f"time must be >= 0, got {t}")
    return bath, t


def _dynamics_initial(family: str, params: dict) -> GaussianState:
    if family == "sv_dynamics":
        try:
            return two_mode_squeezed_vacuum(float(params["r"]))
        except KeyError as exc:
            raise SpecError(f"sv_dynamics needs parameter {exc}") from exc
    alphas = [
        complex(params.get("re_alpha1", 0.0), params.get("im_alpha1", 0.0)),
        complex(params.get("re_alpha2", 0.0), params.get("im_alpha2", 0.0)),
    ]
    return coherent_state(alphas)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_lines(lines: list[str], out: str | None):
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def cmd_validate(args) -> int:
    try:
        obj = _load_json(args.path)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    if not isinstance(obj, dict) or not ("cm" in obj or "T" in obj):
        print("parse error: file is neither a state ('cm') nor a channel ('T')", file=sys.stderr)
        return 2
    kind = "state" if "cm" in obj else "channel"
    try:
        if kind == "state":
            state, min_eig = GaussianState.checked(*arrays_from_dict(obj))
            sym = float(np.abs(np.asarray(obj["cm"]) - np.asarray(obj["cm"]).T).max())
            print(f"state: n={state.n}")
            print(f"cm_symmetry_residual={_fmt_csv(sym)}")
            print(f"uncertainty_min_eig={_fmt_csv(min_eig)}")
            print(f"is_real={state.is_real()}")
        else:
            channel = GaussianChannel.from_dict(obj)
            delta = symplectic_form(channel.n)
            cond = channel.noise + 1j * (delta - channel.t @ delta @ channel.t.T)
            print(f"channel: n={channel.n}")
            print(f"noise_min_eig={_fmt_csv(float(np.linalg.eigvalsh(channel.noise).min()))}")
            print(f"physicality_min_eig={_fmt_csv(float(np.linalg.eigvalsh(cond).min()))}")
            print(f"realness={classify_real(channel).value}")
    except ValueError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print("valid")
    return 0


def cmd_measure(args) -> int:
    try:
        obj = _load_json(args.path)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    try:
        state = GaussianState.from_dict(obj)
        report = measure_all(state, mu=args.mu, zero_tol=args.zero_tol)
    except (ValueError, InvalidMu) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
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


def _load_spec(path: str) -> SweepSpec | int:
    try:
        obj = _load_json(path)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    try:
        return SweepSpec.from_dict(obj)
    except SpecError as exc:
        print(f"invalid spec: {exc}", file=sys.stderr)
        return 1


def cmd_sweep(args) -> int:
    spec = _load_spec(args.spec)
    if isinstance(spec, int):
        return spec
    grid = spec.grid()
    try:
        states = [_state_for_point(spec, value) for value in grid]
    except SpecError as exc:
        print(f"invalid spec: {exc}", file=sys.stderr)
        return 1
    reports = measure_stack(
        np.stack([s.d for s in states]), np.stack([s.cm for s in states]), spec.mu, spec.zero_tol
    )
    lines = ["axis,i_gn,m_f,m_t"]
    for k, value in enumerate(grid):
        r = reports.report(k)
        cells = (value, r.imaginarity, r.fidelity_imaginarity, r.tsallis_imaginarity)
        lines.append(",".join(_fmt_csv(c) for c in cells))
    _write_lines(lines, args.out)
    return 0


def cmd_dynamics(args) -> int:
    spec = _load_spec(args.spec)
    if isinstance(spec, int):
        return spec
    if spec.family not in ("sv_dynamics", "coherent_dynamics"):
        print(f"invalid spec: dynamics needs a dynamics family, got {spec.family!r}", file=sys.stderr)
        return 1
    if spec.axis != "t":
        print(f"invalid spec: dynamics sweeps the axis 't', got {spec.axis!r}", file=sys.stderr)
        return 1
    try:
        bath, _ = _bath_and_time(spec.fixed)
        state0 = _dynamics_initial(spec.family, spec.fixed)
    except SpecError as exc:
        print(f"invalid spec: {exc}", file=sys.stderr)
        return 1
    result = trajectory(state0, bath, spec.grid(), mu=spec.mu, zero_tol=spec.zero_tol)
    lines = ["t,i_gn,i_gn_closed,h_term"]
    for point in result.points:
        lines.append(
            ",".join(
                [
                    _fmt_csv(point.t),
                    _fmt_csv(point.report.imaginarity),
                    _fmt_csv(point.closed_form),
                    str(point.report.h_term),
                ]
            )
        )
    _write_lines(lines, args.out)
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
    p.add_argument("--zero-tol", type=float, default=1e-12, dest="zero_tol")
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_fuzz)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; normalize the contract
        return 2 if exc.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
