import cmath
import json
import math
import struct

import numpy as np
import pytest

from gaussimag import measures
from gaussimag.cli import SweepSpec, _complex, _grid_states, main
from gaussimag.errors import NonRealResult
from gaussimag.sampling import random_state
from gaussimag.states import GaussianState, coherent_state


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def state_json(state):
    # a state in the file format that validate and measure read
    return {"n": state.n, "d": state.d.tolist(), "cm": state.cm.tolist()}


@pytest.fixture
def coherent_file(tmp_path):
    return write_json(tmp_path / "coherent.json", state_json(coherent_state([1j])))


@pytest.fixture
def sweep_spec(tmp_path):
    return write_json(
        tmp_path / "sweep.json",
        {
            "family": "coherent",
            "axis": "im_alpha",
            "grid": {"start": -2.0, "stop": 2.0, "count": 9},
            "fixed": {"re_alpha": 0.0},
            "mu": 0.5,
        },
    )


@pytest.fixture
def dynamics_spec(tmp_path):
    return write_json(
        tmp_path / "dynamics.json",
        {
            "family": "sv_dynamics",
            "axis": "t",
            "grid": {"start": 0.0, "stop": 60.0, "count": 61},
            "fixed": {"r": 1.0, "n_th": 1.5, "R": 1.0, "phi": 15.0, "lam": 0.1},
        },
    )


class TestValidate:
    def test_valid_state(self, coherent_file, capsys):
        assert main(["validate", coherent_file]) == 0
        out = capsys.readouterr().out
        assert "valid" in out
        assert "is_real=False" in out

    def test_uncertainty_violation(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "bad.json", {"n": 1, "d": [0.0, 0.0], "cm": [[0.5, 0.0], [0.0, 0.5]]}
        )
        assert main(["validate", path]) == 1
        assert "UncertaintyViolation" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2

    def test_unrecognized_schema(self, tmp_path):
        path = write_json(tmp_path / "what.json", {"foo": 1})
        assert main(["validate", path]) == 2

    def test_valid_channel(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "chan.json",
            {"n": 1, "T": [[1.0, 0.0], [0.0, 1.0]], "N": [[0.0, 0.0], [0.0, 0.0]], "d0": [0.0, 0.0]},
        )
        assert main(["validate", path]) == 0
        assert "realness=covariant_real" in capsys.readouterr().out

    def test_channel_stdout(self, tmp_path, capsys):
        obj = {"n": 1, "T": [[0.5, 0.25], [0.0, 0.5]], "N": [[1.0, 0.25], [0.25, 2.0]], "d0": [0.0, 1.5]}
        assert main(["validate", write_json(tmp_path / "chan.json", obj)]) == 0
        assert capsys.readouterr() == (
            "channel: n=1\n"
            "noise_min_eig=0.940983005625\n"
            "physicality_min_eig=0.564585653307\n"
            "realness=not_real\n"
            "valid\n",
            "",
        )

    def test_unphysical_channel(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "chan.json",
            {"n": 1, "T": [[2.0, 0.0], [0.0, 2.0]], "N": [[0.0, 0.0], [0.0, 0.0]], "d0": [0.0, 0.0]},
        )
        assert main(["validate", path]) == 1
        assert "PhysicalityViolation" in capsys.readouterr().err


class TestMeasure:
    def test_json_output(self, coherent_file, capsys):
        assert main(["measure", coherent_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["imaginarity"] == 1.0
        assert report["fidelity_imaginarity"] == pytest.approx(1 - math.exp(-2), abs=1e-10)
        assert report["tsallis_imaginarity"] == pytest.approx(1 - math.exp(-4), abs=1e-10)
        assert report["h_term"] == 1
        assert report["fidelity_error"] is None
        assert list(report) == [
            "imaginarity", "h_term", "det_cm", "det_pos_block", "det_mom_block", "zero_tol",
            "mu", "fidelity_imaginarity", "tsallis_imaginarity", "fidelity_error",
            "tsallis_error",
        ]

    def test_csv_output(self, coherent_file, capsys):
        assert main(["measure", coherent_file, "--format", "csv"]) == 0
        header, row = capsys.readouterr().out.strip().splitlines()
        assert header.startswith("imaginarity,fidelity_imaginarity,tsallis_imaginarity")
        assert float(row.split(",")[0]) == 1.0

    def test_custom_mu(self, coherent_file, capsys):
        assert main(["measure", coherent_file, "--mu", "0.25"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mu"] == 0.25

    def test_invalid_state_exits_one(self, tmp_path):
        path = write_json(
            tmp_path / "bad.json", {"n": 1, "d": [0.0, 0.0], "cm": [[0.5, 0.0], [0.0, 0.5]]}
        )
        assert main(["measure", path]) == 1

    def test_real_squeezed_all_zero(self, tmp_path, capsys):
        from gaussimag.states import displaced_squeezed_thermal

        path = write_json(tmp_path / "sq.json", state_json(displaced_squeezed_thermal(0.5, 0.9, 1.5)))
        assert main(["measure", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["imaginarity"]) <= 1e-10
        assert abs(report["fidelity_imaginarity"]) <= 1e-10
        assert abs(report["tsallis_imaginarity"]) <= 1e-10


class TestSweep:
    def test_step_function_of_coherent_family(self, sweep_spec, capsys):
        assert main(["sweep", sweep_spec]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "axis,i_gn,m_f,m_t"
        assert len(lines) == 10
        for line in lines[1:]:
            axis, ign, mf, mt = (float(x) for x in line.split(","))
            assert ign == (0.0 if axis == 0.0 else 1.0)
            assert mf == pytest.approx(1 - math.exp(-2 * axis**2), abs=1e-9)

    def test_output_file_and_byte_stability(self, sweep_spec, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", sweep_spec, "--out", str(out1)]) == 0
        assert main(["sweep", sweep_spec, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_squeezed_strength_axis(self, tmp_path, capsys):
        spec = write_json(
            tmp_path / "sq.json",
            {
                "family": "squeezed",
                "axis": "s",
                "grid": {"start": 0.0, "stop": 10.0, "count": 6},
                "fixed": {},
            },
        )
        assert main(["sweep", spec]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        for line in lines[1:]:
            s, ign, mf, mt = (float(x) for x in line.split(","))
            assert ign == pytest.approx(1 - 1 / (1 + s), abs=1e-9)
            assert mt == pytest.approx(1 - (1 + s) ** -0.5, abs=1e-9)
            if s > 0:
                assert ign > mt > mf > 0

    def test_single_point_grid_rejected(self, tmp_path, capsys):
        spec = write_json(
            tmp_path / "degenerate.json",
            {
                "family": "coherent",
                "axis": "im_alpha",
                "grid": {"start": 0.0, "stop": 0.0, "count": 1},
                "fixed": {},
            },
        )
        assert main(["sweep", spec]) == 1
        assert "count" in capsys.readouterr().err

    def test_unknown_axis_rejected(self, tmp_path):
        spec = write_json(
            tmp_path / "bad_axis.json",
            {
                "family": "coherent",
                "axis": "r",
                "grid": {"start": 0.0, "stop": 1.0, "count": 3},
                "fixed": {},
            },
        )
        assert main(["sweep", spec]) == 1

    def test_malformed_spec_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("[[[")
        assert main(["sweep", str(path)]) == 2


@pytest.mark.parametrize("command", ["validate", "measure", "sweep", "dynamics"])
class TestUnreadableInput:
    """A file that cannot be read or parsed as JSON is a parse error (exit 2)."""

    def test_missing_file(self, tmp_path, capsys, command):
        assert main([command, str(tmp_path / "nope.json")]) == 2
        assert capsys.readouterr().err.startswith("parse error:")

    def test_malformed_json(self, tmp_path, capsys, command):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err.startswith("parse error:")


def test_unwritable_out_propagates(sweep_spec, tmp_path):
    # only reading the input maps to exit 2; a failed write of --out raises
    with pytest.raises(OSError):
        main(["sweep", sweep_spec, "--out", str(tmp_path / "no_dir" / "out.csv")])


class TestBadGridValues:
    """A bad grid point is an invalid spec (exit 1), reported for the first such point."""

    def run(self, tmp_path, command, family, axis, grid, fixed):
        spec = {"family": family, "axis": axis, "grid": grid, "fixed": fixed}
        assert main([command, write_json(tmp_path / "spec.json", spec)]) == 1

    def test_negative_thermal_photon_number(self, tmp_path, capsys):
        grid = {"start": -1, "stop": 1, "count": 5}
        fixed = {"abs_zeta": 0.3, "theta": 1.0}
        self.run(tmp_path, "sweep", "squeezed_thermal", "n_th", grid, fixed)
        assert capsys.readouterr().err == (
            "invalid spec: thermal photon number must be >= 0, got -1.0\n"
        )

    @pytest.mark.parametrize("command", ["sweep", "dynamics"])
    def test_negative_time(self, tmp_path, capsys, command):
        fixed = {"r": 1.0, "n_th": 1.5, "R": 1.0, "phi": 15.0, "lam": 0.1}
        self.run(tmp_path, command, "sv_dynamics", "t", {"start": -1, "stop": 1, "count": 5}, fixed)
        assert capsys.readouterr().err == "invalid spec: time must be >= 0, got -1.0\n"

    def test_overflowing_squeezing(self, tmp_path, capsys):
        # abs_zeta 0, 100, ..., 400: cosh(2|zeta|) overflows from 300 on, and
        # the covariance-ratio measure already fails at 100; the overflow
        # raises no numpy warning, so the error line is all of stderr
        grid = {"start": 0, "stop": 400, "count": 5}
        self.run(tmp_path, "sweep", "squeezed", "abs_zeta", grid, {"theta": 1.0})
        assert capsys.readouterr().err == (
            "invalid spec: abs_zeta=100: LinAlgError: Matrix is not positive definite\n"
        )

    @pytest.mark.parametrize("command", ["sweep", "dynamics"])
    def test_overflowing_bath_squeezing(self, tmp_path, capsys, command):
        # cosh(R)**2 overflows a float long before R = 1000
        fixed = {"r": 1.0, "n_th": 1.5, "R": 1000.0, "phi": 15.0, "lam": 0.1}
        self.run(tmp_path, command, "sv_dynamics", "t", {"start": 0, "stop": 1, "count": 5}, fixed)
        assert capsys.readouterr().err == (
            "invalid spec: bath squeezing R=1000.0 overflows the bath photon number\n"
        )

    @pytest.mark.parametrize("command", ["sweep", "dynamics"])
    def test_overflowing_initial_squeezing(self, tmp_path, capsys, command):
        # cosh(800) overflows: both commands give the built initial state its one
        # check, where dynamics once failed in the eigenvalue validation
        fixed = {"r": 400.0, "n_th": 1.5, "R": 1.0, "phi": 15.0, "lam": 0.1}
        self.run(tmp_path, command, "sv_dynamics", "t", {"start": 0, "stop": 1, "count": 5}, fixed)
        where = "t=0: " if command == "sweep" else ""
        assert capsys.readouterr().err == (
            f"invalid spec: {where}ValueError: covariance matrix is not finite\n"
        )

    def test_large_physical_bath_squeezing(self, tmp_path, capsys):
        # N(N+1) - |M|^2 = n_th(n_th+1) holds exactly, but at R = 10 both sides
        # are ~6e16 and their rounding once failed a bound check
        fixed = {"r": 1.0, "n_th": 0.5, "phi": 0.3, "lam": 0.1, "t": 1.0}
        spec = {"family": "sv_dynamics", "axis": "R", "grid": {"start": 0, "stop": 10, "count": 11}}
        assert main(["sweep", write_json(tmp_path / "spec.json", {**spec, "fixed": fixed})]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == [str(k) for k in range(11)]

    def test_descending_time_grid(self, tmp_path, capsys):
        fixed = {"r": 1.0, "n_th": 1.5, "lam": 0.1}
        grid = {"start": 1, "stop": 0, "count": 3}
        self.run(tmp_path, "dynamics", "sv_dynamics", "t", grid, fixed)
        assert capsys.readouterr().err == (
            "invalid spec: ValueError: times must be sorted and nonnegative\n"
        )


class TestNonFiniteValues:
    """NaN fails each check that a bad finite value fails: exit 1, one stderr line."""

    def run(self, tmp_path, capsys, command, obj):
        assert main([command, write_json(tmp_path / "input.json", obj)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err

    @pytest.mark.parametrize("command", ["sweep", "dynamics"])
    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("lam", math.nan, "damping rate must be > 0, got nan"),
            ("lam", math.inf, "damping rate must be finite, got inf"),
            ("n_th", math.nan, "thermal photon number must be >= 0, got nan"),
            ("R", math.nan, "bath squeezing R must be a number, got nan"),
            ("phi", math.nan, "bath squeezing phase phi must be finite, got nan"),
            ("phi", math.inf, "bath squeezing phase phi must be finite, got inf"),
            ("n_th", math.inf, "thermal photon number n_th=inf overflows the bath photon number"),
            ("n_th", 1e300, "thermal photon number n_th=1e+300 overflows the bath photon number"),
        ],
    )
    def test_bath_parameter(self, tmp_path, capsys, command, key, value, message):
        fixed = {"r": 1.0, "n_th": 1.5, "R": 1.0, "phi": 15.0, "lam": 0.1, key: value}
        grid = {"start": 0, "stop": 1, "count": 5}
        spec = {"family": "sv_dynamics", "axis": "t", "grid": grid, "fixed": fixed}
        assert self.run(tmp_path, capsys, command, spec) == f"invalid spec: {message}\n"

    @pytest.mark.parametrize("command", ["sweep", "dynamics"])
    def test_time_grid(self, tmp_path, capsys, command):
        fixed = {"r": 1.0, "n_th": 1.5, "lam": 0.1}
        grid = {"start": math.nan, "stop": 1, "count": 5}
        spec = {"family": "sv_dynamics", "axis": "t", "grid": grid, "fixed": fixed}
        err = self.run(tmp_path, capsys, command, spec)
        assert err == "invalid spec: time must be >= 0, got nan\n"

    def test_fixed_time(self, tmp_path, capsys):
        fixed = {"r": 1.0, "n_th": 1.5, "lam": 0.1, "t": math.nan}
        grid = {"start": 0, "stop": 1, "count": 5}
        spec = {"family": "sv_dynamics", "axis": "phi", "grid": grid, "fixed": fixed}
        err = self.run(tmp_path, capsys, "sweep", spec)
        assert err == "invalid spec: time must be >= 0, got nan\n"

    @pytest.mark.parametrize("command", ["measure", "validate"])
    def test_state_displacement(self, tmp_path, capsys, command):
        state = {"n": 1, "d": [math.nan, 0.0], "cm": [[1.0, 0.0], [0.0, 1.0]]}
        err = self.run(tmp_path, capsys, command, state)
        assert err == "ValueError: displacement entries must be finite\n"

    @pytest.mark.parametrize("key", ["T", "N", "d0"])
    def test_channel_entry(self, tmp_path, capsys, key):
        channel = {"n": 1, "T": [[1.0, 0.0], [0.0, 1.0]], "N": [[0.0, 0.0], [0.0, 0.0]]}
        channel["d0"] = [0.0, 0.0]
        channel[key][0] = [math.nan, 0.0] if key != "d0" else math.nan
        err = self.run(tmp_path, capsys, "validate", channel)
        assert err == f"ValueError: {key} entries must be finite\n"

    def test_sweep_displacement(self, tmp_path, capsys):
        # a NaN momentum once scored as undisplaced and printed 0,0,nan,nan
        grid = {"start": 0, "stop": 1, "count": 3}
        fixed = {"im_alpha": math.nan}
        spec = {"family": "coherent", "axis": "re_alpha", "grid": grid, "fixed": fixed}
        err = self.run(tmp_path, capsys, "sweep", spec)
        assert err == "invalid spec: re_alpha=0: ValueError: displacement entries must be finite\n"

    @pytest.mark.parametrize("command", ["sweep", "dynamics"])
    def test_initial_displacement(self, tmp_path, capsys, command):
        fixed = {"re_alpha1": 1.0, "im_alpha1": math.nan, "n_th": 1.5, "lam": 0.1}
        grid = {"start": 0, "stop": 1, "count": 3}
        spec = {"family": "coherent_dynamics", "axis": "t", "grid": grid, "fixed": fixed}
        err = self.run(tmp_path, capsys, command, spec)
        reason = "ValueError: displacement entries must be finite"
        assert err == f"invalid spec: {'t=0: ' if command == 'sweep' else ''}{reason}\n"


class TestNegativeZeroTol:
    """A negative realness threshold would call every state displaced; it is rejected."""

    def test_measure_exits_1(self, tmp_path, capsys):
        path = write_json(tmp_path / "vacuum.json", state_json(coherent_state([0])))
        assert main(["measure", path, "--zero-tol", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "ValueError: zero_tol must be >= 0, got -1.0\n"

    def test_zero_is_valid(self, tmp_path, capsys):
        path = write_json(tmp_path / "vacuum.json", state_json(coherent_state([0])))
        assert main(["measure", path, "--zero-tol", "0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["imaginarity"], report["h_term"]) == (0.0, 0)

    @pytest.mark.parametrize("command", ["sweep", "dynamics"])
    def test_spec_is_invalid(self, tmp_path, capsys, command):
        spec = {
            "family": "sv_dynamics",
            "axis": "t",
            "grid": {"start": 0.0, "stop": 1.0, "count": 3},
            "fixed": {"r": 1.0, "n_th": 1.5, "lam": 0.1},
            "zero_tol": -1e-12,
        }
        assert main([command, write_json(tmp_path / "spec.json", spec)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "invalid spec: zero_tol must be >= 0, got -1e-12\n"


IDENTITY = [[1.0, 0.0], [0.0, 1.0]]
VACUUM = {"n": 1, "d": [0.0, 0.0], "cm": IDENTITY}


@pytest.mark.parametrize(
    "commands, obj, options, message",
    [
        (
            ["validate", "measure"],
            {"n": 2, "d": [0.0, 0.0], "cm": IDENTITY},
            [],
            "DimensionMismatch: declared n=2 but displacement has 2 entries",
        ),
        (
            ["validate", "measure"],
            {"n": 1, "d": [0.0, 0.0], "cm": [[1.0, 0.5], [0.0, 1.0]]},
            [],
            "AsymmetricCM: covariance matrix is not symmetric within tolerance",
        ),
        (
            ["validate", "measure"],
            {"n": 1, "d": [0.0, 0.0], "cm": [[0.5, 0.0], [0.0, 0.5]]},
            [],
            "UncertaintyViolation: uncertainty principle violated: "
            "min eig of cm + i*Delta is -5.000e-01",
        ),
        (
            ["validate", "measure"],
            {"n": 1, "d": [math.inf, 0.0], "cm": IDENTITY},
            [],
            "ValueError: displacement entries must be finite",
        ),
        (
            ["validate"],
            {"n": 1, "T": IDENTITY, "N": [[1.0, 0.5], [0.0, 1.0]], "d0": [0.0, 0.0]},
            [],
            "AsymmetricNoise: noise matrix is not symmetric within tolerance",
        ),
        (
            ["validate"],
            {"n": 1, "T": [[2.0, 0.0], [0.0, 2.0]], "N": [[0.0] * 2] * 2, "d0": [0.0, 0.0]},
            [],
            "PhysicalityViolation: "
            "channel condition N + i(Delta - T Delta T^T) has min eig -3.000e+00",
        ),
        (
            ["validate"],
            {"n": 2, "T": IDENTITY, "N": IDENTITY, "d0": [0.0, 0.0]},
            [],
            "DimensionMismatch: declared n=2 but shift has 2 entries",
        ),
        (["measure"], VACUUM, ["--mu", "1.5"], "InvalidMu: mu must be in (0, 1), got 1.5"),
        (["measure"], VACUUM, ["--zero-tol", "-1"], "ValueError: zero_tol must be >= 0, got -1.0"),
    ],
)
def test_domain_error_is_one_stderr_line(tmp_path, capsys, commands, obj, options, message):
    # an invalid state, channel or option: the error's type and message, exit 1, nothing on stdout
    path = write_json(tmp_path / "input.json", obj)
    for command in commands:
        assert main([command, path, *options]) == 1
        assert capsys.readouterr() == ("", f"{message}\n")


class TestMalformedInput:
    """A JSON file that is not the object a command reads is a parse error (exit 2)."""

    @pytest.mark.parametrize(
        "command, obj, kind",
        [
            ("measure", [1, 2], "state"),
            ("validate", {"n": 1, "T": IDENTITY, "N": IDENTITY}, "channel"),
            ("validate", {"n": 1, "cm": IDENTITY}, "state"),
            ("measure", {"n": 1, "cm": IDENTITY}, "state"),
            ("measure", {"n": 1, "d": [0.0, 0.0]}, "state"),
            ("measure", {"n": 1, "T": IDENTITY, "N": IDENTITY, "d0": [0.0, 0.0]}, "state"),
        ],
    )
    def test_is_a_parse_error(self, tmp_path, capsys, command, obj, kind):
        # each once printed a KeyError or TypeError traceback
        assert main([command, write_json(tmp_path / "input.json", obj)]) == 2
        fields = "d, cm" if kind == "state" else "T, N, d0"
        message = f"{kind} file is not a JSON object with fields {fields}"
        assert capsys.readouterr() == ("", f"parse error: {message}\n")

    @pytest.mark.parametrize(
        "command, obj, message",
        [
            ("measure", {"n": None, "d": [0.0, 0.0], "cm": IDENTITY}, "state field n is not an integer: null"),
            ("validate", {"n": None, "d": [0.0, 0.0], "cm": IDENTITY}, "state field n is not an integer: null"),
            ("measure", {"n": 1.5, "d": [0.0, 0.0], "cm": IDENTITY}, "state field n is not an integer: 1.5"),
            ("measure", {"n": "1", "d": [0.0, 0.0], "cm": IDENTITY}, 'state field n is not an integer: "1"'),
            ("measure", {"n": True, "d": [0.0, 0.0], "cm": IDENTITY}, "state field n is not an integer: true"),
            (
                "validate",
                {"n": None, "T": IDENTITY, "N": IDENTITY, "d0": [0.0, 0.0]},
                "channel field n is not an integer: null",
            ),
            (
                "measure",
                {"n": 1, "d": {"a": 1}, "cm": IDENTITY},
                "state field d is not an array of numbers: "
                "float() argument must be a string or a real number, not 'dict'",
            ),
            (
                "validate",
                {"n": 1, "d": {"a": 1}, "cm": IDENTITY},
                "state field d is not an array of numbers: "
                "float() argument must be a string or a real number, not 'dict'",
            ),
            (
                "measure",
                {"n": 1, "d": [0.0, 0.0], "cm": [[1.0, "x"], [0.0, 1.0]]},
                "state field cm is not an array of numbers: could not convert string to float: 'x'",
            ),
            (
                "validate",
                {"n": 1, "d": [0.0, 0.0], "cm": [[1.0, "x"], [0.0, 1.0]]},
                "state field cm is not an array of numbers: could not convert string to float: 'x'",
            ),
            (
                "validate",
                {"n": 1, "T": IDENTITY, "N": [[0.0, "x"], [0.0, 0.0]], "d0": [0.0, 0.0]},
                "channel field N is not an array of numbers: could not convert string to float: 'x'",
            ),
            (
                "measure",
                {"n": 1, "d": [None, 0.0], "cm": IDENTITY},
                "state field d is not an array of numbers: it holds null",
            ),
            (
                "validate",
                {"n": 1, "d": [None, 0.0], "cm": IDENTITY},
                "state field d is not an array of numbers: it holds null",
            ),
            (
                "validate",
                {"n": 1, "d": None, "cm": IDENTITY},
                "state field d is not an array of numbers: it holds null",
            ),
            (
                "validate",
                {"n": 1, "d": [0.0, 0.0], "cm": [[1.0, None], [0.0, 1.0]]},
                "state field cm is not an array of numbers: it holds null",
            ),
            (
                "validate",
                {"n": 1, "T": IDENTITY, "N": IDENTITY, "d0": [None, 0.0]},
                "channel field d0 is not an array of numbers: it holds null",
            ),
            (
                "validate",
                {"n": 1, "d": [True, 0.0], "cm": IDENTITY},
                "state field d is not an array of numbers: it holds true",
            ),
            (
                "measure",
                {"n": 1, "d": [True, 0.0], "cm": IDENTITY},
                "state field d is not an array of numbers: it holds true",
            ),
            (
                "validate",
                {"n": 1, "d": False, "cm": IDENTITY},
                "state field d is not an array of numbers: it holds false",
            ),
            (
                "measure",
                {"n": 1, "d": [0.0, 0.0], "cm": [[1.0, False], [0.0, 1.0]]},
                "state field cm is not an array of numbers: it holds false",
            ),
            (
                "validate",
                {"n": 1, "T": IDENTITY, "N": IDENTITY, "d0": [0.0, True]},
                "channel field d0 is not an array of numbers: it holds true",
            ),
        ],
    )
    def test_wrong_typed_field_is_a_parse_error(self, tmp_path, capsys, command, obj, message):
        # a null or dict field once printed a TypeError traceback, a string
        # inside cm or N a ValueError with exit 1; an n of 1.5 was read as 1;
        # a null inside an array was read as NaN (exit 1), a NaN literal still is;
        # a true or false inside an array was read as 1.0 or 0.0 (exit 0)
        assert main([command, write_json(tmp_path / "input.json", obj)]) == 2
        assert capsys.readouterr() == ("", f"parse error: {message}\n")

    def test_what_numpy_reads_as_numbers_is_read(self, tmp_path, capsys):
        # an integral float n, and a numeric string in cm (once a traceback
        # from the symmetry residual)
        obj = {"n": 1.0, "d": [0.0, 0.0], "cm": [[1.0, "0"], [0.0, 1.0]]}
        assert main(["validate", write_json(tmp_path / "input.json", obj)]) == 0
        assert capsys.readouterr().out == (
            "state: n=1\ncm_symmetry_residual=0\nuncertainty_min_eig=0\nis_real=True\nvalid\n"
        )

    def test_a_list_is_neither_state_nor_channel(self, tmp_path, capsys):
        assert main(["validate", write_json(tmp_path / "input.json", [1, 2])]) == 2
        assert capsys.readouterr().err == (
            "parse error: file is neither a state ('cm') nor a channel ('T')\n"
        )


@pytest.mark.parametrize("command", ["sweep", "dynamics"])
@pytest.mark.parametrize(
    "key, value, message",
    [
        ("mu", "x", "could not convert string to float: 'x'"),
        ("zero_tol", "x", "could not convert string to float: 'x'"),
        ("mu", None, "float() argument must be a string or a real number, not 'NoneType'"),
        ("mu", True, "mu is not a number: true"),
        ("zero_tol", False, "zero_tol is not a number: false"),
        ("grid", {"start": False, "stop": 1.0, "count": 3}, "grid start is not a number: false"),
        ("grid", {"start": 0.0, "stop": 1.0, "count": 3.7}, "grid count is not an integer: 3.7"),
        ("grid", {"start": 0.0, "stop": 1.0, "count": "3"}, 'grid count is not an integer: "3"'),
        ("grid", {"start": 0.0, "stop": 1.0, "count": True}, "grid count is not an integer: true"),
        ("grid", {"start": 0.0, "stop": 1.0, "count": math.inf}, "grid count is not an integer: Infinity"),
        ("fixed", {"r": 1.0, "n_th": 1.5, "lam": True}, "fixed lam is not a number: true"),
    ],
)
def test_non_numeric_spec_field_is_an_invalid_spec(tmp_path, capsys, command, key, value, message):
    # a non-numeric mu or zero_tol once printed a ValueError traceback, an
    # infinite count an OverflowError one; a true was read as 1.0, and a count
    # of 3.7 or "3" as 3
    spec = {
        "family": "sv_dynamics",
        "axis": "t",
        "grid": {"start": 0.0, "stop": 1.0, "count": 3},
        "fixed": {"r": 1.0, "n_th": 1.5, "lam": 0.1},
        key: value,
    }
    assert main([command, write_json(tmp_path / "spec.json", spec)]) == 1
    message = f"invalid spec: missing or malformed spec field: {message}\n"
    assert capsys.readouterr() == ("", message)


GRID = {"start": 0.0, "stop": 1.0, "count": 3}


@pytest.mark.parametrize(
    "commands, spec, message",
    [
        (
            ["sweep", "dynamics"],
            {"family": "bogus", "axis": "t", "grid": GRID},
            "unknown family 'bogus'; choose from ('coherent', 'squeezed', 'squeezed_thermal', "
            "'sv_dynamics', 'coherent_dynamics')",
        ),
        (
            ["sweep", "dynamics"],
            {"family": "coherent", "axis": "im_alpha", "grid": GRID, "fixed": {"r": 1.0}},
            "fixed parameter 'r' does not belong to family 'coherent'",
        ),
        (
            ["sweep", "dynamics"],
            {"family": "sv_dynamics", "axis": "t", "grid": GRID, "fixed": {"r": 1.0, "t": 2.0}},
            "axis 't' may not also be fixed",
        ),
        (
            ["sweep"],
            {"family": "squeezed", "axis": "s", "grid": GRID, "fixed": {"theta": 1.0}},
            "parameter 's' fixes theta=pi/2 and cannot be combined",
        ),
        (
            ["sweep"],
            {"family": "squeezed", "axis": "re_zeta", "grid": GRID, "fixed": {"abs_zeta": 1.0}},
            "give zeta either in cartesian or polar form, not both",
        ),
    ],
)
def test_inconsistent_spec_is_an_invalid_spec(tmp_path, capsys, commands, spec, message):
    path = write_json(tmp_path / "spec.json", spec)
    for command in commands:
        assert main([command, path]) == 1
        assert capsys.readouterr() == ("", f"invalid spec: {message}\n")


def test_complex_keeps_signed_zeros():
    values = [-0.0, 0.0, 1.5, -2.0]
    pairs = [(a, b) for a in values for b in values]
    got = _complex(np.array([a for a, _ in pairs]), np.array([b for _, b in pairs]))
    assert [struct.pack("<dd", z.real, z.imag) for z in got.tolist()] == [
        struct.pack("<dd", z.real, z.imag) for z in (complex(a, b) for a, b in pairs)
    ]


class TestDynamics:
    def test_dual_path_columns_agree(self, dynamics_spec, capsys):
        assert main(["dynamics", dynamics_spec]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,i_gn,i_gn_closed,h_term"
        assert len(lines) == 62
        values = []
        for line in lines[1:]:
            t, ign, closed, h = line.split(",")
            assert abs(float(ign) - float(closed)) <= 1e-9
            assert h == "0"
            values.append(float(ign))
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_coherent_family_floor(self, tmp_path, capsys):
        spec = write_json(
            tmp_path / "coh_dyn.json",
            {
                "family": "coherent_dynamics",
                "axis": "t",
                "grid": {"start": 0.0, "stop": 60.0, "count": 31},
                "fixed": {"im_alpha1": 1.0, "n_th": 1.5, "R": 1.0, "phi": 15.0, "lam": 0.1},
            },
        )
        assert main(["dynamics", spec]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        first = lines[1].split(",")
        assert float(first[1]) == 1.0
        for line in lines[1:]:
            _, ign, closed, h = line.split(",")
            assert float(ign) >= 1.0
            assert h == "1"
            assert abs(float(ign) - float(closed)) <= 1e-9

    def test_indicator_flip_noted_on_stderr(self, tmp_path, capsys):
        # coarse zero threshold: the decaying displacement crosses it in-window
        spec = write_json(
            tmp_path / "flip.json",
            {
                "family": "coherent_dynamics",
                "axis": "t",
                "grid": {"start": 0.0, "stop": 10.0, "count": 21},
                "fixed": {"im_alpha1": 1e-3, "n_th": 0.5, "R": 0.3, "phi": 1.0, "lam": 2.0},
                "zero_tol": 1e-4,
            },
        )
        assert main(["dynamics", spec]) == 0
        captured = capsys.readouterr()
        assert "indicator term flipped" in captured.err
        rows = [line.split(",") for line in captured.out.strip().splitlines()[1:]]
        assert rows[0][3] == "1" and rows[-1][3] == "0"

    def test_unrecognized_start_leaves_the_closed_form_empty(self, tmp_path, capsys):
        # at r = 10 rounding hides cosh^2 - sinh^2 = 1, so no closed form is recognized
        fixed = {"r": 10.0, "n_th": 0.5, "R": 1.0, "phi": 0.3, "lam": 0.1}
        spec = {"family": "sv_dynamics", "axis": "t", "grid": {"start": 0, "stop": 5, "count": 4}}
        assert main(["dynamics", write_json(tmp_path / "spec.json", {**spec, "fixed": fixed})]) == 0
        assert capsys.readouterr().out == (
            "t,i_gn,i_gn_closed,h_term\n0,0,,0\n1.66666666667,0,,0\n3.33333333333,0,,0\n5,0,,0\n"
        )

    def test_sweep_family_rejected(self, sweep_spec):
        assert main(["dynamics", sweep_spec]) == 1

    def test_wrong_axis_rejected(self, tmp_path):
        spec = write_json(
            tmp_path / "bad.json",
            {
                "family": "sv_dynamics",
                "axis": "phi",
                "grid": {"start": 0.0, "stop": 1.0, "count": 3},
                "fixed": {"r": 1.0, "n_th": 1.5, "R": 1.0, "lam": 0.1, "t": 1.0},
            },
        )
        assert main(["dynamics", spec]) == 1

    def test_sweep_family_rejected_message(self, sweep_spec, capsys):
        assert main(["dynamics", sweep_spec]) == 1
        assert capsys.readouterr().err == (
            "invalid spec: dynamics needs a dynamics family, got 'coherent'\n"
        )

    def test_wrong_axis_rejected_message(self, tmp_path, capsys):
        spec = {"family": "sv_dynamics", "axis": "r", "grid": {"start": 0, "stop": 1, "count": 3}}
        assert main(["dynamics", write_json(tmp_path / "axis.json", spec)]) == 1
        assert capsys.readouterr().err == "invalid spec: dynamics sweeps the axis 't', got 'r'\n"

    def test_missing_bath_parameter(self, tmp_path):
        spec = write_json(
            tmp_path / "missing.json",
            {
                "family": "sv_dynamics",
                "axis": "t",
                "grid": {"start": 0.0, "stop": 1.0, "count": 3},
                "fixed": {"r": 1.0, "n_th": 1.5, "R": 1.0},
            },
        )
        assert main(["dynamics", spec]) == 1

    def test_phi_sweep_through_sweep_command(self, tmp_path, capsys):
        spec = write_json(
            tmp_path / "phi.json",
            {
                "family": "sv_dynamics",
                "axis": "phi",
                "grid": {"start": 0.0, "stop": 4 * np.pi, "count": 17},
                "fixed": {"r": 1.0, "n_th": 1.5, "R": 1.0, "lam": 0.1, "t": 2.0},
            },
        )
        assert main(["sweep", spec]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        vals = [float(line.split(",")[1]) for line in lines[1:]]
        assert max(vals) - min(vals) > 1e-3


class TestFuzzCommand:
    def test_passing_suite(self, capsys):
        assert main(["fuzz", "--suite", "williamson", "--count", "50"]) == 0
        out = capsys.readouterr().out
        assert "failures=0" in out

    def test_unknown_suite(self, capsys):
        assert main(["fuzz", "--suite", "bogus"]) == 2

    def test_negative_tolerance_forces_failures(self, capsys):
        assert main(["fuzz", "--suite", "monotonicity", "--count", "20", "--tol", "-1"]) == 1
        out = capsys.readouterr().out
        assert "failures=0" not in out
        assert "FAIL case=0 seed=(0,0)" in out
        assert main(["fuzz", "--suite", "williamson", "--count", "10", "--tol", "-1"]) == 1
        assert "failures=10" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--seed", "-1", "argument --seed: must be >= 0, got -1"),
            ("--count", "-5", "argument --count: must be >= 0, got -5"),
            # a NaN tol once printed failures=0 worst_margin=-inf and exited 0
            ("--tol", "nan", "argument --tol: must be a number, got nan"),
            # an infinite tol once passed every case of the williamson suite, testing nothing
            ("--tol", "inf", "argument --tol: must be finite, got inf"),
        ],
    )
    def test_bad_option_is_a_usage_error(self, capsys, option, value, message):
        assert main(["fuzz", "--suite", "hierarchy", "--count", "3", option, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: gaussimag fuzz")
        assert captured.err.endswith(f"error: {message}\n")

    def test_seeded_reproducibility(self, capsys):
        assert main(["fuzz", "--suite", "faithfulness", "--count", "30", "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["fuzz", "--suite", "faithfulness", "--count", "30", "--seed", "5"]) == 0
        assert capsys.readouterr().out == first


class TestFragilePathFailures:
    """Failures of the fidelity or Tsallis path, planted in the stacked measure core."""

    def test_numeric_failure_is_a_measure_warning(self, coherent_file, capsys, monkeypatch):
        def boom(d, cm, errors):
            errors.fail(np.ones(len(errors.live), dtype=bool), lambda j: NonRealResult("synthetic failure"))
            return np.empty(0)

        monkeypatch.setattr(measures, "_fidelity_stack", boom)
        assert main(["measure", coherent_file]) == 0
        captured = capsys.readouterr()
        assert '"fidelity_imaginarity": null' in captured.out
        assert json.loads(captured.out)["tsallis_imaginarity"] is not None
        assert captured.err == "warning: fidelity path failed: NonRealResult: synthetic failure\n"

    def test_numeric_failure_is_an_empty_cell(self, sweep_spec, capsys, monkeypatch):
        assert main(["sweep", sweep_spec]) == 0
        clean = capsys.readouterr().out.splitlines()
        fidelity_stack = measures._fidelity_stack

        def fail_odd(d, cm, errors):
            d, cm = errors.fail(errors.live % 2 == 1, lambda j: NonRealResult("synthetic"), d, cm)
            return fidelity_stack(d, cm, errors)

        monkeypatch.setattr(measures, "_fidelity_stack", fail_odd)
        assert main(["sweep", sweep_spec]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = captured.out.splitlines()
        assert rows[0] == clean[0]
        for k, (row, want) in enumerate(zip(rows[1:], clean[1:])):
            cells = want.split(",")
            if k % 2:
                cells[2] = ""
            assert row == ",".join(cells)

    # |zeta| = 9.30..9.36 at theta = 1: pure states whose covariance ratio
    # still exists, while the Tsallis path fails on some of them
    SQUEEZED = {
        "family": "squeezed",
        "axis": "abs_zeta",
        "grid": {"start": 9.3, "stop": 9.36, "count": 7},
        "fixed": {"theta": 1.0},
    }

    def squeezed_states(self):
        spec = SweepSpec.from_dict(self.SQUEEZED)
        d, cm, error = _grid_states(spec, spec.grid())
        assert error is None
        return [GaussianState(*item) for item in zip(d, cm)]

    def test_indefinite_normal_form_is_a_measure_warning(self, tmp_path, capsys):
        path = write_json(tmp_path / "state.json", state_json(self.squeezed_states()[-1]))
        assert main(["measure", path]) == 0
        captured = capsys.readouterr()
        assert '"tsallis_imaginarity": null' in captured.out
        assert captured.err == (
            "warning: tsallis path failed: LinAlgError: matrix is not positive definite\n"
        )

    def test_squeezed_sweep_leaves_failed_cells_empty(self, tmp_path, capsys):
        assert main(["sweep", write_json(tmp_path / "spec.json", self.SQUEEZED)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = [row.split(",") for row in captured.out.splitlines()[1:]]
        assert [row[0] for row in rows] == ["9.3", "9.31", "9.32", "9.33", "9.34", "9.35", "9.36"]
        empty = 0
        for row, state in zip(rows, self.squeezed_states()):
            report = measures.measure_all(state)
            values = report.fidelity_imaginarity, report.tsallis_imaginarity
            for cell, value in zip(row[2:], values):
                assert cell == ("" if value is None else "%.12g" % value)
                empty += value is None
        assert empty > 0

    def test_non_finite_tsallis_value_is_an_empty_cell(self, tmp_path, capsys):
        # squeezed thermal states at n_th = 1e15 and 1e16, where the Tsallis value
        # of the second is not finite
        spec = {
            "family": "squeezed_thermal",
            "axis": "n_th",
            "grid": {"start": 1e15, "stop": 1e16, "count": 2},
            "fixed": {"abs_zeta": 0.3, "theta": 1.0},
        }
        assert main(["sweep", write_json(tmp_path / "spec.json", spec)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[1:] == [
            "1e+15,0.223000327401,0.11852415087,0.206671735783",
            "1e+16,0.223000327401,0.11852415087,",
        ]

    def test_rescued_chain_failure_is_measured(self, tmp_path, capsys):
        # the fidelity chain fails this state; the spectral stage gives its value
        state = random_state(2, np.random.default_rng([7, 2, 424]), max_squeeze=2.0)
        assert main(["measure", write_json(tmp_path / "state.json", state_json(state))]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        assert report["fidelity_imaginarity"] is not None
        assert report["fidelity_error"] is None

    def test_squeezed_sweep_fills_rescued_fidelity_cells(self, tmp_path, capsys):
        # the chain fails at |zeta| = 9.30, 9.31 and 9.33; the spectral stage
        # fills those cells, and they match the single-mode closed form
        assert main(["sweep", write_json(tmp_path / "spec.json", self.SQUEEZED)]) == 0
        rows = {row.split(",")[0]: row.split(",") for row in capsys.readouterr().out.splitlines()}
        for abs_zeta in (9.30, 9.31, 9.33):
            cell = rows["%.12g" % abs_zeta][2]
            want = measures.fidelity_imaginarity_single_mode(0.0, abs_zeta * cmath.exp(1j), 0.0)
            assert abs(float(cell) - want) <= 1e-11


class TestRepeatedCalls:
    """One parser serves every call in a process; no option leaks into the next call."""

    def test_out_does_not_leak(self, sweep_spec, tmp_path, capsys):
        out = tmp_path / "a.csv"
        assert main(["sweep", sweep_spec, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(["sweep", sweep_spec]) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_mu_does_not_leak(self, coherent_file, capsys):
        assert main(["measure", coherent_file, "--mu", "0.3"]) == 0
        assert json.loads(capsys.readouterr().out)["mu"] == 0.3
        assert main(["measure", coherent_file]) == 0
        assert json.loads(capsys.readouterr().out)["mu"] == 0.5


class TestUsageErrors:
    def test_no_command(self):
        assert main([]) == 2

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2
