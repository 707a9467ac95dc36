import json
import math

import numpy as np
import pytest

from gaussimag import measures
from gaussimag.cli import main
from gaussimag.errors import NonRealResult
from gaussimag.states import coherent_state


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def coherent_file(tmp_path):
    return write_json(tmp_path / "coherent.json", coherent_state([1j]).to_dict())


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

        path = write_json(tmp_path / "sq.json", displaced_squeezed_thermal(0.5, 0.9, 1.5).to_dict())
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

    def test_descending_time_grid(self, tmp_path, capsys):
        fixed = {"r": 1.0, "n_th": 1.5, "lam": 0.1}
        grid = {"start": 1, "stop": 0, "count": 3}
        self.run(tmp_path, "dynamics", "sv_dynamics", "t", grid, fixed)
        assert capsys.readouterr().err == (
            "invalid spec: ValueError: times must be sorted and nonnegative\n"
        )


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
            return np.empty(0), np.empty(0)

        monkeypatch.setattr(measures, "_fidelity_stack", boom)
        assert main(["measure", coherent_file]) == 0
        captured = capsys.readouterr()
        assert '"fidelity_imaginarity": null' in captured.out
        assert json.loads(captured.out)["tsallis_imaginarity"] is not None
        assert captured.err == "warning: fidelity path failed: NonRealResult: synthetic failure\n"

    @pytest.fixture
    def failing_tsallis(self, monkeypatch):
        # the last item of each stack fails the Tsallis path with an error that is not numeric
        tsallis_stack = measures._tsallis_stack

        def fail_last(d, cm, mu, errors):
            last = errors.live == len(errors.errors) - 1
            d, cm = errors.fail(last, lambda j: ValueError("synthetic failure"), d, cm)
            return tsallis_stack(d, cm, mu, errors)

        monkeypatch.setattr(measures, "_tsallis_stack", fail_last)

    def test_non_numeric_failure_raises_from_measure_all(self, failing_tsallis):
        with pytest.raises(ValueError, match="synthetic failure"):
            measures.measure_all(coherent_state([1j]))

    def test_non_numeric_failure_is_an_invalid_spec(self, failing_tsallis, sweep_spec, capsys):
        assert main(["sweep", sweep_spec]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "invalid spec: im_alpha=2: ValueError: synthetic failure\n"


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
