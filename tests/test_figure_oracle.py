"""Sampled figure cells against the mpmath oracle, under the print-step rule.

Every ``STRIDE``-th data row of each figure spec is rebuilt as the CLI builds
it and each of its value columns is compared with ``oracle``: ``i_gn``,
``m_f`` and ``m_t`` of a ``sweep``, ``i_gn`` and ``i_gn_closed`` of a
``dynamics`` run.  A ``%.12g`` cell passes when it is within half a print step
of the oracle, plus 1e-13 relative, and never needs to be closer than 1e-15.
"""

import json
import pathlib

import oracle
import pytest

from gaussimag.cli import SweepSpec, _grid_states, main

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPECS = sorted((ROOT / "figures").glob("*.json"))
STRIDE = 20

# (spec, data row, column) of the cells outside the rule, all rounding noise:
# sweep m_f and m_t cells printing up to 3.6e-15 where the oracle is below
# 1e-30, and i_gn_closed at t = 0 printing -3.55e-15 where it is 0 (the
# squeezed-vacuum closed form cancels there)
OUTSIDE = {
    *((stem, 0, "i_gn_closed") for stem in (
        "fig3a_time_phi10", "fig3a_time_phi15", "fig3a_time_phi20",
        "fig4a_time_R2", "fig4a_time_R3", "fig4a_time_R4",
        "fig5a_time_nth10", "fig5a_time_nth15", "fig5a_time_nth20",
    )),
    ("fig3b_phi_t1", 60, "m_t"), ("fig3b_phi_t1", 240, "m_t"),
    ("fig3b_phi_t2", 0, "m_t"), ("fig3b_phi_t2", 60, "m_f"), ("fig3b_phi_t2", 60, "m_t"),
    ("fig3b_phi_t2", 180, "m_f"), ("fig3b_phi_t2", 180, "m_t"), ("fig3b_phi_t2", 240, "m_t"),
    ("fig3b_phi_t3", 0, "m_f"), ("fig3b_phi_t3", 60, "m_f"), ("fig3b_phi_t3", 120, "m_f"),
    ("fig3b_phi_t3", 120, "m_t"), ("fig3b_phi_t3", 180, "m_f"), ("fig3b_phi_t3", 240, "m_f"),
    ("fig4b_R_t1", 0, "m_f"), ("fig4b_R_t1", 0, "m_t"), ("fig4b_R_t3", 0, "m_t"),
}


def bound(printed: float, truth: float) -> float:
    # half the step of the printed cell's 12th significant digit, plus 1e-13 relative
    half_step = 0.5 * 10.0 ** (int(format(abs(printed), ".11e").split("e")[1]) - 11)
    return max(half_step * (printed != 0.0) + 1e-13 * abs(truth), 1e-15)


def sampled_cells(path, tmp_path):
    """``(row, column, printed, oracle)`` of every sampled non-empty cell of one spec."""
    spec = SweepSpec.from_dict(json.loads(path.read_text()))
    is_trajectory = spec.family.endswith("_dynamics") and spec.axis == "t"
    out = tmp_path / f"{path.stem}.csv"
    assert main(["dynamics" if is_trajectory else "sweep", str(path), "--out", str(out)]) == 0
    header, *lines = out.read_text().splitlines()
    # the states the CLI measures: a trajectory's evolved states are the
    # sweep's over its time grid, bit for bit
    d, cm, error = _grid_states(spec, spec.grid())
    assert error is None and len(d) == len(lines)
    columns = header.split(",")[1:3] if is_trajectory else header.split(",")[1:]
    measures = {
        "i_gn": oracle.imaginarity,
        "i_gn_closed": oracle.imaginarity,
        "m_f": oracle.fidelity_imaginarity,
        "m_t": lambda d, cm: oracle.tsallis_imaginarity(d, cm, spec.mu),
    }
    for row in range(0, len(lines), STRIDE):
        for column, cell in zip(columns, lines[row].split(",")[1:]):
            if cell:
                yield row, column, float(cell), measures[column](d[row], cm[row])


def test_every_pinned_cell_names_a_sampled_row():
    stems = {path.stem for path in SPECS}
    assert all(stem in stems and row % STRIDE == 0 for stem, row, _ in OUTSIDE)


@pytest.mark.parametrize("path", SPECS, ids=lambda path: path.stem)
def test_sampled_cells_match_the_oracle(path, tmp_path):
    outside = {}
    for row, column, printed, truth in sampled_cells(path, tmp_path):
        if abs(printed - truth) > bound(printed, truth):
            outside[path.stem, row, column] = printed, truth
    pinned = {cell for cell in OUTSIDE if cell[0] == path.stem}
    # a pinned cell is noise around a zero: it stays within 4e-15 of the oracle
    assert all(abs(printed - truth) <= 4e-15 for printed, truth in outside.values())
    assert set(outside) == pinned, {cell: outside.get(cell) for cell in set(outside) ^ pinned}
