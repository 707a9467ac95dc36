"""Every checked-in figure spec reproduces its reference CSV byte for byte.

The reference is the benchmark's ``perfbench/reference/figures.json.gz``: the
CSV text of each spec in ``figures/``, as ``scripts/make_figure_data.py``
writes it.  This test only reads it.
"""

import gzip
import json
import pathlib

import pytest

from gaussimag.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPECS = sorted((ROOT / "figures").glob("*.json"))


@pytest.fixture(scope="module")
def reference():
    path = ROOT / "perfbench" / "reference" / "figures.json.gz"
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def test_reference_covers_every_spec(reference):
    assert len(SPECS) == 40
    assert sorted(reference) == [path.stem for path in SPECS]


@pytest.mark.parametrize("path", SPECS, ids=lambda path: path.stem)
def test_figure_csv_matches_reference(path, reference, tmp_path, capsys):
    spec = json.loads(path.read_text())
    # the command make_figure_data.py chooses
    is_trajectory = spec["family"].endswith("_dynamics") and spec["axis"] == "t"
    command = "dynamics" if is_trajectory else "sweep"
    out = tmp_path / f"{path.stem}.csv"
    assert main([command, str(path), "--out", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    assert out.read_bytes() == reference[path.stem].encode()
