"""The benchmark's span tracer still finds every boundary function it wraps.

``perfbench/tracing.py`` names 20 public functions and methods of the package.
Deleting or renaming one of them breaks ``perfbench/run.py --trace 1``; this
test makes that a tier-1 failure.  The tracer source is read and executed
in a fresh module, so nothing is written under ``perfbench/``.
"""

import types
from pathlib import Path

import numpy as np

from gaussimag import measures
from gaussimag.states import GaussianState

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_boundary_installs_and_uninstalls():
    tracing = load_tracing()
    originals = (measures.imaginarity, GaussianState.__init__)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert measures.imaginarity is not originals[0]
        # the constructors trust what they build; only outside input reaches GaussianState
        measures.imaginarity(GaussianState(np.zeros(2), np.eye(2)))
    finally:
        tracer.uninstall()
    assert (measures.imaginarity, GaussianState.__init__) == originals
    counts = tracer.summary()
    assert len(tracer.names) == len(tracing.BOUNDARIES) == 20
    assert counts["measures.imaginarity.calls"] == 1
    assert counts["states.GaussianState.calls"] == 1
