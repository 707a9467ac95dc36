"""The names ``import gaussimag`` exports; adding or removing one is a one-line diff here."""

import inspect

import gaussimag

PUBLIC_NAMES = (
    "AsymmetricCM",
    "AsymmetricNoise",
    "BathParams",
    "ComplexSqrtBranchFailure",
    "DimensionMismatch",
    "GaussianChannel",
    "GaussianState",
    "InvalidMu",
    "MeasureReport",
    "ModeBlocks",
    "NonRealResult",
    "PhysicalityViolation",
    "RealnessClass",
    "StackReport",
    "UncertaintyViolation",
    "WilliamsonForm",
    "WilliamsonResidualError",
    "WrongModeCount",
    "ZERO_TOL",
    "block_split",
    "classify_real",
    "coherent_imaginarity",
    "coherent_state",
    "displaced_squeezed_thermal",
    "evolve",
    "fidelity_imaginarity",
    "fidelity_imaginarity_single_mode",
    "imaginarity",
    "imaginarity_single_mode",
    "measure_all",
    "measure_stack",
    "random_real_channel",
    "sqrt_complex_principal",
    "squeezed_vacuum_imaginarity",
    "symplectic_form",
    "trajectory",
    "tsallis_imaginarity",
    "tsallis_imaginarity_single_mode",
    "two_mode_squeezed_vacuum",
    "williamson",
)


def test_public_names_are_pinned():
    # submodules become attributes of the package as they are imported, so they are left out
    names = [n for n, v in vars(gaussimag).items() if not n.startswith("_") and not inspect.ismodule(v)]
    assert tuple(sorted(names)) == PUBLIC_NAMES
