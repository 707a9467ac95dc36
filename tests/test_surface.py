"""The public surface: the names ``import gaussimag`` exports, the parameters of each
exported function and method, and the fuzz suites.  Adding or removing a name or
an option is a one-line diff here."""

import inspect

import gaussimag
from gaussimag import fuzz

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


# parameter names of every exported function and of every public method (and
# constructor) that an exported class defines, ``self`` left out
PARAMETERS = {
    "BathParams.__init__": ("lam", "n_th", "big_r", "phi"),
    "GaussianChannel.__init__": ("t", "noise", "d0"),
    "GaussianChannel.apply": ("state",),
    "GaussianChannel.checked": ("t", "noise", "d0"),
    "GaussianState.__init__": ("d", "cm"),
    "GaussianState.checked": ("d", "cm"),
    "GaussianState.conjugate": (),
    "GaussianState.is_real": (),
    "GaussianState.reduce": ("modes",),
    "MeasureReport.__init__": (
        "imaginarity", "h_term", "det_cm", "det_pos_block", "det_mom_block", "zero_tol",
        "mu", "fidelity_imaginarity", "tsallis_imaginarity", "fidelity_error", "tsallis_error",
    ),
    "MeasureReport.to_dict": (),
    "ModeBlocks.__init__": ("a11", "a12", "a22"),
    "StackReport.__init__": ("mu", "zero_tol", "imaginarity", "h_term", "log_dets", "_base", "_d", "_cm"),
    "StackReport.report": ("k",),
    "WilliamsonForm.__init__": ("s", "nus"),
    "block_split": ("cm",),
    "classify_real": ("channel",),
    "coherent_imaginarity": ("alphas", "p", "t", "zero_tol"),
    "coherent_state": ("alphas",),
    "displaced_squeezed_thermal": ("n_th", "zeta", "alpha"),
    "evolve": ("state0", "p", "t"),
    "fidelity_imaginarity": ("state",),
    "fidelity_imaginarity_single_mode": ("n_th", "zeta", "alpha"),
    "imaginarity": ("state", "zero_tol"),
    "imaginarity_single_mode": ("n_th", "zeta", "alpha", "zero_tol"),
    "measure_all": ("state", "mu", "zero_tol"),
    "measure_stack": ("d", "cm", "mu", "zero_tol"),
    "random_real_channel": ("n", "kind", "seed"),
    "squeezed_vacuum_imaginarity": ("r", "p", "t"),
    "symplectic_form": ("n",),
    "trajectory": ("state0", "p", "times", "mu", "zero_tol"),
    "tsallis_imaginarity": ("state", "mu"),
    "tsallis_imaginarity_single_mode": ("n_th", "zeta", "alpha", "mu"),
    "two_mode_squeezed_vacuum": ("r",),
    "williamson": ("cm",),
}


def parameters(fn) -> tuple:
    return tuple(name for name in inspect.signature(fn).parameters if name != "self")


def test_parameters_are_pinned():
    found = {}
    for name in PUBLIC_NAMES:
        value = getattr(gaussimag, name)
        if not inspect.isclass(value):
            if callable(value):
                found[name] = parameters(value)
            continue
        # methods the package defines, on the class or a package base class
        for klass in value.__mro__:
            if not klass.__module__.startswith("gaussimag."):
                continue
            for attr, raw in vars(klass).items():
                method = inspect.isfunction(raw) or isinstance(raw, (classmethod, staticmethod))
                if method and (attr == "__init__" or not attr.startswith("_")):
                    found.setdefault(f"{name}.{attr}", parameters(getattr(value, attr)))
    assert found == PARAMETERS


def test_fuzz_suites_are_pinned():
    # the benchmark's fuzz workload runs every suite in SUITES, so a new suite
    # changes that workload; each suite's default bound is pinned with it
    assert fuzz.SUITES == ("monotonicity", "faithfulness", "hierarchy", "williamson")
    tols = [fuzz.run_suite(suite, count=0).tol for suite in fuzz.SUITES]
    assert tols == [1e-9, 1e-10, 1e-9, 1e-8]
