"""Imaginarity of multi-mode Gaussian states from displacement vectors and covariance matrices."""

from .channels import GaussianChannel, RealnessClass, classify_real, random_real_channel
from .dynamics import (
    BathParams,
    coherent_imaginarity,
    evolve,
    squeezed_vacuum_imaginarity,
    trajectory,
)
from .errors import (
    AsymmetricCM,
    AsymmetricNoise,
    ComplexSqrtBranchFailure,
    DimensionMismatch,
    InvalidMu,
    NonRealResult,
    PhysicalityViolation,
    UncertaintyViolation,
    WilliamsonResidualError,
    WrongModeCount,
)
from .linalg import (
    ModeBlocks,
    WilliamsonForm,
    block_split,
    symplectic_form,
    williamson,
)
from .measures import (
    MeasureReport,
    StackReport,
    fidelity_imaginarity,
    fidelity_imaginarity_single_mode,
    imaginarity,
    imaginarity_single_mode,
    measure_all,
    measure_stack,
    tsallis_imaginarity,
    tsallis_imaginarity_single_mode,
)
from .states import (
    ZERO_TOL,
    GaussianState,
    coherent_state,
    displaced_squeezed_thermal,
    two_mode_squeezed_vacuum,
)

__version__ = "0.1.0"
