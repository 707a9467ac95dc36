"""Imaginarity of multi-mode Gaussian states from displacement vectors and covariance matrices."""

from .channels import GaussianChannel, RealnessClass, classify_real, random_real_channel
from .dynamics import (
    BathParams,
    bath_derived,
    coherent_imaginarity,
    evolve,
    nu_infinity,
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
    is_psd_hermitian,
    sqrt_complex_principal,
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
    momentum_indicator,
    tsallis_imaginarity,
    tsallis_imaginarity_single_mode,
)
from .multipartite import (
    HierarchyCheck,
    Partition,
    check_reduction_hierarchy,
    check_refinement_hierarchy,
    partition_imaginarity,
)
from .states import (
    ZERO_TOL,
    GaussianState,
    coherent_state,
    displaced_squeezed_thermal,
    two_mode_squeezed_vacuum,
)

__version__ = "0.1.0"
