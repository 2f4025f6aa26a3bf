"""Sub-Nyquist compressive sampling of sparse shift-invariant signals.

The library builds compressive filter-bank sampling systems for signals that
live in a union of shift-invariant subspaces (k of m generator channels
active, the active set unknown), produces the compressed measurement
sequences, and recovers the signal by reducing the infinite family of
per-frequency systems to one finite joint-sparse problem.

Verification scale: continuous-time, infinite-horizon claims are checked on
a finite N-point circular frequency grid with exact finite alias sums; see
README for the reduction conventions.
"""

from .errors import (
    ConfigError,
    DimensionError,
    InfeasibleError,
    InvalidInputError,
    SingularOperatorError,
    SiSubnyqError,
)
from .si_core import (
    CoefficientBank,
    FrequencyGrid,
    GeneratorSet,
    PeriodicMatrixFunction,
    cross_spectrum,
    cross_spectrum_matrix,
    filterbank_sample,
    reconstruct_subspace,
)
from .sparse_model import SparseSISignal, SparsityProfile, signal_spectrum, synthesize
from .sampling_design import (
    MeasurementBank,
    MeasurementDesign,
    biorthogonalize,
    build_sampling_filters,
    compressive_sample,
    design_from_json,
    design_to_json,
    kruskal_rank,
    make_cs_matrix,
    make_design,
)
from .ctf import (
    MMVProblem,
    RecoveryResult,
    compute_q,
    demodulate,
    frame_from_q,
    recover,
    recover_coefficients,
    recover_support,
    solve_mmv_exhaustive,
    solve_mmv_somp,
)
from .tolerances import DEFAULT_TOLERANCES, Tolerances

__version__ = "0.1.0"

__all__ = [
    "CoefficientBank",
    "ConfigError",
    "DEFAULT_TOLERANCES",
    "DimensionError",
    "FrequencyGrid",
    "GeneratorSet",
    "InfeasibleError",
    "InvalidInputError",
    "MMVProblem",
    "MeasurementBank",
    "MeasurementDesign",
    "PeriodicMatrixFunction",
    "RecoveryResult",
    "SingularOperatorError",
    "SiSubnyqError",
    "SparseSISignal",
    "SparsityProfile",
    "Tolerances",
    "biorthogonalize",
    "build_sampling_filters",
    "compressive_sample",
    "compute_q",
    "cross_spectrum",
    "cross_spectrum_matrix",
    "demodulate",
    "design_from_json",
    "design_to_json",
    "filterbank_sample",
    "frame_from_q",
    "kruskal_rank",
    "make_cs_matrix",
    "make_design",
    "reconstruct_subspace",
    "recover",
    "recover_coefficients",
    "recover_support",
    "signal_spectrum",
    "solve_mmv_exhaustive",
    "solve_mmv_somp",
    "synthesize",
]
