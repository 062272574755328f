"""symhess: upper J-Hessenberg reduction of real 2n-by-2n matrices via
symplectic Householder and Van Loan transformations."""

from .core import (
    StructureReport,
    adjoint_mat,
    j_inner,
    make_j,
    spectral_norm,
    structure_report,
    symplecticity_residual,
)
from .transforms import (
    DEFAULT_BREAKDOWN_TOL,
    Breakdown,
    FreeParams,
    InvalidParam,
    MappingBreakdown,
    SymplecticTransform,
    TransformGivens,
    TransformSH,
    TransformVLH,
    apply_left,
    apply_right_adjoint,
    cond2,
    densify,
    embed,
    general_mapping,
    osh1,
    osh2,
    sh1,
    sh2,
    vlg,
    vlg_sweep,
    vlh,
)
from .reduction import (
    VARIANTS,
    BreakdownError,
    FixedStrategy,
    OptimalStrategy,
    ParamStrategy,
    ReductionOptions,
    ReductionResult,
    SeededStrategy,
    jhmsh,
    jhmsh2,
    jhosh,
    jhsh,
    reduce,
)
from .experiments import (
    FamilySpec,
    SweepRow,
    emit_table,
    gen_family1,
    gen_family2,
    run_sweep,
)
from .matrixio import MatrixFormatError, read_matrix, write_matrix

__version__ = "0.1.0"

__all__ = [
    "StructureReport", "adjoint_mat", "j_inner", "make_j", "spectral_norm",
    "structure_report", "symplecticity_residual",
    "DEFAULT_BREAKDOWN_TOL", "Breakdown", "FreeParams", "InvalidParam",
    "MappingBreakdown", "SymplecticTransform", "TransformGivens",
    "TransformSH", "TransformVLH", "apply_left", "apply_right_adjoint",
    "cond2", "densify", "embed",
    "general_mapping", "osh1", "osh2", "sh1", "sh2", "vlg", "vlg_sweep", "vlh",
    "VARIANTS", "BreakdownError", "FixedStrategy", "OptimalStrategy",
    "ParamStrategy", "ReductionOptions", "ReductionResult",
    "SeededStrategy", "jhmsh", "jhmsh2", "jhosh",
    "jhsh", "reduce",
    "FamilySpec", "SweepRow", "emit_table", "gen_family1", "gen_family2",
    "run_sweep",
    "MatrixFormatError", "read_matrix", "write_matrix",
    "__version__",
]
