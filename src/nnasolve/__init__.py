"""nnasolve: sparse linear solvers around a guaranteed-convergence
multiplicative iteration, its nonnegative embedding for arbitrary-sign
systems, classical iterative baselines, and reproducible benchmarking I/O.
"""

from .baselines import (
    Dominance,
    DominanceClass,
    arnoldi_process,
    cg_solve,
    dominance_class,
    gauss_seidel_solve,
    gmres_restarted,
    is_symmetric,
    jacobi_solve,
    lanczos_process,
    minres_solve,
    normal_equation_solve,
)
from .embedding import EmbeddedSystem, consistency_defect, embed, extract, general_solve
from .errors import (
    DimensionMismatch,
    IndefiniteBreakdown,
    IndexOutOfRange,
    InfiniteDivergence,
    NegativeEntry,
    NegativeInput,
    NnaSolveError,
    NonFiniteValue,
    NonPositiveRhs,
    NotSquare,
    NotSymmetric,
    ParseError,
    SingularMatrix,
    TooLargeForDense,
    TooManyNonzeros,
    UnshiftableRow,
    UnsupportedFormat,
    ZeroColumn,
    ZeroDenominator,
    ZeroDiagonal,
)
from .metrics import kl_divergence, l2_bridge
from .nna import (
    NonnegativeSystem,
    RateCertificate,
    ShiftedSystem,
    SolveReport,
    SolverConfig,
    SolveStatus,
    default_tolerance,
    nna_solve,
    nna_step,
    nna_step_counted,
    rate_certificate,
    rescale,
    shift,
)
from .problems import (
    ProblemInstance,
    SplitMix64,
    gen_dense_uniform,
    gen_sparse_random,
    read_matrix_market,
    read_trace,
    write_matrix_market,
    write_trace,
)
from .sparse import (
    SparseMatrix,
    as_vector,
    from_arrays,
    from_triplets,
    spmv,
    spmv_transpose,
)

__version__ = "0.1.0"
