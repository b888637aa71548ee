"""Toolkit for linear maps covariant under simultaneous unitary conjugation.

Covers the two-copy canonical form (six generators), structural
classification, the exact cb norm of the trace-free family, Monte-Carlo
twirling, and the m-copy generalization built on slot permutations.
"""

from .classify import (
    ClassificationReport,
    CpResult,
    classical_broadcast,
    classify,
    commutant_fit,
    diagonal_pinch,
    is_classically_consistent,
    is_cp,
    is_permutation_invariant,
    is_positive,
    is_self_adjoint,
    is_virtual_broadcaster,
    satisfies_broadcast,
)
from .linalg import (
    DEFAULT_TOL,
    DimensionError,
    NotHermitianError,
    Tolerance,
    hermitian_eigenvalues,
    hs_inner,
    is_psd,
    kron,
    map_to_superoperator,
    operator_norm,
    partial_trace,
    unvec,
    vec,
)
from .multicopy import (
    MultiCopyCoefficients,
    SchurWeylFit,
    UniquenessUnavailableError,
    apply_multi,
    covariance_residual_multi,
    enumerate_permutations,
    extract_multi,
    from_two_copy,
    realize_multi_superoperator,
    schur_weyl_fit,
    slot_embedding,
    to_two_copy,
)
from .norms import (
    CbNormResult,
    TraceTermsError,
    cb_norm,
    corner_coefficients,
)
from .operators import (
    Permutation,
    haar_unitary,
    matrix_unit,
    permutation_operator,
    substream,
    swap_operator,
    sym_projector,
)
from .twirl import (
    TwirlResult,
    conjugated_superoperator,
    covariance_deviation,
    twirl,
    twirl_operator,
)
from .twocopy import (
    GAUGE_DIRECTION,
    CovariantCoefficients,
    GaugeAmbiguousError,
    apply_map,
    basis_superoperators,
    choi_matrix,
    extract,
    fit_coefficients,
    gauge_reduce,
    maps_equal,
    realize_superoperator,
    virtual_broadcast_coefficients,
)

__version__ = "0.1.0"
