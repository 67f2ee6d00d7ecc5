"""Partition function of the trigonometric solid-on-solid model with one
reflecting end and domain-wall boundaries, computed two independent ways
(operator contraction and a single determinant), with a seeded verification
harness for every algebraic identity the construction rests on."""

from .params import (
    CapExceeded,
    IllConditionedWarning,
    InvariantViolation,
    ModelParams,
    NearSingular,
    ParseError,
    SamplingExhausted,
    SosError,
    rel_diff,
    validate_params,
)
from .weights import (
    FaceWeightSet,
    check_dybe,
    check_reflection_equation,
    check_unitarity,
    face_weights,
    ice_rule_residual,
    k_matrix,
    r_matrix,
    transposed_ice_rule_residual,
)
from .chain_ops import (
    b_operator,
    check_b_commutation,
    check_b_crossing,
    check_double_row_reflection,
    check_exchange_algebra,
    check_monodromy_inverse,
    gamma_hat,
)
from .partition import (
    PartitionResult,
    PRODUCT_FORM,
    SUM_FORM,
    crossing_factor,
    m_matrix,
    normalized_z,
    recursion_rhs_lower,
    recursion_rhs_upper,
    z_bruteforce,
    z_determinant,
    z_n1_closed,
)
from .verify import (
    CheckReport,
    SuiteConfig,
    SuiteReport,
    degree_bound_residual,
    run_suite,
    sample_params,
)

__version__ = "0.1.0"
