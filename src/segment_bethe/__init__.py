"""Numerical toolkit for the open XXX spin chain with generic boundaries.

Builds the double-row transfer matrix and its modified operator family,
solves the inhomogeneous Bethe equations against the brute-force spectrum,
and certifies the determinant formulas for scalar products and norms.
"""

from ._version import __version__
from .bethe import (
    BetheRoots,
    lambda_total,
    refine_roots,
    solve_bethe,
    solve_bethe_diagonal,
)
from .boundary import k_minus, k_plus, q_similarity, r_matrix
from .double_row import (
    check_exchange_relations,
    hamiltonian,
    modified_entries,
    transfer_matrices,
    transfer_matrix,
)
from .errors import (
    ConditioningWarning,
    ConstructionError,
    ConvergenceError,
    DimensionError,
    ParameterError,
    PoleError,
)
from .harness import RunConfig, VerificationReport, run
from .params import (
    BoundaryParams,
    ChainSpec,
    draw_boundary_params,
    draw_chain_spec,
    draw_spectral_point,
    draw_spectral_points,
)
from .scalar_products import (
    gaudin_diagonal_derivative,
    gaudin_korepin_norm,
    gaudin_matrix,
    n1_identities,
    norm_from_slavnov_limit,
    scalar_product_direct,
    slavnov_modified,
)
from .vectors import (
    build_dual_psi,
    build_psi,
    check_c_action,
    check_expansion,
    check_offshell_action,
    w_coefficients,
)

__all__ = [
    "__version__",
    "BetheRoots",
    "BoundaryParams",
    "ChainSpec",
    "ConditioningWarning",
    "ConstructionError",
    "ConvergenceError",
    "DimensionError",
    "ParameterError",
    "PoleError",
    "RunConfig",
    "VerificationReport",
    "build_dual_psi",
    "build_psi",
    "check_c_action",
    "check_exchange_relations",
    "check_expansion",
    "check_offshell_action",
    "draw_boundary_params",
    "draw_chain_spec",
    "draw_spectral_point",
    "draw_spectral_points",
    "gaudin_diagonal_derivative",
    "gaudin_korepin_norm",
    "gaudin_matrix",
    "hamiltonian",
    "k_minus",
    "k_plus",
    "lambda_total",
    "modified_entries",
    "n1_identities",
    "norm_from_slavnov_limit",
    "q_similarity",
    "r_matrix",
    "refine_roots",
    "run",
    "scalar_product_direct",
    "slavnov_modified",
    "solve_bethe",
    "solve_bethe_diagonal",
    "transfer_matrices",
    "transfer_matrix",
    "w_coefficients",
]
