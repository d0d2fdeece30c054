"""R-matrix, boundary K-matrices and the defining algebraic identities.

The rational R-matrix acts on C^2 x C^2; boundary matrices are 2x2.  The
check_* functions return scale-free residuals (Frobenius norm of the defect
divided by the larger side), so a correct implementation sits at rounding
level regardless of the magnitude of the spectral parameters.
"""

from __future__ import annotations

import numpy as np

from . import kernels as kn
from .errors import ParameterError
from .linalg import embed_two_site, identity, kron, relative_residual
from .params import BoundaryParams

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "SIGMA_PLUS",
    "SIGMA_MINUS",
    "PERMUTATION",
    "r_matrix",
    "k_minus",
    "k_plus",
    "q_similarity",
    "check_ybe",
    "check_unitarity",
    "check_reflection",
    "check_dual_reflection",
    "check_gl2_invariance",
    "check_kplus_diagonalization",
]

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_PLUS = np.array([[0, 1], [0, 0]], dtype=complex)
SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)

# Permutation operator on C^2 x C^2 built from the spin operators.
PERMUTATION = (
    kron(SIGMA_PLUS, SIGMA_MINUS)
    + kron(SIGMA_MINUS, SIGMA_PLUS)
    + 0.5 * (identity(4) + kron(SIGMA_Z, SIGMA_Z))
)


def r_matrix(u) -> np.ndarray:
    """Rational R-matrix u*Id + P."""
    return u * identity(4) + PERMUTATION


def k_minus(u, bp: BoundaryParams) -> np.ndarray:
    """Right boundary matrix diag(p+u, p-u)."""
    return np.array([[bp.p + u, 0], [0, bp.p - u]], dtype=complex)


def k_plus(u, bp: BoundaryParams) -> np.ndarray:
    """Left boundary matrix with off-diagonal couplings xi_plus/xi_minus."""
    return np.array(
        [
            [bp.q + u + 1, bp.xi_plus * (u + 1)],
            [bp.xi_minus * (u + 1), bp.q - u - 1],
        ],
        dtype=complex,
    )


def q_similarity(bp: BoundaryParams) -> np.ndarray:
    """Constant matrix conjugating k_plus to diagonal form.

    Requires generic couplings; the diagonal path never builds it.
    """
    if bp.diagonal_mode:
        raise ParameterError("diagonal couplings: similarity transform not defined")
    rho = bp.rho
    detq = bp.xi_plus * bp.xi_minus + rho * rho
    if abs(detq) < 1e-12:
        raise ParameterError("similarity transform is singular for these couplings")
    return np.array([[bp.xi_plus, rho], [-rho, bp.xi_minus]], dtype=complex)


def check_ybe(u, v) -> float:
    """Yang-Baxter equation residual on C^2 x C^2 x C^2 (third argument 0)."""
    r12 = embed_two_site(r_matrix(u - v), 3, 0, 1)
    r13 = embed_two_site(r_matrix(u), 3, 0, 2)
    r23 = embed_two_site(r_matrix(v), 3, 1, 2)
    lhs = r12 @ r13 @ r23
    rhs = r23 @ r13 @ r12
    return relative_residual(lhs - rhs, lhs, rhs)


def check_unitarity(u) -> float:
    """R(u) R(-u) = (1 - u^2) Id."""
    lhs = r_matrix(u) @ r_matrix(-u)
    rhs = (1 - u * u) * identity(4)
    return relative_residual(lhs - rhs, lhs, rhs)


def check_reflection(u, v, bp: BoundaryParams) -> float:
    """Boundary Yang-Baxter (reflection) equation residual for k_minus."""
    ka = kron(k_minus(u, bp), identity(2))
    kb = kron(identity(2), k_minus(v, bp))
    r_uv = r_matrix(u - v)
    r_upv = r_matrix(u + v)
    lhs = r_uv @ ka @ r_upv @ kb
    rhs = kb @ r_upv @ ka @ r_uv
    return relative_residual(lhs - rhs, lhs, rhs)


def check_dual_reflection(u, v, bp: BoundaryParams) -> float:
    """Dual reflection equation residual for k_plus (partial transposes)."""
    ka = kron(k_plus(u, bp).T, identity(2))
    kb = kron(identity(2), k_plus(v, bp).T)
    r1 = r_matrix(-u + v)
    r2 = r_matrix(-u - v - 2)
    lhs = r1 @ ka @ r2 @ kb
    rhs = kb @ r2 @ ka @ r1
    return relative_residual(lhs - rhs, lhs, rhs)


def check_gl2_invariance(u, m) -> float:
    """[R(u), m x m] = 0 for any 2x2 m."""
    mm = kron(m, m)
    r = r_matrix(u)
    lhs = r @ mm
    rhs = mm @ r
    return relative_residual(lhs - rhs, lhs, rhs)


def check_kplus_diagonalization(u, bp: BoundaryParams) -> float:
    """Q^-1 K^+(u) Q = diag(modified_k_plus_entries(u)), generic couplings only."""
    qm = q_similarity(bp)
    got = np.linalg.solve(qm, k_plus(u, bp) @ qm)
    expected = np.diag(modified_k_plus_entries(u, bp))
    return relative_residual(got - expected, got, expected)


def modified_k_plus_entries(u, bp: BoundaryParams):
    """Diagonal entries (q + (1+u)(1-rho), q - (1+u)(1-rho)) of Q^-1 K^+ Q."""
    shift = (1 + u) * (1 - bp.rho)
    return bp.q + shift, bp.q - shift
