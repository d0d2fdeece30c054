"""R-matrix, boundary K-matrices and the defining algebraic identities.

The rational R-matrix acts on C^2 x C^2; boundary matrices are 2x2.  The
check_* functions return scale-free residuals (Frobenius norm of the defect
divided by the larger side), so a correct implementation sits at rounding
level regardless of the magnitude of the spectral parameters.

Every function here takes one spectral point or an array of them and
broadcasts over its leading axes: the matrix builders return one matrix or
a stack ``(..., n, n)``, and the checks a ``float`` or an array of
residuals, one per point.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .linalg import identity, kron, relative_residuals
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


# Row/column order of C^2 x C^2 x C^2 with factors 2 and 3 swapped: indexing
# with it is the conjugation by P_23, an exact permutation.
_SWAP_23 = np.array([0, 2, 1, 3, 4, 6, 5, 7])


def _scalars(u) -> np.ndarray:
    """Spectral points as a complex array with two trailing unit axes."""
    return np.asarray(u, dtype=complex)[..., None, None]


def _diagonal(top, bottom) -> np.ndarray:
    """``diag(top, bottom)`` for each entry of two equal-shaped arrays."""
    out = np.zeros(np.shape(top) + (2, 2), dtype=complex)
    out[..., 0, 0] = top
    out[..., 1, 1] = bottom
    return out


def r_matrix(u) -> np.ndarray:
    """Rational R-matrix u*Id + P."""
    return _scalars(u) * identity(4) + PERMUTATION


def k_minus(u, bp: BoundaryParams) -> np.ndarray:
    """Right boundary matrix diag(p+u, p-u)."""
    u = np.asarray(u, dtype=complex)
    return _diagonal(bp.p + u, bp.p - u)


def k_plus(u, bp: BoundaryParams) -> np.ndarray:
    """Left boundary matrix with off-diagonal couplings xi_plus/xi_minus."""
    u = np.asarray(u, dtype=complex)
    out = _diagonal(bp.q + u + 1, bp.q - u - 1)
    out[..., 0, 1] = bp.xi_plus * (u + 1)
    out[..., 1, 0] = bp.xi_minus * (u + 1)
    return out


def q_similarity(bp: BoundaryParams) -> np.ndarray:
    """Constant matrix conjugating k_plus to diagonal form.

    Requires generic couplings; the diagonal path never builds it.
    """
    if bp.diagonal_mode:
        raise ParameterError("diagonal couplings: similarity transform not defined")
    rho = bp.rho
    return np.array([[bp.xi_plus, rho], [-rho, bp.xi_minus]], dtype=complex)


def check_ybe(u, v):
    """Yang-Baxter equation residual on C^2 x C^2 x C^2 (third argument 0)."""
    u, v = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
    eye = identity(2)
    r12 = kron(r_matrix(u - v), eye)
    r13 = kron(r_matrix(u), eye)[..., _SWAP_23, :][..., _SWAP_23]
    r23 = kron(eye, r_matrix(v))
    lhs = r12 @ r13 @ r23
    rhs = r23 @ r13 @ r12
    return relative_residuals(lhs, rhs)


def check_unitarity(u):
    """R(u) R(-u) = (1 - u^2) Id."""
    u = np.asarray(u, dtype=complex)
    lhs = r_matrix(u) @ r_matrix(-u)
    rhs = _scalars(1 - u * u) * identity(4)
    return relative_residuals(lhs, rhs)


def check_reflection(u, v, bp: BoundaryParams):
    """Boundary Yang-Baxter (reflection) equation residual for k_minus."""
    u, v = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
    ka = kron(k_minus(u, bp), identity(2))
    kb = kron(identity(2), k_minus(v, bp))
    r_uv = r_matrix(u - v)
    r_upv = r_matrix(u + v)
    lhs = r_uv @ ka @ r_upv @ kb
    rhs = kb @ r_upv @ ka @ r_uv
    return relative_residuals(lhs, rhs)


def check_dual_reflection(u, v, bp: BoundaryParams):
    """Dual reflection equation residual for k_plus (partial transposes)."""
    u, v = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
    ka = kron(k_plus(u, bp).swapaxes(-1, -2), identity(2))
    kb = kron(identity(2), k_plus(v, bp).swapaxes(-1, -2))
    r1 = r_matrix(-u + v)
    r2 = r_matrix(-u - v - 2)
    lhs = r1 @ ka @ r2 @ kb
    rhs = kb @ r2 @ ka @ r1
    return relative_residuals(lhs, rhs)


def check_gl2_invariance(u, m):
    """[R(u), m x m] = 0 for any 2x2 m (or a stack of them, one per point)."""
    mm = kron(m, m)
    r = r_matrix(u)
    lhs = r @ mm
    rhs = mm @ r
    return relative_residuals(lhs, rhs)


def check_kplus_diagonalization(u, bp: BoundaryParams):
    """Q^-1 K^+(u) Q = diag(modified_k_plus_entries(u)), generic couplings only."""
    u = np.asarray(u, dtype=complex)
    qm = q_similarity(bp)
    kq = k_plus(u, bp) @ qm
    got = np.linalg.solve(np.broadcast_to(qm, kq.shape), kq)
    expected = _diagonal(*modified_k_plus_entries(u, bp))
    return relative_residuals(got, expected)


def modified_k_plus_entries(u, bp: BoundaryParams):
    """Diagonal entries (q + (1+u)(1-rho), q - (1+u)(1-rho)) of Q^-1 K^+ Q."""
    shift = (1 + u) * (1 - bp.rho)
    return bp.q + shift, bp.q - shift
