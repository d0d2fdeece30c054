"""Test-side references that the package's own tables are certified against.

The derivatives of the exchange kernels and of the modified trace
coefficients, each from its own closed form, the literal partial trace
over the auxiliary factor, Bethe states multiplied out from whole
one-point entries, and the comparison of two root sets up to order and
reflection.  The package computes none of these directly:
its per-root tables (``bethe.root_terms``) and its stacked ``K^+`` trace are
held to them by ``test_formula_tables`` and ``test_double_row``, and
``test_kernels`` and ``test_oracles`` hold them to finite differences and
to ``einsum``; ``test_vectors`` holds the matrix-free states to the
multiplied-out ones.
"""

from segment_bethe.bethe import ROOT_MATCH_TOL, normalize_root_set
from segment_bethe.double_row import double_row, modified_entries
from segment_bethe.errors import DimensionError
from segment_bethe.kernels import Q, _guard, phi, phi_and_derivative
from segment_bethe.linalg import as_matrix, vacuum_state


def d_f_du(u, v):
    _guard("f", (u, v), u - v, u + v + 1)
    qq = Q(u, v)
    num = (2 * u - 1) * qq - (u - v - 1) * (u + v) * (2 * u + 1)
    return num / (qq * qq)


def d_f_dv(u, v):
    _guard("f", (u, v), u - v, u + v + 1)
    qq = Q(u, v)
    return -2 * u * (2 * v + 1) / (qq * qq)


def d_h_du(u, v):
    _guard("h", (u, v), u - v, u + v + 1)
    qq = Q(u, v)
    num = (2 * u + 3) * qq - (u - v + 1) * (u + v + 2) * (2 * u + 1)
    return num / (qq * qq)


def d_h_dv(u, v):
    _guard("h", (u, v), u - v, u + v + 1)
    qq = Q(u, v)
    return 2 * (u + 1) * (2 * v + 1) / (qq * qq)


def d_alpha_bar(u, bp):
    return phi_and_derivative(u)[1] * (bp.q + u * (1 - bp.rho)) + phi(u) * (
        1 - bp.rho
    )


def d_delta_bar(u, bp):
    return -(1 - bp.rho)


def trace_aux(m):
    """Partial trace over the first (auxiliary) two-dimensional factor."""
    m = as_matrix(m)
    dim = m.shape[0]
    if dim % 2 or m.shape[1] != dim:
        raise DimensionError("trace_aux needs a square matrix of even dimension")
    half = dim // 2
    return m[:half, :half] + m[half:, half:]


def table_state(roots, cs, bp, dual=False, plain=False):
    """A Bethe state from whole one-point entries, as an operator table built it.

    The ket ``b(u_m) ... b(u_1) |0>`` or the bra ``<0| c(u_1) ... c(u_m)``
    of modified entries, or of plain ones when ``plain`` or for diagonal
    couplings, each entry a ``2^N``-square matrix multiplied into the state.
    """
    entries = double_row if plain or bp.diagonal_mode else modified_entries
    vec = vacuum_state(cs.sites)
    for u in roots:
        e = entries(u, cs, bp)
        vec = vec @ e.c if dual else e.b @ vec
    return vec


def root_sets_match(a, b, tol=ROOT_MATCH_TOL):
    """Whether two root sets agree to ``tol`` up to order and ``u -> -u-1``."""
    na, nb = normalize_root_set(a), normalize_root_set(b)
    return len(na) == len(nb) and all(abs(x - z) <= tol for x, z in zip(na, nb))
