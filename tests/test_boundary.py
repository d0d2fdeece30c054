"""R-matrix and K-matrix structure plus the defining algebraic identities."""

import numpy as np
import pytest

from segment_bethe.boundary import (
    PERMUTATION,
    check_dual_reflection,
    check_gl2_invariance,
    check_kplus_diagonalization,
    check_reflection,
    check_unitarity,
    check_ybe,
    k_minus,
    k_plus,
    modified_k_plus_entries,
    q_similarity,
    r_matrix,
)
from segment_bethe.errors import ParameterError
from segment_bethe.params import BoundaryParams, draw_spectral_points

TOL = 1e-12


def test_permutation_swaps_factors(rng):
    x = rng.normal(size=2) + 1j * rng.normal(size=2)
    y = rng.normal(size=2) + 1j * rng.normal(size=2)
    assert np.allclose(PERMUTATION @ np.kron(x, y), np.kron(y, x))


def test_r_matrix_explicit_form():
    u = 0.7 - 0.4j
    expected = np.array(
        [
            [u + 1, 0, 0, 0],
            [0, u, 1, 0],
            [0, 1, u, 0],
            [0, 0, 0, u + 1],
        ],
        dtype=complex,
    )
    assert np.allclose(r_matrix(u), expected)


def test_k_matrix_entries(bp):
    u = 0.4 + 0.2j
    km = k_minus(u, bp)
    assert km[0, 0] == bp.p + u and km[1, 1] == bp.p - u
    assert km[0, 1] == 0 and km[1, 0] == 0
    kp = k_plus(u, bp)
    assert kp[0, 0] == bp.q + u + 1
    assert kp[1, 1] == bp.q - u - 1
    assert kp[0, 1] == bp.xi_plus * (u + 1)
    assert kp[1, 0] == bp.xi_minus * (u + 1)


def test_yang_baxter(rng):
    us = draw_spectral_points(rng, 10)
    vs = draw_spectral_points(rng, 10, avoid=us)
    assert max(check_ybe(u, v) for u, v in zip(us, vs)) <= TOL


def test_unitarity(rng):
    assert max(check_unitarity(u) for u in draw_spectral_points(rng, 10)) <= TOL


def test_reflection_equations(rng, bp):
    us = draw_spectral_points(rng, 10, bp=bp)
    vs = draw_spectral_points(rng, 10, avoid=us, bp=bp)
    assert max(check_reflection(u, v, bp) for u, v in zip(us, vs)) <= TOL
    assert max(check_dual_reflection(u, v, bp) for u, v in zip(us, vs)) <= TOL


def test_gl2_invariance(rng):
    us = draw_spectral_points(rng, 10)
    for u in us:
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert check_gl2_invariance(u, m) <= TOL


def test_similarity_diagonalizes_k_plus(bp):
    for u in (0.3 + 0.1j, -0.8 + 0.6j, 1.4 - 0.2j):
        assert check_kplus_diagonalization(u, bp) <= TOL


def test_modified_entries_sum_and_difference(bp):
    # Trace and u-slope of K^+ survive the conjugation.
    u = 0.9 - 0.3j
    top, bottom = modified_k_plus_entries(u, bp)
    assert np.isclose(top + bottom, np.trace(k_plus(u, bp)))
    assert np.isclose(top - bottom, 2 * (1 + u) * (1 - bp.rho))


def test_similarity_needs_generic_couplings(bp_diag):
    with pytest.raises(ParameterError):
        q_similarity(bp_diag)


def test_similarity_rejects_near_singular():
    # Tiny couplings push det Q = 2 rho (rho - 1) below the singularity guard.
    bp = BoundaryParams(1.0, 2.0, 1e-7, 1e-7)
    with pytest.raises(ParameterError):
        q_similarity(bp)


def test_similarity_determinant(bp):
    rho = bp.rho
    assert np.isclose(np.linalg.det(q_similarity(bp)), 2 * rho * (rho - 1))
