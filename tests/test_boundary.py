"""R-matrix and K-matrix structure plus the defining algebraic identities."""

import numpy as np
import pytest

from segment_bethe import boundary
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
from segment_bethe.linalg import embed_two_site, relative_residual
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
    # Tiny couplings push det Q = 2 rho (rho - 1) below the singularity
    # guard, so the couplings are refused when they are built.
    with pytest.raises(ParameterError, match="similarity transform is singular"):
        BoundaryParams(1.0, 2.0, 1e-7, 1e-7)


def test_similarity_determinant(bp):
    rho = bp.rho
    assert np.isclose(np.linalg.det(q_similarity(bp)), 2 * rho * (rho - 1))


# ---------------------------------------------------------------------------
# Stacked checks: one call on ten draws against the dense per-point products.

CHECKS = {
    "ybe": lambda u, v, m, bp: check_ybe(u, v),
    "unitarity": lambda u, v, m, bp: check_unitarity(u),
    "reflection": lambda u, v, m, bp: check_reflection(u, v, bp),
    "dual-reflection": lambda u, v, m, bp: check_dual_reflection(u, v, bp),
    "gl2-invariance": lambda u, v, m, bp: check_gl2_invariance(u, m),
    "kplus-diagonalization": lambda u, v, m, bp: check_kplus_diagonalization(
        u, bp
    ),
}


def _sides(name, u, v, m, bp):
    """Both sides of one identity at one point, from per-point dense products."""
    eye = np.eye(2)
    if name == "ybe":
        r12 = embed_two_site(r_matrix(u - v), 3, 0, 1)
        r13 = embed_two_site(r_matrix(u), 3, 0, 2)
        r23 = embed_two_site(r_matrix(v), 3, 1, 2)
        return r12 @ r13 @ r23, r23 @ r13 @ r12
    if name == "unitarity":
        return r_matrix(u) @ r_matrix(-u), (1 - u * u) * np.eye(4)
    if name == "reflection":
        ka, kb = np.kron(k_minus(u, bp), eye), np.kron(eye, k_minus(v, bp))
        r1, r2 = r_matrix(u - v), r_matrix(u + v)
    elif name == "dual-reflection":
        ka, kb = np.kron(k_plus(u, bp).T, eye), np.kron(eye, k_plus(v, bp).T)
        r1, r2 = r_matrix(v - u), r_matrix(-u - v - 2)
    elif name == "gl2-invariance":
        mm = np.kron(m, m)
        return r_matrix(u) @ mm, mm @ r_matrix(u)
    else:
        qm = q_similarity(bp)
        got = np.linalg.inv(qm) @ k_plus(u, bp) @ qm
        return got, np.diag(modified_k_plus_entries(u, bp))
    return r1 @ ka @ r2 @ kb, kb @ r2 @ ka @ r1


@pytest.fixture
def draws(rng, bp):
    us = draw_spectral_points(rng, 10, bp=bp)
    vs = draw_spectral_points(rng, 10, avoid=us, bp=bp)
    ms = rng.normal(size=(10, 2, 2)) + 1j * rng.normal(size=(10, 2, 2))
    return us, vs, ms


@pytest.mark.parametrize("name", CHECKS)
def test_stacked_check_matches_point_by_point(name, draws, bp):
    check = CHECKS[name]
    got = check(*draws, bp)
    assert got.shape == (10,)
    for k, (u, v, m) in enumerate(zip(*draws)):
        one = check(u, v, m, bp)
        assert isinstance(one, float)
        lhs, rhs = _sides(name, u, v, m, bp)
        oracle = relative_residual(lhs - rhs, lhs, rhs)
        assert abs(got[k] - one) <= 2e-15
        assert abs(got[k] - oracle) <= 2e-15


def _r_with_transposed_p(u):
    # An index slip: P transposed on its second factor in place of P.
    pt2 = PERMUTATION.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    return np.asarray(u, dtype=complex)[..., None, None] * np.eye(4) + pt2


def test_stacked_checks_flag_a_faulty_r_matrix(draws, bp, monkeypatch):
    monkeypatch.setattr(boundary, "r_matrix", _r_with_transposed_p)
    for name in ("ybe", "unitarity", "reflection", "dual-reflection",
                 "gl2-invariance"):
        assert (CHECKS[name](*draws, bp) > 1e-3).all(), name


def test_stacked_checks_flag_shifted_k_matrices(draws, bp, monkeypatch):
    # K(u + 1) in place of K(u): outside the diagonal reflection family
    # diag(xi + u, xi - u), and not diagonalized by Q.
    k_minus_ok, k_plus_ok = boundary.k_minus, boundary.k_plus
    monkeypatch.setattr(
        boundary, "k_minus", lambda u, bp: k_minus_ok(np.asarray(u) + 1, bp)
    )
    monkeypatch.setattr(
        boundary, "k_plus", lambda u, bp: k_plus_ok(np.asarray(u) + 1, bp)
    )
    for name in ("reflection", "dual-reflection", "kplus-diagonalization"):
        assert (CHECKS[name](*draws, bp) > 1e-3).all(), name


def test_r_and_p_sign_flips_keep_the_identities(draws, bp, monkeypatch):
    # R(u) = u - P is -R(-u) and diag(-p + u, -p - u) is the reflection
    # solution at xi = -p, so neither moves a check off rounding level.
    r_ok, k_minus_ok = boundary.r_matrix, boundary.k_minus
    monkeypatch.setattr(
        boundary, "r_matrix", lambda u: r_ok(u) - 2 * PERMUTATION
    )
    monkeypatch.setattr(
        boundary,
        "k_minus",
        lambda u, bp: k_minus_ok(
            u, BoundaryParams(-bp.p, bp.q, bp.xi_plus, bp.xi_minus)
        ),
    )
    for name, check in CHECKS.items():
        assert (check(*draws, bp) <= TOL).all(), name
