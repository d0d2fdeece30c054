"""Determinant scalar products and norms against brute-force pairings."""

import numpy as np
import pytest

from segment_bethe.bethe import (
    det_small,
    eigenvalue_parts,
    refine_roots,
    solve_bethe_diagonal,
    vacuum_eigenvalues,
)
from segment_bethe.double_row import operators
from segment_bethe.errors import ConditioningWarning, ParameterError
from segment_bethe.params import BoundaryParams, draw_spectral_point, draw_spectral_points
from segment_bethe.scalar_products import (
    PROXIMITY_THRESHOLD,
    cauchy_det_factorized,
    cauchy_matrix,
    gaudin_diagonal_derivative,
    gaudin_korepin_norm,
    gaudin_matrix,
    n1_identities,
    norm_from_slavnov_limit,
    scalar_product_direct,
    slavnov_jacobians,
    slavnov_modified,
)
from test_formula_tables import oracle_lambda_derivative

SLAVNOV_TOL = 1e-8


def test_direct_empty_sets(cs2, bp):
    assert scalar_product_direct((), (), operators([], cs2, bp), cs2, bp) == 1.0
    assert slavnov_modified((), (), cs2, bp) == 1.0


def test_direct_permutation_invariant(cs2, bp, rng):
    bra = tuple(draw_spectral_points(rng, 2, cs=cs2, bp=bp))
    ket = tuple(draw_spectral_points(rng, 2, avoid=bra, cs=cs2, bp=bp))
    ops = operators(bra + ket, cs2, bp)
    base = scalar_product_direct(bra, ket, ops, cs2, bp)
    assert scalar_product_direct(bra[::-1], ket, ops, cs2, bp) == pytest.approx(base)
    assert scalar_product_direct(bra, ket[::-1], ops, cs2, bp) == pytest.approx(base)


def _check_placement(cs, bp, sols, rng, placement):
    # The formula takes the on-shell set first; the scalar product is
    # symmetric, so it must match the direct contraction with the on-shell
    # set placed as the bra or as the ket.
    for sol in sols:
        on = sol.roots
        free = tuple(draw_spectral_points(rng, len(on), avoid=on, cs=cs, bp=bp))
        bra, ket = (on, free) if placement == "bra" else (free, on)
        det_val = slavnov_modified(on, free, cs, bp)
        ref = scalar_product_direct(bra, ket, operators(on + free, cs, bp), cs, bp)
        assert abs(det_val - ref) <= SLAVNOV_TOL * max(abs(det_val), abs(ref))


@pytest.mark.parametrize("placement", ["bra", "ket"])
def test_slavnov_vs_direct_n1(cs1, bp, solved1, rng, placement):
    _check_placement(cs1, bp, solved1, rng, placement)


@pytest.mark.parametrize("placement", ["bra", "ket"])
def test_slavnov_vs_direct_n2(cs2, bp, solved2, rng, placement):
    _check_placement(cs2, bp, solved2, rng, placement)


def test_conditioning_warning(cs2, bp, solved2):
    on = solved2[0].roots
    close = (on[0] + 0.5 * PROXIMITY_THRESHOLD, on[1] + 0.8)
    with pytest.warns(ConditioningWarning):
        slavnov_modified(on, close, cs2, bp)


def test_slavnov_guards(cs2, bp, bp_diag, rng):
    roots = tuple(draw_spectral_points(rng, 2, cs=cs2, bp=bp))
    other = tuple(draw_spectral_points(rng, 2, avoid=roots, cs=cs2, bp=bp))
    with pytest.raises(ParameterError):
        slavnov_modified(roots, other[:1], cs2, bp)
    with pytest.raises(ParameterError):
        gaudin_korepin_norm(roots, cs2, bp_diag)
    with pytest.raises(ParameterError):
        gaudin_matrix(roots, cs2, bp_diag)
    with pytest.raises(ParameterError):
        gaudin_diagonal_derivative(roots, cs2, bp_diag)


def test_cauchy_factorization(rng, cs2, bp):
    for size in (1, 2, 3):
        free = tuple(draw_spectral_points(rng, size, cs=cs2, bp=bp))
        on = tuple(draw_spectral_points(rng, size, avoid=free, cs=cs2, bp=bp))
        det_val = det_small(cauchy_matrix(free, on))
        closed = cauchy_det_factorized(free, on)
        assert abs(det_val - closed) <= 1e-10 * max(abs(det_val), abs(closed))


def test_leading_jacobian_factorizes(cs2, bp, rng):
    # With the dressed part switched off every Jacobian row is an explicit
    # rational row, and the determinant collapses to the eigenvalue product
    # times the Cauchy determinant.
    on = tuple(draw_spectral_points(rng, 2, cs=cs2, bp=bp))
    free = tuple(draw_spectral_points(rng, 2, avoid=on, cs=cs2, bp=bp))
    jac = [
        [oracle_lambda_derivative(v, on, i, cs2, bp, dressed=False) for v in free]
        for i in range(2)
    ]
    lhs = det_small(jac)
    prod = 1.0 + 0j
    for v in free:
        prod = prod * eigenvalue_parts(v, on, cs2, bp)[1] / (2 * (v + 1))
    rhs = prod * det_small(cauchy_matrix(free, on))
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


def test_gaudin_diagonal_routes_agree(cs2, bp, solved2):
    for sol in solved2:
        explicit = gaudin_matrix(sol.roots, cs2, bp)
        derived = gaudin_diagonal_derivative(sol.roots, cs2, bp)
        assert len(derived) == len(sol.roots)
        for i, value in enumerate(derived):
            ref = explicit[i][i]
            assert abs(value - ref) <= 1e-10 * max(abs(value), abs(ref))


def test_norm_vs_direct(cs1, cs2, bp, solved1, solved2):
    for cs, sols in ((cs1, solved1), (cs2, solved2)):
        for sol in sols:
            ops = operators(sol.roots, cs, bp)
            ref = scalar_product_direct(sol.roots, sol.roots, ops, cs, bp)
            val = gaudin_korepin_norm(sol.roots, cs, bp)
            assert abs(val - ref) <= SLAVNOV_TOL * max(abs(val), abs(ref))


def test_norm_limit_n1(cs1, bp, solved1):
    sol = solved1[0]
    ref = gaudin_korepin_norm(sol.roots, cs1, bp)
    lim = norm_from_slavnov_limit(sol.roots, cs1, bp)
    assert abs(lim - ref) <= 1e-6 * max(abs(lim), abs(ref))


def test_slavnov_diagonal_vs_direct(cs2, bp_diag, solved2_diag, rng):
    assert slavnov_modified((), (), cs2, bp_diag) == 1.0
    for magnons in (1, 2):
        for sol in solved2_diag[magnons]:
            free = tuple(
                draw_spectral_points(rng, magnons, avoid=sol.roots, cs=cs2, bp=bp_diag)
            )
            det_val = slavnov_modified(sol.roots, free, cs2, bp_diag)
            ops = operators(sol.roots + free, cs2, bp_diag)
            ref = scalar_product_direct(free, sol.roots, ops, cs2, bp_diag)
            assert abs(det_val - ref) <= SLAVNOV_TOL * max(abs(det_val), abs(ref))


def test_n1_identities(cs1, bp, solved1, rng):
    u = draw_spectral_point(rng, cs=cs1, bp=bp)
    v = draw_spectral_point(rng, (u,), cs=cs1, bp=bp)
    out = n1_identities(u, v, cs1, bp, onshell_root=solved1[0].roots[0])
    assert out["four_way"] <= 1e-11
    assert out["plain_product"] <= 1e-11
    assert out["prescription"] <= 1e-11
    assert out["determinant_direct"] <= 1e-10
    assert out["determinant_general"] <= 1e-11
    assert set(out["values"]) == {"direct", "mixed", "plain_basis", "compact"}


def test_n1_guards(cs1, cs2, bp, bp_diag):
    with pytest.raises(ParameterError):
        n1_identities(0.3 + 0.1j, 0.7 - 0.2j, cs2, bp, 0.1 - 0.4j)
    with pytest.raises(ParameterError):
        n1_identities(0.3 + 0.1j, 0.7 - 0.2j, cs1, bp_diag, 0.1 - 0.4j)


def test_modified_product_reaches_diagonal_limit(cs2, bp, bp_diag, solved2_diag, rng):
    # Scaling both couplings by t sends rho ~ t^2 to zero.  Tracking the
    # full-sector on-shell roots along the path, the general determinant
    # formula must approach the diagonal one linearly in |rho|.
    v0 = solved2_diag[2][0].roots
    free = tuple(draw_spectral_points(rng, 2, avoid=v0, cs=cs2, bp=bp_diag))
    ref = slavnov_modified(v0, free, cs2, bp_diag)
    errors = []
    for t in (1e-1, 1e-2, 1e-3):
        bp_t = BoundaryParams(bp.p, bp.q, t * bp.xi_plus, t * bp.xi_minus)
        vt = refine_roots(v0, cs2, bp_t, tol=1e-13)
        val = slavnov_modified(vt, free, cs2, bp_t)
        err = abs(val / ref - 1)
        assert err <= 50 * abs(bp_t.rho)
        errors.append(err)
    assert errors[1] <= errors[0] / 20
    assert errors[2] <= errors[1] / 20
    assert errors[2] <= 1e-3


def oracle_slavnov_diagonal(bra_roots, ket_roots, cs, bp):
    """The diagonal-boundary determinant with its explicit product prefactor.

    The ket set is on shell.  ``slavnov_modified`` reaches the same value
    through ``(-1)^m`` times the contracted coefficient ``w0``.
    """
    on, free = tuple(ket_roots), tuple(bra_roots)
    pref = 1
    for i, v in enumerate(on):
        _, lam2 = vacuum_eigenvalues(v, cs, bp)
        pref = pref * lam2 * (2 * v + 1) / (v + bp.q)
        for vj in on[:i]:
            pref = pref * (v + vj + 2) / (v + vj)
    jac = slavnov_jacobians([free], on, cs, bp)[0]
    return pref * det_small(jac) / det_small(cauchy_matrix(free, on))


@pytest.mark.parametrize("precision", ["double", "extended"])
@pytest.mark.parametrize("magnons", [1, 2, 3])
def test_modified_product_at_diagonal_couplings(cs3, bp_diag, rng, magnons, precision):
    # Diagonal couplings are the rho = 0 case of the modified formula.
    sols = solve_bethe_diagonal(cs3, bp_diag, rng=rng)
    sols = [s for s in sols if len(s.roots) == magnons]
    assert sols
    for sol in sols[:3]:
        free = tuple(
            draw_spectral_points(rng, magnons, avoid=sol.roots, cs=cs3, bp=bp_diag)
        )
        val = complex(
            slavnov_modified(sol.roots, free, cs3, bp_diag, precision=precision)
        )
        for ref in (
            oracle_slavnov_diagonal(free, sol.roots, cs3, bp_diag),
            scalar_product_direct(
                free, sol.roots, operators(sol.roots + free, cs3, bp_diag), cs3, bp_diag
            ),
        ):
            assert abs(val - ref) <= 1e-11 * abs(ref)
