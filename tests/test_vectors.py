"""State construction, operator-action identities, and the string expansion."""

import numpy as np
import pytest

from oracles import table_state

import segment_bethe.double_row as dr
from segment_bethe import kernels as kn
from segment_bethe.bethe import eigenvalue_parts, unwanted_terms, vacuum_eigenvalues
from segment_bethe.errors import ParameterError
from segment_bethe.harness import RECORDS
from segment_bethe.params import (
    BoundaryParams,
    draw_boundary_params,
    draw_chain_spec,
    draw_spectral_point,
    draw_spectral_points,
)
from segment_bethe.vectors import (
    BRA,
    KET,
    MODIFIED,
    PLAIN,
    States,
    build_dual_psi,
    build_psi,
    check_c_action,
    check_cb_sweep,
    check_expansion,
    check_multiple_actions,
    check_offshell_action,
    diagonal_w0_product,
    w0_scalar,
    w_coefficients,
)

ACTION_TOL = 1e-9
EXPANSION_TOL = 1e-10
# Each key of check_offshell_action and the record that folds it.
OFFSHELL_RECORDS = {
    "right": "offshell-action-right",
    "left": "offshell-action-left",
    "partial_right": "multiple-actions",
    "partial_left": "multiple-actions",
    "central_right": "central-relation-right",
    "central_left": "central-relation-left",
}


def test_build_psi_permutation_invariant(cs2, bp, rng):
    roots = tuple(draw_spectral_points(rng, 3, cs=cs2, bp=bp))
    base = build_psi(roots, cs2, bp)
    dual = build_dual_psi(roots, cs2, bp)
    for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
        shuffled = tuple(roots[i] for i in perm)
        assert np.linalg.norm(
            build_psi(shuffled, cs2, bp) - base
        ) <= 1e-11 * np.linalg.norm(base)
        assert np.linalg.norm(
            build_dual_psi(shuffled, cs2, bp) - dual
        ) <= 1e-11 * np.linalg.norm(dual)


def test_build_psi_not_null(cs1, cs2, bp, rng):
    for cs in (cs1, cs2):
        roots = tuple(draw_spectral_points(rng, cs.sites, cs=cs, bp=bp))
        vec = build_psi(roots, cs, bp)
        assert vec.shape == (2**cs.sites,)
        assert np.linalg.norm(vec) > 1e-8


@pytest.mark.parametrize("diagonal", [False, True])
@pytest.mark.parametrize("sites", [1, 2, 3, 4, 5, 6])
def test_states_match_the_multiplied_out_entries(sites, diagonal):
    # Kets and bras of both families from the matrix-free memo against
    # whole one-point entries multiplied into the reference state.
    rng = np.random.default_rng(500 + sites)
    bp = draw_boundary_params(rng)
    if diagonal:
        bp = BoundaryParams(bp.p, bp.q)
    cs = draw_chain_spec(rng, sites)
    roots = tuple(draw_spectral_points(rng, sites, cs=cs, bp=bp))
    states = States(cs, bp)
    pairs = [
        (build_psi(roots, cs, bp), table_state(roots, cs, bp)),
        (build_dual_psi(roots, cs, bp), table_state(roots, cs, bp, dual=True)),
    ]
    for side in (KET, BRA):
        pairs.append(
            (
                states.state(side, PLAIN, roots),
                table_state(roots, cs, bp, dual=side.dual, plain=True),
            )
        )
    for got, want in pairs:
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_states_build_each_prefix_once(monkeypatch, cs3, bp, rng):
    # Strings sharing a prefix share its build: the ket at (u1, u2, u3) and
    # at (u1, u2, v) take four act calls, not six.
    calls = []
    real = dr.act

    def counted(u, states, cs, bp, dual=False):
        calls.append((u, dual))
        return real(u, states, cs, bp, dual=dual)

    monkeypatch.setattr("segment_bethe.vectors.act", counted)
    u1, u2, u3, v = draw_spectral_points(rng, 4, cs=cs3, bp=bp)
    states = States(cs3, bp)
    for roots in ((u1, u2, u3), (u1, u2, v), (u1, u2, u3)):
        states.state(KET, MODIFIED, roots)
    assert calls == [(u1, False), (u2, False), (u3, False), (v, False)]


def _offshell_draws(cs, couplings, rng, draws=3):
    """``check_offshell_action`` on ``draws`` fresh draws of N roots and u."""
    for _ in range(draws):
        roots = tuple(draw_spectral_points(rng, cs.sites, cs=cs, bp=couplings))
        u = draw_spectral_point(rng, roots, cs=cs, bp=couplings)
        yield check_offshell_action(u, roots, States(cs, couplings), cs, couplings)


@pytest.mark.parametrize("sites", [1, 2])
def test_offshell_action(sites, cs1, cs2, bp, bp_diag, rng):
    # The whole action and its dressed part on both sides; the central
    # relation only for generic couplings.  Each within its record's
    # tolerance.
    cs = cs1 if sites == 1 else cs2
    for couplings in (bp, bp_diag):
        for res in _offshell_draws(cs, couplings, rng):
            keys = set(OFFSHELL_RECORDS)
            if couplings.diagonal_mode:
                keys -= {"central_right", "central_left"}
            assert set(res) == keys
            for key, value in res.items():
                assert value <= RECORDS[OFFSHELL_RECORDS[key]][1]


@pytest.mark.parametrize("sites", [1, 2])
def test_central_relation(sites, cs1, cs2, bp, rng):
    cs = cs1 if sites == 1 else cs2
    for res in _offshell_draws(cs, bp, rng):
        assert res["central_right"] <= ACTION_TOL
        assert res["central_left"] <= ACTION_TOL


def test_root_count_guards(cs2, bp, bp_diag, rng):
    roots = (draw_spectral_point(rng, cs=cs2, bp=bp),)
    states, states_diag = States(cs2, bp), States(cs2, bp_diag)
    with pytest.raises(ParameterError):
        check_offshell_action(0.4 + 0.1j, roots, states, cs2, bp)
    with pytest.raises(ParameterError):
        check_offshell_action(0.4 + 0.1j, roots * 3, states_diag, cs2, bp_diag)
    with pytest.raises(ParameterError):
        check_c_action(0.4 + 0.1j, roots, states_diag, cs2, bp_diag)
    with pytest.raises(ParameterError):
        check_expansion(roots, states_diag, cs2, bp_diag)


def test_multiple_actions(cs2, bp, rng):
    roots = tuple(draw_spectral_points(rng, 2, cs=cs2, bp=bp))
    u = draw_spectral_point(rng, roots, cs=cs2, bp=bp)
    res = check_multiple_actions(u, roots, cs2, bp)
    assert set(res) == {"a_through_b", "d_through_b", "c_through_a", "c_through_d"}
    assert all(v <= EXPANSION_TOL for v in res.values())


def test_multiple_actions_diagonal(cs2, bp_diag, rng):
    roots = tuple(draw_spectral_points(rng, 2, cs=cs2, bp=bp_diag))
    u = draw_spectral_point(rng, roots, cs=cs2, bp=bp_diag)
    res = check_multiple_actions(u, roots, cs2, bp_diag)
    assert all(v <= EXPANSION_TOL for v in res.values())


def test_cb_sweep_and_c_action(cs2, bp, rng):
    for count in (1, 2, 3):
        roots = tuple(draw_spectral_points(rng, count, cs=cs2, bp=bp))
        u = draw_spectral_point(rng, roots, cs=cs2, bp=bp)
        states = States(cs2, bp)
        assert check_cb_sweep(u, roots, states, cs2, bp) <= ACTION_TOL
        assert check_c_action(u, roots, states, cs2, bp) <= ACTION_TOL


def test_expansion(cs1, cs2, bp, rng):
    for cs, count in ((cs1, 1), (cs2, 2), (cs2, 3)):
        roots = tuple(draw_spectral_points(rng, count, cs=cs, bp=bp))
        res = check_expansion(roots, States(cs, bp), cs, bp)
        assert res["right"] <= EXPANSION_TOL
        assert res["left"] <= EXPANSION_TOL
        assert res["w0_routes"] <= EXPANSION_TOL


def test_w_coefficients_single_root(cs2, bp, rng):
    u = draw_spectral_point(rng, cs=cs2, bp=bp)
    coeff = w_coefficients((u,), cs2, bp)
    lam1, lam2 = vacuum_eigenvalues(u, cs2, bp)
    expected = kn.phi(-u - 1) * lam1 - lam2
    assert coeff.levels[0][()] == pytest.approx(expected)
    assert coeff.levels[1][(0,)] == 1.0
    assert coeff.w0 == pytest.approx(expected)
    # The matrix route: (2 (rho - 1) / xi_minus) times the vacuum entry of
    # the one-root modified state.
    psi = build_psi((u,), cs2, bp)
    assert 2 * (bp.rho - 1) / bp.xi_minus * psi[0] == pytest.approx(expected)


def test_w0_scalar_symmetric(cs2, bp, rng):
    roots = tuple(draw_spectral_points(rng, 3, cs=cs2, bp=bp))
    base = w0_scalar(roots, cs2, bp)
    assert w0_scalar(roots[::-1], cs2, bp) == pytest.approx(base)
    assert w0_scalar((roots[1], roots[2], roots[0]), cs2, bp) == pytest.approx(base)


def test_w_coefficients_build_no_state(monkeypatch, cs2, bp, bp_diag, rng):
    # The coefficients are scalars of the roots alone: the matrix route to
    # w0 belongs to check_expansion, which reads its state from the memo.
    monkeypatch.setattr(dr, "_raw_blocks", None)
    monkeypatch.setattr(dr, "_times_double_row", None)
    for couplings in (bp, bp_diag):
        roots = tuple(draw_spectral_points(rng, 2, cs=cs2, bp=couplings))
        coeff = w_coefficients(roots, cs2, couplings)
        assert coeff.w0 == coeff.levels[0][()]


def test_diagonal_w0_product(cs2, bp_diag, solved2_diag):
    # At on-shell diagonal roots the contracted coefficient collapses to a
    # closed product.
    for magnons in (1, 2):
        for sol in solved2_diag[magnons]:
            lhs = complex(w0_scalar(sol.roots, cs2, bp_diag))
            rhs = diagonal_w0_product(sol.roots, cs2, bp_diag)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


def _central_rhs_size(u, roots, cs, bp):
    """Norm of the inhomogeneous-term combination relative to the state norm."""
    psi = build_psi(roots, cs, bp)
    rhs = eigenvalue_parts(u, roots, cs, bp)[1] * psi
    inhomogeneous = unwanted_terms(roots, cs, bp)[1]
    for i, ui in enumerate(roots):
        swapped = tuple(u if j == i else r for j, r in enumerate(roots))
        rhs = rhs + kn.F(u, ui) * inhomogeneous[i] * build_psi(swapped, cs, bp)
    return np.linalg.norm(rhs) / np.linalg.norm(psi)


def test_central_relation_scales_with_rho(cs2, bp, rng):
    # Scaling both couplings by t sends rho ~ t^2 to zero; the remainder side
    # of the relation must vanish linearly in |rho|, so size/|rho| approaches
    # a constant.  A wrong power would move the ratio by the |rho| span
    # (two orders of magnitude) instead of settling.
    roots = tuple(draw_spectral_points(rng, 2, cs=cs2, bp=bp))
    u = draw_spectral_point(rng, roots, cs=cs2, bp=bp)
    ratios = []
    sizes = []
    for t in (1.0, 0.3, 0.1, 0.05):
        bp_t = BoundaryParams(bp.p, bp.q, t * bp.xi_plus, t * bp.xi_minus)
        defect = check_offshell_action(u, roots, States(cs2, bp_t), cs2, bp_t)
        assert max(defect["central_right"], defect["central_left"]) <= ACTION_TOL
        size = _central_rhs_size(u, roots, cs2, bp_t)
        sizes.append(size)
        ratios.append(size / abs(bp_t.rho))
    tail = ratios[1:]
    assert max(tail) - min(tail) <= 0.1 * min(tail)
    assert sizes[-1] <= sizes[0] / 50
