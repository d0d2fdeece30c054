"""The formula layer's per-root-set tables against the per-entry formulas.

The oracles below are the per-entry constructions the tables replaced: each
residual (and its dressed and inhomogeneous parts), Jacobian entry,
eigenvalue derivative and norm-matrix entry recomputes its own vacuum
eigenvalues and kernel products, and the contracted coefficient ``w0`` is the symmetrised sum over all orderings.
They are kept here, as the dense ``embed_two_site`` construction is kept for
the operator layer, so the tables stay certified against them.
"""

import decimal
import math
from itertools import combinations, permutations

import numpy as np
import pytest

from oracles import d_alpha_bar, d_delta_bar, d_f_du, d_f_dv, d_h_du, d_h_dv

from segment_bethe import bethe
from segment_bethe import kernels as kn
from segment_bethe import scalar_products as sp
from segment_bethe.bethe import (
    RootTerms,
    _newton,
    bethe_residuals_scaled,
    eigenvalue_parts,
    refine_roots,
    residual_jacobian,
    root_terms,
    unwanted_terms,
    vacuum_eigenvalues,
)
from segment_bethe.errors import PoleError
from segment_bethe.params import (
    BoundaryParams,
    draw_boundary_params,
    draw_chain_spec,
    draw_spectral_points,
)
from segment_bethe.precision import (
    DEFAULT_DPS,
    GUARD_DIGITS,
    lift_problem,
    lift_roots,
    workdps,
)
from segment_bethe.scalar_products import (
    gaudin_diagonal_derivative,
    gaudin_korepin_norm,
    gaudin_matrix,
    slavnov_jacobians,
    slavnov_modified,
)
from segment_bethe.vectors import w0_scalar, w_coefficients

DOUBLE_TOL = 1e-13
EXTENDED_TOL = 1e-50
SIZES = (1, 2, 3, 4)


# ---------------------------------------------------------------------------
# Per-entry oracles.


def _others(roots, i):
    return tuple(roots[:i]) + tuple(roots[i + 1 :])


def vacuum_eigenvalue_derivatives(u, cs, bp):
    """(lam1, dlam1, lam2, dlam2) with derivatives in u."""
    return bethe._vacuum_derivatives(u, cs, bp)[:4]


def dressed_unwanted(i, roots, cs, bp):
    """Coefficient whose vanishing is the dressed part of the Bethe equation."""
    ui = roots[i]
    rest = _others(roots, i)
    lam1, lam2 = vacuum_eigenvalues(ui, cs, bp)
    return -kn.phi(-ui - 1) * kn.alpha_bar(ui, bp) * lam1 * kn.f_product(
        ui, rest
    ) + kn.phi(ui) * kn.delta_bar(ui, bp) * lam2 * kn.h_product(ui, rest)


def inhomogeneous_unwanted(i, roots, cs, bp):
    if bp.diagonal_mode:
        return 0j
    ui = roots[i]
    rest = _others(roots, i)
    lam1, lam2 = vacuum_eigenvalues(ui, cs, bp)
    return (
        bp.rho
        * (kn.tilde_phi(ui, bp.p) / (2 * ui + 1))
        * lam1
        * lam2
        / kn.Q_product(ui, rest)
    )


def oracle_residuals_scaled(roots, cs, bp):
    raw, scales = [], []
    for i, ui in enumerate(roots):
        t_d = dressed_unwanted(i, roots, cs, bp)
        t_g = inhomogeneous_unwanted(i, roots, cs, bp)
        rest = _others(roots, i)
        lam1, lam2 = vacuum_eigenvalues(ui, cs, bp)
        s = (
            abs(kn.phi(-ui - 1) * kn.alpha_bar(ui, bp) * lam1)
            * abs(kn.f_product(ui, rest))
            + abs(kn.phi(ui) * kn.delta_bar(ui, bp) * lam2)
            * abs(kn.h_product(ui, rest))
            + abs(t_g)
        )
        raw.append(t_d + t_g)
        scales.append(max(float(s), 1e-300))
    return raw, scales


def _sum_replaced(values, dvalues):
    total = 0
    for kk in range(len(values)):
        term = dvalues[kk]
        for mm, vm in enumerate(values):
            if mm != kk:
                term = term * vm
        total = total + term
    return total


def oracle_residual_jacobian(roots, cs, bp):
    m = len(roots)
    rows = []
    for i in range(m):
        ui = roots[i]
        rest = _others(roots, i)
        lam1, dlam1, lam2, dlam2 = vacuum_eigenvalue_derivatives(ui, cs, bp)
        pm = kn.phi(-ui - 1)
        dpm = 2 / ((2 * ui + 1) * (2 * ui + 1))
        pu = kn.phi(ui)
        dpu = kn.phi_and_derivative(ui)[1]
        ab, dab = kn.alpha_bar(ui, bp), d_alpha_bar(ui, bp)
        db, ddb = kn.delta_bar(ui, bp), d_delta_bar(ui, bp)
        c1 = pm * ab * lam1
        dc1 = dpm * ab * lam1 + pm * dab * lam1 + pm * ab * dlam1
        c2 = pu * db * lam2
        dc2 = dpu * db * lam2 + pu * ddb * lam2 + pu * db * dlam2
        f_vals = [kn.f(ui, uk) for uk in rest]
        h_vals = [kn.h(ui, uk) for uk in rest]
        pf = kn.f_product(ui, rest)
        ph = kn.h_product(ui, rest)
        row = [0j] * m
        if not bp.diagonal_mode:
            tp, dtp = kn.tilde_phi(ui, bp.p), kn.tilde_phi_and_derivative(ui, bp.p)[1]
            two = 2 * ui + 1
            c3 = bp.rho * (tp / two) * lam1 * lam2
            dc3 = bp.rho * (
                ((dtp * two - 2 * tp) / (two * two)) * lam1 * lam2
                + (tp / two) * (dlam1 * lam2 + lam1 * dlam2)
            )
            pq_inv = 1
            for uk in rest:
                pq_inv = pq_inv / kn.Q(ui, uk)
        df_du = [d_f_du(ui, uk) for uk in rest]
        dh_du = [d_h_du(ui, uk) for uk in rest]
        diag = -(dc1 * pf + c1 * _sum_replaced(f_vals, df_du)) + (
            dc2 * ph + c2 * _sum_replaced(h_vals, dh_du)
        )
        if not bp.diagonal_mode:
            sum_dq = 0
            for uk in rest:
                sum_dq = sum_dq + (2 * ui + 1) / kn.Q(ui, uk)
            diag = diag + dc3 * pq_inv - c3 * pq_inv * sum_dq
        row[i] = diag
        for jpos, j in enumerate([jj for jj in range(m) if jj != i]):
            uj = roots[j]
            pf_wo = ph_wo = 1
            for mm in range(len(rest)):
                if mm != jpos:
                    pf_wo = pf_wo * f_vals[mm]
                    ph_wo = ph_wo * h_vals[mm]
            val = -c1 * d_f_dv(ui, uj) * pf_wo + c2 * d_h_dv(ui, uj) * ph_wo
            if not bp.diagonal_mode:
                val = val + c3 * pq_inv * (2 * uj + 1) / kn.Q(ui, uj)
            row[j] = val
        rows.append(row)
    return rows


def oracle_lambda_derivative(v, roots, i, cs, bp, dressed=True, inhomogeneous=True):
    ui = roots[i]
    rest = _others(roots, i)
    lam1, lam2 = vacuum_eigenvalues(v, cs, bp)
    out = 0j
    if dressed:
        out = out + kn.alpha_bar(v, bp) * lam1 * d_f_dv(v, ui) * kn.f_product(
            v, rest
        )
        out = out + kn.delta_bar(v, bp) * lam2 * d_h_dv(v, ui) * kn.h_product(
            v, rest
        )
    if inhomogeneous and not bp.diagonal_mode:
        out = out + eigenvalue_parts(v, roots, cs, bp)[1] * (2 * ui + 1) / kn.Q(v, ui)
    return out


def _oracle_gaudin_diag(i, roots, cs, bp):
    ui = roots[i]
    rest = _others(roots, i)
    lam1, dlam1, lam2, dlam2 = vacuum_eigenvalue_derivatives(ui, cs, bp)
    pm, pu = kn.phi(-ui - 1), kn.phi(ui)
    ab, db = kn.alpha_bar(ui, bp), kn.delta_bar(ui, bp)
    tp = kn.tilde_phi(ui, bp.p)
    dtp_rel = kn.tilde_phi_and_derivative(ui, bp.p)[1] / tp
    q_m = kn.Q_product(-ui, rest)
    q_p = kn.Q_product(ui + 1, rest)
    sum_m = sum_p = 0
    for uk in rest:
        sum_m = sum_m + 1 / kn.Q(-ui, uk)
        sum_p = sum_p + 1 / kn.Q(ui + 1, uk)
    term1 = -pm * ab * lam1 * q_m * (
        (2 * ui - 1) * sum_m + (1 / ui - dtp_rel + d_alpha_bar(ui, bp) / ab)
    )
    term2 = pu * db * lam2 * q_p * (
        (2 * ui + 3) * sum_p + (1 / (ui + 1) - dtp_rel + d_delta_bar(ui, bp) / db)
    )
    term3 = -dlam1 * (pm * ab * q_m - bp.rho * tp * lam2 / (2 * ui + 1))
    term4 = dlam2 * (pu * db * q_p + bp.rho * tp * lam1 / (2 * ui + 1))
    return term1 + term2 + term3 + term4


def oracle_gaudin_matrix(roots, cs, bp, diag):
    mm = len(roots)
    if diag == "derivative":
        jac = oracle_residual_jacobian(roots, cs, bp)
    rows = []
    for i in range(mm):
        row = []
        for j in range(mm):
            if i == j:
                if diag == "explicit":
                    row.append(_oracle_gaudin_diag(i, roots, cs, bp))
                else:
                    row.append(kn.Q_product(roots[i], _others(roots, i)) * jac[i][i])
                continue
            uj = roots[j]
            rest = tuple(roots[k] for k in range(mm) if k not in (i, j))
            lam1, lam2 = vacuum_eigenvalues(uj, cs, bp)
            c1 = kn.phi(-uj - 1) * kn.alpha_bar(uj, bp) * lam1
            c2 = kn.phi(uj) * kn.delta_bar(uj, bp) * lam2
            row.append(
                (2 * uj + 1)
                * (c1 * kn.Q_product(-uj, rest) - c2 * kn.Q_product(uj + 1, rest))
            )
        rows.append(row)
    return rows


def _base_w(u1, rest, cs, bp):
    l1, l2 = vacuum_eigenvalues(u1, cs, bp)
    return kn.phi(-u1 - 1) * l1 * kn.f_product(u1, rest) - l2 * kn.h_product(u1, rest)


def oracle_w_value(part_out, part_keep, cs, bp):
    """Symmetrised nested product over all orderings of the contracted roots."""
    part_out = tuple(part_out)
    if not part_out:
        return 1.0 + 0j
    total = 0j
    for perm in permutations(part_out):
        prod = 1.0 + 0j
        for jdx, uj in enumerate(perm):
            prod = prod * _base_w(uj, perm[jdx + 1 :] + tuple(part_keep), cs, bp)
        total = total + prod
    return total / math.factorial(len(part_out))


# ---------------------------------------------------------------------------
# Problems and comparisons.


def _problem(size, seed, diagonal=False):
    rng = np.random.default_rng(7000 + 10 * size + seed)
    bp = draw_boundary_params(rng)
    if diagonal:
        bp = BoundaryParams(bp.p, bp.q)
    cs = draw_chain_spec(rng, size)
    roots = tuple(draw_spectral_points(rng, size, cs=cs, bp=bp))
    free = tuple(draw_spectral_points(rng, size, avoid=roots, cs=cs, bp=bp))
    return cs, bp, roots, free


@pytest.fixture(params=["double", "extended"])
def backend(request):
    """(lift, tolerance) for one backend; extended runs inside workdps()."""
    if request.param == "double":
        yield (lambda cs, bp, *sets: (cs, bp) + sets), DOUBLE_TOL
        return

    def lift(cs, bp, *sets):
        return lift_problem(cs, bp) + tuple(lift_roots(s) for s in sets)

    with workdps():
        yield lift, EXTENDED_TOL


def _close(got, ref, tol):
    """Matrices agree entry-wise, relative to the largest reference entry."""
    flat_got = [x for row in got for x in row]
    flat_ref = [x for row in ref for x in row]
    scale = max(abs(x) for x in flat_ref)
    return max(abs(a - b) for a, b in zip(flat_got, flat_ref)) <= tol * scale


def oracle_root_terms(u, cs, bp):
    """Every field from its own kernel call."""
    lam1, dlam1, lam2, dlam2 = vacuum_eigenvalue_derivatives(u, cs, bp)
    pm, pu = kn.phi(-u - 1), kn.phi(u)
    ab, db = kn.alpha_bar(u, bp), kn.delta_bar(u, bp)
    dpm, dpu = 2 / ((2 * u + 1) * (2 * u + 1)), kn.phi_and_derivative(u)[1]
    dab, ddb = d_alpha_bar(u, bp), d_delta_bar(u, bp)
    tp = dtp = None
    c3 = dc3 = 0j
    if not bp.diagonal_mode:
        tp, dtp = kn.tilde_phi(u, bp.p), kn.tilde_phi_and_derivative(u, bp.p)[1]
        two = 2 * u + 1
        c3 = bp.rho * (tp / two) * lam1 * lam2
        dc3 = bp.rho * (
            ((dtp * two - 2 * tp) / (two * two)) * lam1 * lam2
            + (tp / two) * (dlam1 * lam2 + lam1 * dlam2)
        )
    return RootTerms(
        u=u,
        lam1=lam1,
        dlam1=dlam1,
        lam2=lam2,
        dlam2=dlam2,
        pm=pm,
        dpm=dpm,
        pu=pu,
        dpu=dpu,
        ab=ab,
        dab=dab,
        db=db,
        ddb=ddb,
        tp=tp,
        dtp=dtp,
        c1=pm * ab * lam1,
        c2=pu * db * lam2,
        c3=c3,
        dc1=(dpm * ab + pm * dab) * lam1 + pm * ab * dlam1,
        dc2=(dpu * db + pu * ddb) * lam2 + pu * db * dlam2,
        dc3=dc3,
    )


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("diagonal", [False, True])
def test_root_terms_match_separate_kernels(size, diagonal):
    # One pass takes each kernel's operations in the same order, so in
    # double precision every field is equal, and at 60 digits it agrees.
    for seed in range(3):
        cs, bp, roots = _problem(size, seed, diagonal)[:3]
        for u in roots:
            assert root_terms(u, cs, bp) == oracle_root_terms(u, cs, bp)
        with workdps():
            cs_l, bp_l = lift_problem(cs, bp)
            for u in lift_roots(roots):
                got, ref = root_terms(u, cs_l, bp_l), oracle_root_terms(u, cs_l, bp_l)
                for name, a, b in zip(RootTerms._fields, got, ref):
                    if b is None:
                        assert a is None, name
                    else:
                        assert abs(a - b) <= 1e-55 * max(abs(b), 1e-300), name


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("diagonal", [False, True])
def test_one_pass_system_matches_per_entry(size, diagonal, backend):
    lift, tol = backend
    for seed in range(3):
        cs, bp, roots = lift(*_problem(size, seed, diagonal)[:3])
        raw, scales = bethe_residuals_scaled(roots, cs, bp)
        ref_raw, ref_scales = oracle_residuals_scaled(roots, cs, bp)
        for r, s, rr, rs in zip(raw, scales, ref_raw, ref_scales):
            assert abs(r - rr) <= tol * rs
            assert abs(s - rs) <= 1e-13 * rs
        assert _close(
            residual_jacobian(roots, cs, bp),
            oracle_residual_jacobian(roots, cs, bp),
            tol,
        )


# numpy's complex product fuses its multiply-adds and its quotient multiplies
# by a reciprocal, so a complex stack's entries may differ from the scalar
# arithmetic of a one-set call by a few units in the last place per
# operation (at most 1.6e-15 of the scale and 8e-15 of the row in 200 draws
# up to six roots).
STACK_TOL = 1e-14


def _stack_problem(size, seed, diagonal, count=5):
    cs, bp = _problem(size, seed, diagonal)[:2]
    rng = np.random.default_rng([size, seed])
    sets = [tuple(draw_spectral_points(rng, size, cs=cs, bp=bp)) for _ in range(count)]
    return cs, bp, sets


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("diagonal", [False, True])
def test_stack_system_matches_single_sets(size, diagonal):
    # A complex (B, m) stack gives each set's residuals, scales and Jacobian
    # as its own one-set call does, up to rounding.
    for seed in range(3):
        cs, bp, sets = _stack_problem(size, seed, diagonal)
        raw, scales, jacobian = bethe._bethe_system(np.array(sets), cs, bp)[:3]
        jac = jacobian()
        assert raw.shape == scales.shape == (5, size) and jac.shape == (5, size, size)
        for k, roots in enumerate(sets):
            ref_raw, ref_scales = bethe_residuals_scaled(roots, cs, bp)
            ref_jac = residual_jacobian(roots, cs, bp)
            assert max(abs(raw[k] - ref_raw) / ref_scales) <= STACK_TOL
            assert max(abs(scales[k] - ref_scales) / ref_scales) <= STACK_TOL
            for row, ref_row in zip(jac[k], ref_jac):
                assert max(abs(row - ref_row)) <= STACK_TOL * max(map(abs, ref_row))


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("diagonal", [False, True])
def test_sixty_digit_stack_equals_single_sets(size, diagonal):
    # An object stack of 60-digit sets takes every set's scalar operations
    # as its one-set call does: the values are equal.
    with workdps():
        cs, bp, sets = _stack_problem(size, 0, diagonal, count=3)
        cs, bp = lift_problem(cs, bp)
        sets = [lift_roots(roots) for roots in sets]
        stack = np.empty((3, size), dtype=object)
        stack[:] = sets
        raw, scales, jacobian, dressed, inhomogeneous = bethe._bethe_system(
            stack, cs, bp
        )
        jac = jacobian()
        for k, roots in enumerate(sets):
            assert (list(raw[k]), scales[k].tolist()) == bethe_residuals_scaled(
                roots, cs, bp
            )
            assert (list(dressed[k]), list(inhomogeneous[k])) == unwanted_terms(
                roots, cs, bp
            )
            assert [list(row) for row in jac[k]] == residual_jacobian(roots, cs, bp)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("diagonal", [False, True])
def test_unwanted_terms_equal_per_entry(size, diagonal):
    # The table and the per-entry formulas take the same operations in the
    # same order, so in double precision they agree exactly.
    for seed in range(3):
        cs, bp, roots = _problem(size, seed, diagonal)[:3]
        dressed, inhomogeneous = unwanted_terms(roots, cs, bp)
        assert dressed == [dressed_unwanted(i, roots, cs, bp) for i in range(size)]
        assert inhomogeneous == [
            inhomogeneous_unwanted(i, roots, cs, bp) for i in range(size)
        ]


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("diagonal", [False, True])
def test_unwanted_terms_match_per_entry_at_sixty_digits(size, diagonal):
    with workdps():
        for seed in range(3):
            cs, bp, roots = _problem(size, seed, diagonal)[:3]
            cs, bp = lift_problem(cs, bp)
            roots = lift_roots(roots)
            dressed, inhomogeneous = unwanted_terms(roots, cs, bp)
            scales = oracle_residuals_scaled(roots, cs, bp)[1]
            for i, scale in enumerate(scales):
                ref_d = dressed_unwanted(i, roots, cs, bp)
                ref_g = inhomogeneous_unwanted(i, roots, cs, bp)
                assert abs(dressed[i] - ref_d) <= EXTENDED_TOL * scale
                assert abs(inhomogeneous[i] - ref_g) <= EXTENDED_TOL * scale


def oracle_dressed_value(u, roots, cs, bp):
    lam1, lam2 = vacuum_eigenvalues(u, cs, bp)
    return kn.alpha_bar(u, bp) * lam1 * kn.f_product(u, roots) + kn.delta_bar(
        u, bp
    ) * lam2 * kn.h_product(u, roots)


def oracle_inhomogeneous_value(u, roots, cs, bp):
    if bp.diagonal_mode:
        return 0j
    lam1, lam2 = vacuum_eigenvalues(u, cs, bp)
    return bp.rho * kn.tilde_phi(u, bp.p) * lam1 * lam2 / kn.Q_product(u, roots)


def oracle_lambda_gradient(v, roots, cs, bp):
    """Every entry from its own kernel calls, in the table's operation order."""
    lam1, lam2 = vacuum_eigenvalues(v, cs, bp)
    out = []
    for i, ui in enumerate(roots):
        rest = _others(roots, i)
        entry = 0j
        entry = entry + kn.alpha_bar(v, bp) * lam1 * d_f_dv(v, ui) * kn.f_product(
            v, rest
        )
        entry = entry + kn.delta_bar(v, bp) * lam2 * d_h_dv(v, ui) * kn.h_product(
            v, rest
        )
        if not bp.diagonal_mode:
            lam_g = bp.rho * kn.tilde_phi(v, bp.p) * lam1 * lam2 / kn.Q_product(v, roots)
            entry = entry + lam_g * (2 * ui + 1) / kn.Q(v, ui)
        out.append(entry)
    return out


def oracle_tq_terms(w, m, cs, bp):
    lam1, lam2 = vacuum_eigenvalues(w, cs, bp)
    powers = np.arange(m + 1)
    own = (w * (w + 1)) ** powers
    down = kn.alpha_bar(w, bp) * lam1 * ((w - 1) * w) ** powers
    up = kn.delta_bar(w, bp) * lam2 * ((w + 1) * (w + 2)) ** powers
    rhs = 0j if bp.diagonal_mode else bp.rho * kn.tilde_phi(w, bp.p) * lam1 * lam2
    return own, down + up, rhs


def _eigenvalue_routes(v, roots, cs, bp):
    """(table route, kernel-by-kernel oracle) pairs of every eigenvalue
    function at ``v``."""
    dressed = oracle_dressed_value(v, roots, cs, bp)
    inhomogeneous = oracle_inhomogeneous_value(v, roots, cs, bp)
    pairs = list(
        zip(eigenvalue_parts(v, roots, cs, bp), (dressed, inhomogeneous))
    ) + [(bethe.lambda_total(v, roots, cs, bp), dressed + inhomogeneous)]
    pairs += zip(
        bethe.lambda_gradient_rows([v], roots, cs, bp)[0],
        oracle_lambda_gradient(v, roots, cs, bp),
    )
    return pairs


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("diagonal", [False, True])
def test_coefficient_table_matches_kernels(size, diagonal):
    # Every eigenvalue evaluation reads one coefficient table per point and
    # takes the kernels' operations in their order, so in double precision
    # each value is equal, and at 60 digits it agrees.
    for seed in range(3):
        cs, bp, roots, free = _problem(size, seed, diagonal)
        for k in range(size + 1):
            for v in free:
                for got, ref in _eigenvalue_routes(v, roots[:k], cs, bp):
                    assert got == ref
                got = bethe._tq_terms(v, k, cs, bp)
                ref = oracle_tq_terms(v, k, cs, bp)
                assert np.array_equal(got[0], ref[0])
                assert np.array_equal(got[1], ref[1])
                assert got[2] == ref[2]
        with workdps():
            cs_l, bp_l = lift_problem(cs, bp)
            roots_l, free_l = lift_roots(roots), lift_roots(free)
            for v in free_l:
                for got, ref in _eigenvalue_routes(v, roots_l, cs_l, bp_l):
                    assert abs(got - ref) <= 1e-55 * max(abs(ref), 1e-300)


@pytest.mark.parametrize("size", SIZES)
# The ids are the ones these two cases had when the Jacobian still took
# switches for its dressed and inhomogeneous parts, so each check keeps its
# name across versions.
@pytest.mark.parametrize("diagonal", [False, True], ids=["False-flags0", "True-flags3"])
def test_slavnov_jacobian_matches_per_entry(size, diagonal, backend):
    lift, tol = backend
    for seed in range(3):
        cs, bp, on, free = lift(*_problem(size, seed, diagonal))
        got = slavnov_jacobians([free], on, cs, bp)[0]
        ref = [
            [oracle_lambda_derivative(v, on, i, cs, bp) for v in free]
            for i in range(size)
        ]
        assert _close(got, ref, tol)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("diag", ["explicit", "derivative"])
def test_gaudin_matrix_matches_per_entry(size, diag, backend):
    # ``explicit``: the whole matrix; ``derivative``: the second route to
    # its diagonal against the oracle matrix's derivative-route diagonal.
    lift, tol = backend
    for seed in range(3):
        cs, bp, roots = lift(*_problem(size, seed)[:3])
        ref = oracle_gaudin_matrix(roots, cs, bp, diag)
        if diag == "explicit":
            assert _close(gaudin_matrix(roots, cs, bp), ref, tol)
        else:
            got = gaudin_diagonal_derivative(roots, cs, bp)
            assert _close([got], [[ref[i][i] for i in range(size)]], tol)


@pytest.mark.parametrize("size", (1, 2, 3, 4, 5))
def test_w0_recursion_matches_permutation_sum(size, backend):
    lift, tol = backend
    tol = 1e-12 if tol == DOUBLE_TOL else tol
    for seed in range(2):
        cs, bp, roots = lift(*_problem(size, seed)[:3])
        got = w0_scalar(roots, cs, bp)
        ref = oracle_w_value(roots, (), cs, bp)
        assert abs(got - ref) <= tol * abs(ref)


@pytest.mark.parametrize("size", (1, 2, 3, 4))
def test_w_coefficients_match_permutation_sum(size):
    cs, bp, roots = _problem(size, 0)[:3]
    coeff = w_coefficients(roots, cs, bp)
    for i, level in coeff.levels.items():
        assert set(level) == set(combinations(range(size), i))
        for keep, value in level.items():
            out = tuple(roots[j] for j in range(size) if j not in keep)
            ref = oracle_w_value(out, tuple(roots[j] for j in keep), cs, bp)
            assert abs(value - ref) <= 1e-12 * abs(ref)


# ---------------------------------------------------------------------------
# Lazy Jacobian in Newton.


def _square_root_system(builds, failure=None):
    """x^2 - 2 = 0 on a one-set stack; the Jacobian builds are recorded, and
    with ``failure`` the build at the first trial point raises it."""
    points = []

    def system(x):
        index = len(points)
        points.append(x[0, 0])

        def jacobian():
            if failure is not None and index == 1:
                raise failure
            builds.append(x[0, 0])
            return 2 * x[:, :, None]

        return x * x - 2, np.ones(x.shape), jacobian

    return system


def test_newton_builds_one_jacobian_per_step():
    # From 1.5, Newton reaches |x^2 - 2| <= 1e-4 in exactly two steps.
    builds = []
    x, err, _, _, failed = _newton(_square_root_system(builds), np.array([[1.5]]), 1e-4)
    assert err[0] <= 1e-4 and not failed[0]
    assert abs(x[0, 0] - math.sqrt(2)) < 1e-5
    assert builds == [1.5, pytest.approx(17 / 12)]


def test_refine_builds_jacobians_only_for_steps_taken(monkeypatch, cs2, bp, solved2):
    calls = {"systems": 0, "builds": 0}
    real = bethe._bethe_system

    def counted(x, cs, bp):
        raw, scales, jacobian = real(x, cs, bp)[:3]
        calls["systems"] += 1

        def counted_jacobian():
            calls["builds"] += 1
            return jacobian()

        return raw, scales, counted_jacobian

    monkeypatch.setattr(bethe, "_bethe_system", counted)
    with workdps():
        roots, cs, bp = (lift_roots(solved2[0].roots),) + lift_problem(cs2, bp)
        refine_roots(roots, cs, bp, tol=1e-40)
    # Every evaluated point but the accepted last one was stepped from.
    assert calls["builds"] == calls["systems"] - 1 == 2


@pytest.mark.parametrize(
    "failure", [PoleError("d_f_du", 1.5, 0.0), ZeroDivisionError("division")]
)
def test_newton_halves_when_trial_jacobian_fails(failure):
    builds = []
    system = _square_root_system(builds, failure)
    x, err, _, _, failed = _newton(system, np.array([[1.5]]), 1e-10)
    assert err[0] <= 1e-10 and not failed[0]
    assert abs(x[0, 0] - math.sqrt(2)) < 1e-9
    # The full first step was refused, the halved one taken.
    assert builds[:2] == [1.5, pytest.approx(1.5 - 0.5 / 12)]


# ---------------------------------------------------------------------------
# Working precision.


def test_extended_formulas_run_at_sixty_digits(monkeypatch, cs2, bp, solved2):
    seen = []
    real = sp.w0_scalar
    outer = decimal.getcontext().prec

    def recording(*args):
        seen.append(decimal.getcontext().prec - GUARD_DIGITS)
        return real(*args)

    monkeypatch.setattr(sp, "w0_scalar", recording)
    on = solved2[0].roots
    rng = np.random.default_rng(3)
    free = tuple(draw_spectral_points(rng, 2, avoid=on, cs=cs2, bp=bp))
    slavnov_modified(on, free, cs2, bp, precision="extended")
    gaudin_korepin_norm(on, cs2, bp, precision="extended")
    assert seen == [DEFAULT_DPS, DEFAULT_DPS]
    assert decimal.getcontext().prec == outer


def _rho_defect(bp):
    rho = bp.rho
    return abs(rho * rho - 2 * rho - bp.xi_plus * bp.xi_minus)


def test_lifted_rho_follows_working_precision(bp):
    cs = draw_chain_spec(np.random.default_rng(1), 1)
    _, lifted = lift_problem(cs, bp)
    with workdps():
        assert _rho_defect(lifted) < 1e-50

    _, lifted = lift_problem(cs, bp)
    low = lifted.rho
    assert _rho_defect(lifted) < 1e-14
    with workdps():
        assert _rho_defect(lifted) < 1e-50
        high = lifted.rho
    assert abs(low - high) < 1e-14
    assert lifted.rho is low
    assert lifted == lift_problem(cs, bp)[1]


def test_rho_memo_is_not_a_field():
    a = BoundaryParams(1.0, 2.0, 0.3 + 0.1j, 0.4)
    b = BoundaryParams(1.0, 2.0, 0.3 + 0.1j, 0.4)
    with workdps():
        a.rho
    assert a == b and hash(a) == hash(b)
    assert "_rho_memo" not in repr(a)
    assert "diagonal_mode" not in repr(a) and not a.diagonal_mode
