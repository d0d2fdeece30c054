"""Eigenvalue expressions, Bethe system, Jacobians, and the T-Q root solver."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import root_sets_match

from segment_bethe import bethe
from segment_bethe import kernels as kn
from segment_bethe import precision
from segment_bethe.bethe import (
    _bethe_system,
    _newton,
    bethe_residuals_scaled,
    det_small,
    eigenvalue_parts,
    lambda_total,
    lambda_total_derivative,
    normalize_root_set,
    refine_roots,
    residual_jacobian,
    root_terms,
    solve_bethe,
    solve_bethe_diagonal,
    transfer_branch_basis,
    unwanted_terms,
    vacuum_eigenvalues,
)
from segment_bethe.double_row import double_row, transfer_matrices, transfer_matrix
from segment_bethe.errors import ConvergenceError, ParameterError, PoleError
from segment_bethe.linalg import vacuum_state
from segment_bethe.params import (
    BoundaryParams,
    draw_boundary_params,
    draw_chain_spec,
    draw_spectral_point,
    draw_spectral_points,
)

STEP = 1e-6
DTOL = 1e-6


def test_vacuum_eigenvalues_from_operators(cs2, bp, rng):
    # The diagonal double-row entries act diagonally on the reference state;
    # the off-diagonal c entry kills it.
    u = draw_spectral_point(rng, cs=cs2, bp=bp)
    e = double_row(u, cs2, bp)
    vac = vacuum_state(cs2.sites)
    lam1, lam2 = vacuum_eigenvalues(u, cs2, bp)
    assert np.allclose(e.a @ vac, lam1 * vac)
    assert np.allclose(e.d @ vac, lam2 * vac)
    assert np.allclose(e.c @ vac, 0.0)
    assert np.linalg.norm(e.b @ vac) > 1e-6


def test_vacuum_eigenvalue_derivatives(cs2, bp, rng):
    u = draw_spectral_point(rng, cs=cs2, bp=bp)
    t = root_terms(u, cs2, bp)
    lam1, dlam1, lam2, dlam2 = t.lam1, t.dlam1, t.lam2, t.dlam2
    v1p, v2p = vacuum_eigenvalues(u + STEP, cs2, bp)
    v1m, v2m = vacuum_eigenvalues(u - STEP, cs2, bp)
    assert abs(lam1 - vacuum_eigenvalues(u, cs2, bp)[0]) == 0
    assert abs(dlam1 - (v1p - v1m) / (2 * STEP)) < DTOL * max(1.0, abs(dlam1))
    assert abs(dlam2 - (v2p - v2m) / (2 * STEP)) < DTOL * max(1.0, abs(dlam2))
    assert lam2 == vacuum_eigenvalues(u, cs2, bp)[1]


def test_eigenvalue_terms_sum(cs2, bp, rng):
    roots = tuple(draw_spectral_points(rng, 2, cs=cs2, bp=bp))
    u = draw_spectral_point(rng, roots, cs=cs2, bp=bp)
    dressed, inhomogeneous = eigenvalue_parts(u, roots, cs2, bp)
    assert lambda_total(u, roots, cs2, bp) == dressed + inhomogeneous
    dressed, inhomogeneous = unwanted_terms(roots, cs2, bp)
    assert len(dressed) == len(inhomogeneous) == 2


def test_lambda_total_derivative_finite_difference(cs2, bp, rng):
    roots = tuple(draw_spectral_points(rng, 2, cs=cs2, bp=bp))
    v = draw_spectral_point(rng, roots, cs=cs2, bp=bp)
    for i in range(2):
        got = lambda_total_derivative(v, roots, i, cs2, bp)
        up = list(roots)
        up[i] += STEP
        down = list(roots)
        down[i] -= STEP
        ref = (
            lambda_total(v, tuple(up), cs2, bp)
            - lambda_total(v, tuple(down), cs2, bp)
        ) / (2 * STEP)
        assert abs(got - ref) < DTOL * max(1.0, abs(got))


def test_residual_jacobian_finite_difference(cs2, bp, rng):
    roots = tuple(draw_spectral_points(rng, 2, cs=cs2, bp=bp))
    jac = residual_jacobian(roots, cs2, bp)
    for j in range(2):
        up = list(roots)
        up[j] += STEP
        down = list(roots)
        down[j] -= STEP
        rp = bethe_residuals_scaled(tuple(up), cs2, bp)[0]
        rm = bethe_residuals_scaled(tuple(down), cs2, bp)[0]
        for i in range(2):
            ref = (rp[i] - rm[i]) / (2 * STEP)
            assert abs(jac[i][j] - ref) < DTOL * max(1.0, abs(jac[i][j]))


def test_residuals_scaled_are_bounded_by_raw(cs2, bp, rng):
    roots = tuple(draw_spectral_points(rng, 2, cs=cs2, bp=bp))
    raw, scales = bethe_residuals_scaled(roots, cs2, bp)
    assert all(s > 0 for s in scales)
    dressed, inhomogeneous = unwanted_terms(roots, cs2, bp)
    assert raw == [d + g for d, g in zip(dressed, inhomogeneous)]


def test_det_small_matches_numpy(rng):
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    assert np.isclose(det_small([list(r) for r in a]), np.linalg.det(a))


def test_det_small_singular():
    assert det_small([[1.0, 2.0], [2.0, 4.0]]) == 0


def _coupled_squares(x):
    """x0^2 + x0 x1 = 3 and x1^2 = 2 on a ``(B, 2)`` stack; the Jacobian
    ``[[2 x0 + x1, x0], [0, 2 x1]]`` has an exactly zero first column
    where ``2 x0 + x1 = 0``."""
    x0, x1 = x[:, 0], x[:, 1]
    res = np.stack([x0 * x0 + x0 * x1 - 3, x1 * x1 - 2], axis=1)

    def jacobian():
        rows = [[2 * x0 + x1, x0], [np.zeros_like(x0), 2 * x1]]
        return np.stack([np.stack(row, axis=1) for row in rows], axis=1)

    return res, np.ones(x.shape), jacobian


def test_newton_fails_only_the_set_with_a_singular_jacobian():
    # The middle set starts where its Jacobian is exactly singular: it alone
    # is failed, and every other set of the stack returns what it returns
    # stepped alone.
    starts = np.array([[1.5, 1.2], [0.5, -1.0], [1.0, 1.6]], dtype=complex)
    with np.errstate(all="raise"):
        got = _newton(_coupled_squares, starts, 1e-14)
    x, err, _, _, failed = got
    assert failed.tolist() == [False, True, False]
    assert np.array_equal(x[1], starts[1])
    for k in (0, 2):
        alone = _newton(_coupled_squares, starts[k : k + 1], 1e-14)
        for part, one in zip(got, alone):
            assert np.array_equal(part[k], one[0])
        assert err[k] <= 1e-14


@given(
    data=st.lists(
        st.tuples(
            st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
            st.booleans(),
        ),
        min_size=1,
        max_size=4,
    ),
    seed=st.integers(min_value=0, max_value=999),
)
@settings(max_examples=100, deadline=None)
# Roots whose rounded sort keys tie: the order must follow neither the input
# nor the last-bit change a reflection leaves on a tiny real part.
@example(data=[(0j, False), (0j, False), (1e-10 + 0j, False)], seed=0)
@example(
    data=[(2.2250738585072014e-308 + 0j, False), (6.3e-201 + 1e-10j, True)], seed=0
)
def test_normalize_root_set_invariance(data, seed):
    # The representative must not depend on per-root reflections u -> -u-1
    # or on the input order.
    roots = [u for u, _ in data]
    flipped = [(-u - 1 if flip else u) for u, flip in data]
    perm = np.random.default_rng(seed).permutation(len(flipped))
    shuffled = [flipped[i] for i in perm]
    base = normalize_root_set(roots)
    assert normalize_root_set(shuffled) == pytest.approx(base)


def test_root_sets_match_cases():
    a = (0.3 + 0.1j, -0.9 + 0.4j)
    assert root_sets_match(a, (a[1], a[0]))
    assert root_sets_match(a, (-a[0] - 1, a[1]))
    assert not root_sets_match(a, (a[0] + 0.1, a[1]))
    assert not root_sets_match(a, a[:1])


def test_refine_roots_recovers_solution(cs2, bp, solved2):
    sol = solved2[0]
    noisy = tuple(r + 1e-5 * (1 + 1j) for r in sol.roots)
    polished = refine_roots(noisy, cs2, bp, tol=1e-12)
    assert root_sets_match(polished, sol.roots, 1e-8)
    raw, scales = bethe_residuals_scaled(polished, cs2, bp)
    assert max(abs(r) / s for r, s in zip(raw, scales)) <= 1e-12


def _stalling_draw():
    """An N = 4 problem on which one T-Q seed stalls the polish above 1e-12.

    The couplings, chain and solver generator follow the solve-table seeding
    (draw 7); the solver still certifies all 16 branches there.
    """
    bp = draw_boundary_params(np.random.default_rng(1007))
    cs = draw_chain_spec(np.random.default_rng(2007), 4)
    return cs, bp, np.random.default_rng(7)


def test_polish_returns_residuals_at_its_roots(monkeypatch, cs2, bp, solved2):
    # The polish hands on, per set, the residuals and scales of Newton's last
    # evaluation, at the roots it returns, whether Newton met its 1e-12 stop
    # or stalled above it (one seed of the N = 4 draw).
    problems = [
        (
            np.array([[r + 1e-5 * (1 + 1j) for r in sol.roots] for sol in solved2]),
            cs2,
            bp,
        )
    ]
    real = bethe._refine

    def recording(x, cs, bp, tol):
        problems.append((x, cs, bp))
        return real(x, cs, bp, tol)

    monkeypatch.setattr(bethe, "_refine", recording)
    assert len(solve_bethe(*_stalling_draw())) == 16
    monkeypatch.undo()
    errors = []
    for seeds, cs, bp_ in problems:
        roots, err, raw, scales, failed = bethe._refine(seeds, cs, bp_, 1e-12)
        assert not failed.any()
        errors.extend(err)
        again = _bethe_system(roots, cs, bp_)
        assert np.array_equal(raw, again[0]) and np.array_equal(scales, again[1])
        assert np.array_equal(err, (np.abs(raw) / scales).max(axis=1))
    assert max(errors) > 1e-12


def test_stalled_polish_makes_no_extended_precision_call(monkeypatch):
    def refuse(self, real, imag):
        raise RuntimeError("extended precision on the solve path")

    monkeypatch.setattr(precision.DecimalComplex, "__init__", refuse)
    assert len(solve_bethe(*_stalling_draw())) == 16


def test_newton_returns_its_best_iterate_when_it_cannot_reach_tol(monkeypatch):
    # x^2 - 2 has a rounding floor of about 2e-16 in double, so Newton stalls
    # above a 1e-30 tolerance; exp(x) has no zero, so Newton runs out of
    # steps.  Both hand back the lowest-error point they evaluated, with the
    # residuals and scales of that point, instead of raising.
    def recorded(residual, derivative):
        seen = []

        def system(x):
            res, scales = residual(x), np.ones(x.shape)
            seen.append((x[0, 0], res[0, 0], scales[0, 0]))
            return res, scales, lambda: derivative(x)[:, :, None]

        return system, seen

    cases = [
        (lambda x: x * x - 2, lambda x: 2 * x, 100, 2**0.5),
        (np.exp, np.exp, 3, 1.5 - 3),
    ]
    for residual, derivative, max_iter, expected in cases:
        system, seen = recorded(residual, derivative)
        start = np.array([[1.5 + 0j]])
        monkeypatch.setattr(bethe, "NEWTON_MAX_ITER", max_iter)
        x, err, res, scales, failed = _newton(system, start, 1e-30)
        best = min(seen, key=lambda p: abs(p[1]) / p[2])
        assert err[0] > 1e-30 and not failed[0]
        assert (x[0, 0], res[0, 0], scales[0, 0]) == best
        assert err[0] == abs(res[0, 0]) / scales[0, 0]
        assert abs(x[0, 0] - expected) < 1e-12


@pytest.mark.parametrize("failure", ["pole", "nan"])
def test_trial_pole_or_nan_halves_only_its_branch(
    monkeypatch, cs2, bp, solved2, failure
):
    # Branch 1's first trial point hits a pole (raised by the system) or
    # comes out NaN: that branch halves its step and still converges, and
    # every other branch returns exactly what it returns polished alone.
    seeds = np.array([[r + 1e-4 * (1 + 1j) for r in sol.roots] for sol in solved2])
    alone = [bethe._refine(seeds[k : k + 1], cs2, bp, 1e-12) for k in range(4)]
    real = bethe._bethe_system
    calls, poisoned = [], []

    def faulty(x, cs, bp_):
        if len(calls) == 1:
            poisoned.append(x[1].copy())
        calls.append(len(x))
        hit = np.array([any(np.array_equal(row, p) for p in poisoned) for row in x])
        if hit.any() and failure == "pole":
            raise PoleError("f", x, 0.0)
        out = real(x, cs, bp_)
        if failure == "nan":
            out[0][hit] = np.nan
        return out

    monkeypatch.setattr(bethe, "_bethe_system", faulty)
    roots, err, raw, scales, failed = bethe._refine(seeds, cs2, bp, 1e-12)
    assert calls[1] == 4 and poisoned
    assert not failed.any() and (err <= 1e-12).all()
    assert not np.array_equal(roots[1], poisoned[0])
    for k in (0, 2, 3):
        x1, err1, raw1, scales1, _ = alone[k]
        assert np.array_equal(roots[k], x1[0]) and err[k] == err1[0]
        assert np.array_equal(raw[k], raw1[0]) and np.array_equal(scales[k], scales1[0])


def test_refine_roots_raises_above_tol(cs2, bp, solved2):
    # 1e-40 is out of reach in double: the polish stalls, refine_roots raises.
    with pytest.raises(ConvergenceError):
        refine_roots(solved2[0].roots, cs2, bp, tol=1e-40)


def test_certified_sets_cost_one_system_evaluation(monkeypatch):
    # At N = 2 nearly every T-Q seed meets the 1e-12 polish stop as it is, so
    # Newton evaluates the Bethe system once per set, all sets in one stack;
    # certifying the sets must read that evaluation, not repeat it.
    sets = []
    real = bethe._bethe_system

    def counted(*args, **kwargs):
        sets.append(len(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(bethe, "_bethe_system", counted)
    found = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        bp = draw_boundary_params(rng)
        cs = draw_chain_spec(rng, 2)
        found += len(solve_bethe(cs, bp, rng=rng))
    assert found == 80
    assert sum(sets) <= found + found // 10
    assert len(sets) <= 20 + found // 10


def test_solve_builds_reference_then_one_stack(count_raw_blocks, cs2, bp):
    # t(u) is built as one stack at the eigenbasis reference point, the 5
    # check points and the m + 2 nodes; no per-point transfer matrix is
    # built.
    sizes = count_raw_blocks()
    sols = solve_bethe(cs2, bp, rng=np.random.default_rng(91))
    assert len(sols) == 4
    assert sizes == [1 + 5 + cs2.sites + 2]


def test_ill_conditioned_reference_falls_back_to_stack(
    monkeypatch, count_raw_blocks, cs2, bp
):
    # The drawn reference is rejected once: the basis is built at the first
    # check point, already in the one stack, so nothing more is drawn or
    # built per point, and the solve is still complete.
    rng = np.random.default_rng(91)
    full = solve_bethe(cs2, bp, rng=rng)
    after_full = rng.random()
    sizes = count_raw_blocks()
    real = np.linalg.cond
    conds = []

    def first_ill(a, *args, **kwargs):
        conds.append(real(a, *args, **kwargs))
        return 1e9 if len(conds) == 1 else conds[-1]

    monkeypatch.setattr(np.linalg, "cond", first_ill)
    rng = np.random.default_rng(91)
    sols = solve_bethe(cs2, bp, rng=rng)
    assert len(conds) == 2
    assert sizes == [1 + 5 + cs2.sites + 2]
    assert rng.random() == after_full
    assert sorted(s.branch for s in sols) == [0, 1, 2, 3]
    for a in full:
        assert sum(root_sets_match(a.roots, b.roots, 1e-7) for b in sols) == 1


def test_no_well_conditioned_entry_raises(monkeypatch, cs2, bp):
    monkeypatch.setattr(np.linalg, "cond", lambda a, *args, **kwargs: np.nan)
    with pytest.raises(ConvergenceError, match="ill-conditioned"):
        solve_bethe(cs2, bp, rng=np.random.default_rng(91))


def _problems(sites):
    """Three draws per chain length, generic and diagonal, with a solver rng."""
    out = []
    for seed in range(3):
        rng = np.random.default_rng([sites, seed])
        bp_ = draw_boundary_params(rng)
        cs = draw_chain_spec(rng, sites)
        out.append((cs, bp_, rng))
        diag = BoundaryParams(bp_.p, bp_.q)
        out.append((cs, diag, np.random.default_rng([sites, seed, 1])))
    return out


def _solve(cs, bp_, rng, **kwargs):
    solve = solve_bethe_diagonal if bp_.diagonal_mode else solve_bethe
    return solve(cs, bp_, rng=rng, **kwargs)


@pytest.mark.parametrize("sites", [1, 2, 3, 4])
def test_batched_zeros_match_np_roots(monkeypatch, sites):
    # One eigvals on the stacked companion matrices gives, branch by branch,
    # the very zeros np.roots finds on each Baxter polynomial.
    seen = []
    real = bethe._polynomial_zeros

    def recording(poly):
        zs = real(poly)
        seen.append((poly, zs))
        return zs

    monkeypatch.setattr(bethe, "_polynomial_zeros", recording)
    for problem in _problems(sites):
        _solve(*problem)
    assert seen
    for poly, zs in seen:
        assert zs.shape == (poly.shape[0], poly.shape[1] - 1)
        for row, got in zip(poly, zs):
            assert np.array_equal(got, np.roots(row))


def test_branch_choice_is_that_branch_of_a_full_solve(cs2, bp):
    full = solve_bethe(cs2, bp, rng=np.random.default_rng(91))
    assert [s.branch for s in full] == [0, 1, 2, 3]
    for k in range(6):
        rng = np.random.default_rng(91)
        assert solve_bethe(cs2, bp, rng=rng, branch=k) == [full[k % 4]]


def test_branch_choice_moves_on_when_a_branch_fails(monkeypatch, cs2, bp):
    # The chosen branch is polished alone; when it fails, the others are
    # polished in one stack and the first of them, in order, that passes is
    # returned.
    full = solve_bethe(cs2, bp, rng=np.random.default_rng(91))
    real = bethe._refine
    calls = []

    def fail_first(x, cs, bp_, tol):
        calls.append(len(x))
        out = real(x, cs, bp_, tol)
        if len(calls) == 1:
            out[4][:] = True
        return out

    monkeypatch.setattr(bethe, "_refine", fail_first)
    sols = solve_bethe(cs2, bp, rng=np.random.default_rng(91), branch=3)
    assert calls == [1, 3]
    assert sols == [full[0]]


def test_branch_choice_draws_what_a_full_solve_draws(cs2, bp, bp_diag):
    def next_draws(**kwargs):
        rng, rng_diag = np.random.default_rng(91), np.random.default_rng(91)
        solve_bethe(cs2, bp, rng=rng, **kwargs)
        solve_bethe_diagonal(cs2, bp_diag, rng=rng_diag, **kwargs)
        return rng.random(), rng_diag.random()

    assert next_draws(branch=2) == next_draws()


def test_non_finite_tq_coefficients_lose_one_branch(monkeypatch, cs2, bp):
    # A branch whose least-squares coefficients come out NaN has no seed: it
    # is missing from the result, and the other branches still return.
    real = np.linalg.svd
    calls = []

    def nan_second(a, *args, **kwargs):
        u, s, vh = real(a, *args, **kwargs)
        calls.append(len(a))
        u[1] = np.nan
        return u, s, vh

    monkeypatch.setattr(np.linalg, "svd", nan_second)
    sols = solve_bethe(cs2, bp, rng=np.random.default_rng(91))
    assert calls == [4]
    assert [s.branch for s in sols] == [0, 2, 3]
    picked = solve_bethe(cs2, bp, rng=np.random.default_rng(91), branch=1)
    assert [s.branch for s in picked] == [2]


def test_solve_bethe_completeness_n1(solved1):
    assert len(solved1) == 2
    assert all(s.on_shell for s in solved1)
    assert all(len(s.roots) == 1 for s in solved1)
    assert all(s.eigenvalue_residual <= 1e-8 for s in solved1)


def test_solve_bethe_completeness_n2(solved2):
    assert len(solved2) == 4
    assert all(s.on_shell for s in solved2)
    assert sorted(s.branch for s in solved2) == [0, 1, 2, 3]
    for i, a in enumerate(solved2):
        for b in solved2[i + 1 :]:
            assert not root_sets_match(a.roots, b.roots)


def test_solved_eigenvalues_in_spectrum(cs2, bp, solved2, rng):
    # The eigenvalue expression on each root set must reproduce an actual
    # transfer-matrix eigenvalue at a fresh spectral point.
    probe = draw_spectral_point(rng, cs=cs2, bp=bp)
    spectrum = np.linalg.eigvals(transfer_matrix(probe, cs2, bp))
    for sol in solved2:
        lam = lambda_total(probe, sol.roots, cs2, bp)
        assert min(abs(spectrum - lam)) <= 1e-8 * max(1.0, abs(lam))


def test_solutions_independent_of_rng_seed(cs2, bp):
    # The generator only picks the eigenbasis reference, the T-Q nodes and
    # the check points; the certified root sets are those of the chain.
    first = solve_bethe(cs2, bp, rng=np.random.default_rng(42))
    second = solve_bethe(cs2, bp, rng=np.random.default_rng(43))
    assert len(first) == len(second) == 4
    for a in first:
        assert sum(root_sets_match(a.roots, b.roots, 1e-7) for b in second) == 1


def test_tq_relation_on_solved_sets(cs2, bp, solved2, rng):
    # Lambda(u) Q(u) = abar lam1 Q(u-1) + dbar lam2 Q(u+1) + rho phit lam1 lam2,
    # with Lambda an actual transfer-matrix eigenvalue at a fresh point.
    for u in draw_spectral_points(rng, 3, cs=cs2, bp=bp):
        spectrum = np.linalg.eigvals(transfer_matrix(u, cs2, bp))
        lam1, lam2 = vacuum_eigenvalues(u, cs2, bp)
        inhom = bp.rho * kn.tilde_phi(u, bp.p) * lam1 * lam2
        for sol in solved2:
            own = kn.Q_product(u, sol.roots)
            down = kn.alpha_bar(u, bp) * lam1 * kn.Q_product(u - 1, sol.roots)
            up = kn.delta_bar(u, bp) * lam2 * kn.Q_product(u + 1, sol.roots)
            scale = max(abs(own * spectrum)) + abs(down) + abs(up) + abs(inhom)
            gap = min(abs(spectrum * own - down - up - inhom))
            assert gap <= 1e-10 * scale


@pytest.mark.parametrize("seed", range(10))
def test_solve_bethe_completeness_n4(seed):
    rng = np.random.default_rng(seed)
    bp4 = draw_boundary_params(rng)
    cs4 = draw_chain_spec(rng, 4)
    sols = solve_bethe(cs4, bp4, rng=rng)
    assert sorted(s.branch for s in sols) == list(range(16))
    assert all(s.on_shell and s.eigenvalue_residual <= 1e-8 for s in sols)


def test_solver_mode_guards(cs1, bp, bp_diag, rng):
    with pytest.raises(ParameterError):
        solve_bethe(cs1, bp_diag, rng)
    with pytest.raises(ParameterError):
        solve_bethe_diagonal(cs1, bp, rng)


def _solve_stack(cs, bp, rng):
    """``t(u)`` at a solve's draw: the reference, 5 check points and
    ``sites + 2`` nodes."""
    points = draw_spectral_points(rng, cs.sites + 8, cs=cs, bp=bp)
    return transfer_matrices(points, cs, bp)


def _same_multiset(values, expected, rel):
    """Each of ``values`` matched to its own entry of ``expected``, nearest
    first, within ``rel`` of the largest expected magnitude."""
    left = list(expected)
    scale = max(abs(v) for v in left)
    for v in values:
        k = min(range(len(left)), key=lambda j: abs(left[j] - v))
        if abs(left.pop(k) - v) > rel * scale:
            return False
    return not left


def test_branch_table_rejects_a_stack_that_does_not_commute(cs2, bp, rng):
    t = _solve_stack(cs2, bp, rng)
    noise = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    with pytest.raises(ConvergenceError, match="failed to diagonalize"):
        transfer_branch_basis(np.concatenate([t, noise[None]]))


@pytest.mark.parametrize("sites", [1, 2, 3, 4])
def test_branch_table_rows_are_each_entrys_eigenvalues(sites):
    rng = np.random.default_rng([sites, 32])
    bp_ = draw_boundary_params(rng)
    cs = draw_chain_spec(rng, sites)
    t = _solve_stack(cs, bp_, rng)
    eigs = transfer_branch_basis(t)
    assert eigs.shape == (sites + 8, 2**sites)
    for row, entry in zip(eigs, t):
        assert _same_multiset(row, np.linalg.eigvals(entry), 1e-10)


def test_branch_table_rows_in_every_magnon_sector(cs3, bp_diag, rng):
    t = _solve_stack(cs3, bp_diag, rng)
    for m in range(4):
        sector = [k for k in range(8) if bin(k).count("1") == m]
        block = t[(...,) + np.ix_(sector, sector)]
        eigs = transfer_branch_basis(block)
        assert eigs.shape == (11, math.comb(3, m))
        for row, entry in zip(eigs, block):
            assert _same_multiset(row, np.linalg.eigvals(entry), 1e-10)


def test_branch_table_reference_row_is_in_branch_order(cs2, bp):
    # Row 0 is t(ref)'s spectrum sorted by rounded real, then imaginary
    # part: branch k of a solve is column k.
    t = _solve_stack(cs2, bp, np.random.default_rng(91))
    ref = transfer_branch_basis(t)[0]
    key = list(zip(np.round(ref.real, 9), np.round(ref.imag, 9)))
    assert key == sorted(key)
    assert _same_multiset(ref, np.linalg.eigvals(t[0]), 1e-10)


def test_diagonal_sector_counts(solved2_diag):
    assert len(solved2_diag[0]) == 1
    assert len(solved2_diag[1]) == 2
    assert len(solved2_diag[2]) == 1
    for sols in solved2_diag.values():
        for s in sols:
            assert s.on_shell and s.eigenvalue_residual <= 1e-8


@pytest.mark.parametrize("sites", [1, 2, 3])
def test_diagonal_solve_builds_one_stack_for_every_sector(monkeypatch, sites):
    # Every magnon sector reads one stacked build of t(u): the reference,
    # 5 check points and sites + 2 nodes.  The sets come in sector order.
    rng = np.random.default_rng([sites, 7])
    bp_ = draw_boundary_params(rng)
    cs = draw_chain_spec(rng, sites)
    stacks = []
    real = bethe.transfer_matrices

    def recorded(points, cs_, bp__):
        stacks.append(len(points))
        return real(points, cs_, bp__)

    monkeypatch.setattr(bethe, "transfer_matrices", recorded)
    sols = solve_bethe_diagonal(cs, BoundaryParams(bp_.p, bp_.q), rng=rng)
    assert stacks == [8 + sites]
    assert [len(s.roots) for s in sols] == [
        m for m in range(sites + 1) for _ in range(math.comb(sites, m))
    ]


def test_diagonal_branch_choice_gives_one_set_per_sector(cs2, bp_diag):
    # With branch=k each sector returns its branch k modulo the sector size.
    full = solve_bethe_diagonal(cs2, bp_diag, rng=np.random.default_rng(91))
    assert [(len(s.roots), s.branch) for s in full] == [(0, 0), (1, 0), (1, 1), (2, 0)]
    for k in range(3):
        picked = solve_bethe_diagonal(
            cs2, bp_diag, rng=np.random.default_rng(91), branch=k
        )
        assert picked == [full[0], full[1 + k % 2], full[3]]


def test_diagonal_empty_sector_is_vacuum(cs2, bp_diag, solved2_diag, rng):
    # Zero magnons: the dressed eigenvalue must match the vacuum expectation
    # value of the transfer matrix.
    sol = solved2_diag[0][0]
    assert sol.roots == ()
    probe = draw_spectral_point(rng, cs=cs2, bp=bp_diag)
    vac = vacuum_state(cs2.sites)
    expect = complex(vac @ transfer_matrix(probe, cs2, bp_diag) @ vac)
    lam = lambda_total(probe, (), cs2, bp_diag)
    assert abs(lam - expect) <= 1e-10 * max(1.0, abs(expect))
