"""Double-row monodromy construction, transfer matrix, exchange relations."""

import tracemalloc

import numpy as np
import pytest

from oracles import trace_aux

from segment_bethe import bethe
from segment_bethe import kernels as kn
from segment_bethe.boundary import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    k_minus,
    k_plus,
    q_similarity,
    r_matrix,
)
import segment_bethe.double_row as dr
from segment_bethe import linalg
from segment_bethe.double_row import (
    check_exchange_relations,
    double_row,
    hamiltonian,
    modified_entries,
    transfer_forms,
    transfer_matrices,
    transfer_matrix,
)
from segment_bethe.errors import (
    ConstructionError,
    DimensionError,
    ParameterError,
    PoleError,
)
from segment_bethe.linalg import (
    embed_two_site,
    identity,
    kron,
    relative_residual,
)
from segment_bethe.params import (
    BoundaryParams,
    ChainSpec,
    draw_boundary_params,
    draw_chain_spec,
    draw_spectral_point,
    draw_spectral_points,
)



def _dense_double_row(u, cs, bp):
    """Raw double-row matrix from dense products of embedded R-matrices."""
    n = cs.sites
    dim = 1 << (n + 1)
    bulk = identity(dim)
    for i, theta in enumerate(cs.thetas):
        bulk = bulk @ embed_two_site(r_matrix(u - theta), n + 1, 0, 1 + i)
    hat = identity(dim)
    for i in reversed(range(n)):
        hat = hat @ embed_two_site(r_matrix(u + cs.thetas[i]), n + 1, 0, 1 + i)
    return bulk @ kron(k_minus(u, bp), identity(dim // 2)) @ hat


def _entries(full, u):
    """Blocks a, b, c and the shifted d of a raw double-row matrix."""
    half = full.shape[0] // 2
    a = full[:half, :half]
    d = full[half:, half:] - a / (2 * u + 1)
    return a, full[:half, half:], full[half:, :half], d


@pytest.mark.parametrize("sites", [1, 2, 3, 4])
def test_operators_match_dense_oracle(sites, bp):
    rng = np.random.default_rng(1000 + sites)
    cs = draw_chain_spec(rng, sites)
    half = 1 << sites
    qm = q_similarity(bp)
    for u in draw_spectral_points(rng, 3, cs=cs, bp=bp):
        full = _dense_double_row(u, cs, bp)
        conjugated = (
            kron(np.linalg.inv(qm), identity(half)) @ full @ kron(qm, identity(half))
        )
        e = double_row(u, cs, bp)
        m = modified_entries(u, cs, bp)
        pairs = list(zip((e.a, e.b, e.c, e.d), _entries(full, u)))
        pairs += zip((m.a, m.b, m.c, m.d), _entries(conjugated, u))
        pairs.append(
            (
                transfer_matrix(u, cs, bp),
                trace_aux(kron(k_plus(u, bp), identity(half)) @ full),
            )
        )
        for op, oracle in pairs:
            assert relative_residual(op - oracle, oracle) <= 1e-13


def test_routes_agree_near_pole(cs2, bp):
    # Points within 0.02 of u = -1/2 yet outside the 1e-3 clearance of
    # draw_spectral_point: neither the modified-entry routes (1e-12) nor the
    # transfer forms may disagree there; each raises ConstructionError if so.
    rng = np.random.default_rng(2024)
    radius = rng.uniform(5e-4, 0.02, 2000)
    phase = rng.uniform(0.0, 2 * np.pi, 2000)
    for u in -0.5 + radius * np.exp(1j * phase):
        modified_entries(u, cs2, bp)
        transfer_matrix(u, cs2, bp)


def test_dimension_guard_allocates_nothing(bp):
    cs = ChainSpec.homogeneous(14)
    tracemalloc.start()
    try:
        with pytest.raises(DimensionError):
            double_row(0.3 + 0.2j, cs, bp)
        with pytest.raises(DimensionError):
            transfer_matrices([0.3 + 0.2j, -0.1 + 0.4j], cs, bp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_byte_limit_refuses_a_build_or_a_stack(monkeypatch, cs2, bp, rng):
    # At N = 2 a point's raw block is 8 x 8 complex, 1 KiB, and its build is
    # charged 8 KiB; its t(u) is 4 x 4 complex, 256 bytes.
    points = draw_spectral_points(rng, 33, cs=cs2, bp=bp)
    monkeypatch.setattr(linalg, "MAX_BYTES", 8 << 10)
    assert transfer_matrices(points[:1], cs2, bp).shape == (1, 4, 4)
    with pytest.raises(DimensionError, match="double-row build of 2 point"):
        transfer_matrices(points[:2], cs2, bp)
    # One point a chunk: each build fits, and 32 points fill the limit.
    monkeypatch.setattr(dr, "STACK_BYTES", 1 << 10)
    assert transfer_matrices(points[:32], cs2, bp).shape == (32, 4, 4)
    with pytest.raises(DimensionError, match="transfer-matrix stack"):
        transfer_matrices(points, cs2, bp)


class _Allocation(Exception):
    pass


def _allocation(*args, **kwargs):
    raise _Allocation


def test_byte_limit_admits_ten_sites_and_refuses_twelve(monkeypatch, bp):
    # A spectrum run at N sites stacks t(u) at N + 8 points.  The stack's and
    # the build's first allocations raise here, so nothing large is allocated
    # whatever the limit says: at N = 10 the 18-point stack (288 MiB) and one
    # point's build (512 MiB) pass the check and reach them; at N = 12 both
    # are refused before.
    monkeypatch.setattr(np, "empty", _allocation)
    monkeypatch.setattr(dr, "identity", _allocation)
    cs10, cs12 = ChainSpec.homogeneous(10), ChainSpec.homogeneous(12)
    points = [0.3 + 0.2j + 0.1 * k for k in range(20)]
    with pytest.raises(_Allocation):
        transfer_matrices(points[:18], cs10, bp)
    with pytest.raises(_Allocation):
        double_row(points[0], cs10, bp)
    with pytest.raises(DimensionError, match="transfer-matrix stack"):
        transfer_matrices(points, cs12, bp)
    with pytest.raises(DimensionError, match="double-row build"):
        double_row(points[0], cs12, bp)


def _relative_gap(a, b):
    return relative_residual(a - b, a, b)


@pytest.mark.parametrize("diagonal", [False, True])
@pytest.mark.parametrize("sites", [1, 2, 3, 4, 5])
def test_stack_matches_per_point(sites, diagonal):
    # At N = 5 a chunk holds 4 points, so the 12 points take three chunks.
    rng = np.random.default_rng(300 + sites)
    bp = draw_boundary_params(rng)
    if diagonal:
        bp = BoundaryParams(bp.p, bp.q)
    cs = draw_chain_spec(rng, sites)
    # As many points as one solve builds at this N: 5 checks, N + 2 nodes.
    points = draw_spectral_points(rng, sites + 7, cs=cs, bp=bp)
    stack = transfer_matrices(points, cs, bp)
    assert stack.shape == (len(points), 1 << sites, 1 << sites)
    for u, t in zip(points, stack):
        assert _relative_gap(t, transfer_matrix(u, cs, bp)) <= 1e-14
    with pytest.raises(ValueError):
        stack[0, 0, 0] = 0


def test_diagonal_sector_solve_reads_per_point_spectrum(
    monkeypatch, cs2, bp_diag
):
    # The diagonal solve takes every sector's eigenvalues from stacked
    # builds; every stack it read must be the per-point transfer matrices.
    stacks = []
    real = bethe.transfer_matrices

    def recorded(points, cs, bp):
        out = real(points, cs, bp)
        stacks.append((list(points), out))
        return out

    monkeypatch.setattr(bethe, "transfer_matrices", recorded)
    sols = bethe.solve_bethe_diagonal(cs2, bp_diag, rng=np.random.default_rng(77))
    assert len(sols) == 4
    assert stacks
    for points, stack in stacks:
        for u, t in zip(points, stack):
            assert _relative_gap(t, transfer_matrix(u, cs2, bp_diag)) <= 1e-14


def test_stack_pole_gate_names_the_point(cs2, bp, rng):
    points = draw_spectral_points(rng, 4, cs=cs2, bp=bp)
    bad = -0.5 + 2e-10j
    points[2] = bad
    with pytest.raises(PoleError) as err:
        transfer_matrices(points, cs2, bp)
    assert err.value.point == bad
    assert str(bad) in str(err.value)


def test_stack_route_gate_names_the_point(monkeypatch, cs2, bp, rng):
    points = draw_spectral_points(rng, 4, cs=cs2, bp=bp)
    good = q_similarity(bp)
    monkeypatch.setattr(
        dr, "q_similarity", lambda b: good + np.array([[1e-6, 0], [0, 0]])
    )
    # The route table is memoised per boundary: read it unmemoised here, so
    # the corrupted similarity reaches it and no corrupted table is kept.
    monkeypatch.setattr(dr, "_route_maps", dr._route_maps.__wrapped__)
    with pytest.raises(ConstructionError, match="construction routes") as err:
        transfer_matrices(points, cs2, bp)
    # Every point trips the corrupted similarity; the first one is named.
    assert f"u = {points[0]}" in str(err.value)


def test_stack_trace_gate_names_the_point(monkeypatch, cs2, bp, rng):
    points = draw_spectral_points(rng, 4, cs=cs2, bp=bp)
    bad = points[2]
    real = kn.alpha
    monkeypatch.setattr(
        kn, "alpha", lambda u, b: real(u, b) * (1 + 1e-6 * (u == bad))
    )
    with pytest.raises(ConstructionError, match="trace decomposition") as err:
        transfer_matrices(points, cs2, bp)
    assert f"u = {bad}" in str(err.value)
    assert f"u = {points[0]}" not in str(err.value)


@pytest.mark.parametrize("sites, sizes", [(4, [11]), (6, [1, 1, 1])])
def test_stack_chunks_stay_within_budget(count_raw_blocks, sites, sizes, bp):
    # One solve at N <= 4 is one chunk; from N = 6 on each point is its own.
    seen = count_raw_blocks()
    rng = np.random.default_rng(400 + sites)
    cs = draw_chain_spec(rng, sites)
    points = draw_spectral_points(rng, sum(sizes), cs=cs, bp=bp)
    transfer_matrices(points, cs, bp)
    assert seen == sizes


def test_transfer_matrix_is_a_one_point_stack(cs2, bp, bp_diag, rng):
    # The per-point transfer matrix equals the stacked build at one point,
    # frozen.
    for couplings in (bp, bp_diag):
        u = draw_spectral_point(rng, cs=cs2, bp=couplings)
        t = transfer_matrix(u, cs2, couplings)
        assert np.array_equal(t, transfer_matrices([u], cs2, couplings)[0])
        with pytest.raises(ValueError):
            t[0, 0] = 0


def test_act_on_the_identity_matches_one_point_reads(
    count_raw_blocks, cs3, bp, bp_diag, rng
):
    # The bra route on the identity stack runs the raw build's arithmetic,
    # so its entries equal the one-point reads bit for bit, and it builds
    # no raw block.
    for couplings in (bp, bp_diag):
        for u in draw_spectral_points(rng, 3, cs=cs3, bp=couplings):
            sizes = count_raw_blocks()
            plain, modified = dr.act([u] * 8, identity(8), cs3, couplings, [True] * 8)
            assert sizes == []
            pairs = list(zip(plain, double_row(u, cs3, couplings)))
            if couplings.diagonal_mode:
                assert modified is None
            else:
                pairs += zip(modified, modified_entries(u, cs3, couplings))
            for got, want in pairs:
                assert got.tobytes() == want.tobytes()


def test_act_charges_its_rows_before_allocating(monkeypatch, cs3, bp, rng):
    # K states at N sites run as 2K rows of 2^(N+1) complex numbers, and a
    # call is charged 8 times that: 8 * 64 * K * 2^N bytes.  A limit one byte
    # short refuses the call before its rows are allocated.
    u = draw_spectral_point(rng, cs=cs3, bp=bp)
    states = np.ones((5, 8), dtype=complex)
    monkeypatch.setattr(linalg, "MAX_BYTES", 8 * 64 * 5 * 8)
    dr.act([u] * 5, states, cs3, bp, [False] * 5)
    monkeypatch.setattr(linalg, "MAX_BYTES", 8 * 64 * 5 * 8 - 1)
    monkeypatch.setattr(np, "zeros", _allocation)
    with pytest.raises(DimensionError, match="double-row action on 5 state"):
        dr.act([u] * 5, states, cs3, bp, [False] * 5)


@pytest.mark.parametrize("diagonal", [False, True])
@pytest.mark.parametrize("sites", [1, 2, 3, 4, 5, 6])
def test_act_on_a_mixed_stack_matches_one_state_calls(sites, diagonal):
    # Each row of a stack with its own point and side gets exactly what a
    # call on that state alone gives.
    rng = np.random.default_rng(700 + sites)
    bp = draw_boundary_params(rng)
    if diagonal:
        bp = BoundaryParams(bp.p, bp.q)
    cs = draw_chain_spec(rng, sites)
    points = draw_spectral_points(rng, 3, cs=cs, bp=bp)
    us = [points[k % 3] for k in range(7)]
    duals = [k % 2 == 1 for k in range(7)]
    states = rng.normal(size=(7, 2**sites)) + 1j * rng.normal(size=(7, 2**sites))
    stacked = dr.act(us, states, cs, bp, duals)
    for k, (u, dual) in enumerate(zip(us, duals)):
        alone = dr.act([u], states[k : k + 1], cs, bp, [dual])
        for got, want in zip(stacked, alone):
            if diagonal and got is None:
                assert want is None
                continue
            for g, w in zip(got, want):
                assert g[k].tobytes() == w[0].tobytes()


def test_act_keeps_the_pole_guard(cs2, bp):
    with pytest.raises(PoleError):
        dr.act([-0.5 + 1e-14j], np.ones((1, 4)), cs2, bp, [False])
    # In a stack, the guard names the point of the state it trips at.
    pole = -0.5 + 1e-14j
    with pytest.raises(PoleError) as caught:
        dr.act([0.3 + 0.2j, pole, -0.1 + 0.4j], np.ones((3, 4)), cs2, bp, [False] * 3)
    assert caught.value.point == pole
    assert f"pole at {pole}" in str(caught.value)


def test_act_takes_a_point_and_a_side_per_state(cs2, bp):
    states = np.ones((2, 4))
    for us, duals in [
        (0.3 + 0.2j, [False, False]),  # one point for every state
        ([0.3 + 0.2j, 0.1 - 0.4j], False),  # one side for every state
        ([0.3 + 0.2j], [False, False]),
        ([0.3 + 0.2j, 0.1 - 0.4j], [False, True, False]),
    ]:
        with pytest.raises(ParameterError, match="a point and a side for each of 2"):
            dr.act(us, states, cs2, bp, duals)


def test_one_point_reads_refuse_a_list(cs2, bp):
    # A list of points used to build every point and return the first.
    for read in (double_row, modified_entries, transfer_matrix):
        read(0.3 + 0.2j, cs2, bp)
        with pytest.raises(TypeError):
            read([0.3 + 0.2j, 0.1 - 0.4j], cs2, bp)


def test_act_gate_flags_a_wrong_closed_form_row(monkeypatch, cs2, bp, rng):
    # One sign flipped in the b_bar row of the closed form: the conjugation
    # route disagrees on the states, so the vector gate raises.
    real = dr._route_maps
    flip = np.array([[1], [-1], [1], [1], [1], [1], [1], [1]])
    monkeypatch.setattr(dr, "_route_maps", lambda b: real(b) * flip)
    u = draw_spectral_point(rng, cs=cs2, bp=bp)
    states = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    for dual in (False, True):
        with pytest.raises(ConstructionError, match=r"modified entry 'b'"):
            dr.act([u, u], states, cs2, bp, [dual, dual])
    # In a 3-point stack only the middle state is nonzero, so only its
    # routes disagree, and the gate names its point, on either side.
    us = draw_spectral_points(rng, 3, cs=cs2, bp=bp)
    stack = np.zeros((3, 4), dtype=complex)
    stack[1] = states[0]
    for dual in (False, True):
        with pytest.raises(ConstructionError) as caught:
            dr.act(us, stack, cs2, bp, [not dual, dual, not dual])
        assert f"modified entry 'b' at u = {us[1]}:" in str(caught.value)


def test_gates_reject_nan(cs2):
    # p = 1e308 overflows the raw blocks to inf and the route comparison to
    # NaN; a gate that compares with ``>`` would let that through.
    bp = BoundaryParams(1e308, 2, 0.5, 0.7)
    with np.errstate(all="ignore"), pytest.raises(
        ConstructionError, match=r"routes disagree \(nan\)"
    ):
        transfer_matrices([0.3 + 0.2j, -0.1 + 0.4j], cs2, bp)


def test_double_row_pole_guard(cs1, bp):
    with pytest.raises(PoleError):
        double_row(-0.5, cs1, bp)


def test_cached_matrices_are_frozen(cs1, bp):
    # The one-point reads return frozen arrays; nothing is cached.
    u = 0.21 + 0.43j
    frozen = [*double_row(u, cs1, bp), *modified_entries(u, cs1, bp)]
    frozen.append(transfer_matrix(u, cs1, bp))
    for op in frozen:
        with pytest.raises(ValueError):
            op[0, 0] = 0


def test_transfer_is_boundary_trace(cs2, bp):
    # Independent assembly: trace over the aux space of K+ times the raw
    # double-row matrix, rebuilt here from the published blocks.
    u = 0.35 + 0.15j
    e = double_row(u, cs2, bp)
    raw = np.block(
        [
            [e.a, e.b],
            [e.c, e.d + e.a / (2 * u + 1)],
        ]
    )
    oracle = trace_aux(kron(k_plus(u, bp), identity(4)) @ raw)
    got = transfer_matrix(u, cs2, bp)
    assert relative_residual(got - oracle, got, oracle) <= 1e-13


def test_transfer_two_term_form(cs2, bp, rng):
    points = draw_spectral_points(rng, 5, cs=cs2, bp=bp)
    t, forms = transfer_forms(points, cs2, bp)
    assert forms.max() <= 1e-11
    assert np.array_equal(t, transfer_matrices(points, cs2, bp))


def _transfer_forms_oracle(u, cs, bp):
    """Both transfer-matrix forms from the one-point entries."""
    e = double_row(u, cs, bp)
    m = modified_entries(u, cs, bp)
    t1 = (
        kn.alpha(u, bp) * e.a
        + kn.delta(u, bp) * e.d
        + kn.beta(u, bp) * e.b
        + kn.gamma(u, bp) * e.c
    )
    t2 = kn.alpha_bar(u, bp) * m.a + kn.delta_bar(u, bp) * m.d
    return relative_residual(t1 - t2, t1, t2)


@pytest.mark.parametrize("sites_fixture", ["cs1", "cs2", "cs3"])
def test_stacked_transfer_forms_match_point_by_point(
    sites_fixture, bp, rng, request
):
    cs = request.getfixturevalue(sites_fixture)
    points = draw_spectral_points(rng, 5, cs=cs, bp=bp)
    got = transfer_forms(points, cs, bp)[1]
    assert got.shape == (5,)
    for k, u in enumerate(points):
        one = transfer_forms([u], cs, bp)[1]
        assert one.shape == (1,)
        assert abs(got[k] - one[0]) <= 2e-15
        assert abs(got[k] - _transfer_forms_oracle(u, cs, bp)) <= 2e-15


def test_transfer_forms_chunked_equal_unchunked(monkeypatch, cs2, bp, rng):
    points = draw_spectral_points(rng, 5, cs=cs2, bp=bp)
    whole = transfer_forms(points, cs2, bp)
    # Two points of 2^3-square raw blocks per chunk: chunks of 2, 2 and 1.
    monkeypatch.setattr(dr, "STACK_BYTES", 2 * 8 * 8 * 16)
    for got, one in zip(transfer_forms(points, cs2, bp), whole):
        assert np.array_equal(got, one)


def test_transfer_forms_flag_a_wrong_modified_coefficient(
    monkeypatch, cs2, bp, rng
):
    points = draw_spectral_points(rng, 5, cs=cs2, bp=bp)
    delta_bar = kn.delta_bar
    monkeypatch.setattr(kn, "delta_bar", lambda u, bp: -delta_bar(u, bp))
    # The build's own 1e-11 gate refuses the first point.
    with pytest.raises(ConstructionError, match="modified form disagrees") as err:
        transfer_forms(points, cs2, bp)
    assert f"at u = {complex(points[0])}" in str(err.value)


def test_transfer_forms_need_generic_couplings(cs2, bp_diag):
    # Diagonal couplings have no modified form: the build gives t(u) alone.
    t, forms = transfer_forms([0.3 + 0.1j], cs2, bp_diag)
    assert forms is None
    assert np.array_equal(t, transfer_matrices([0.3 + 0.1j], cs2, bp_diag))


def test_transfer_family_commutes(cs2, bp, rng):
    us = draw_spectral_points(rng, 4, cs=cs2, bp=bp)
    vs = draw_spectral_points(rng, 4, avoid=us, cs=cs2, bp=bp)
    for u, v in zip(us, vs):
        a = transfer_matrix(u, cs2, bp)
        b = transfer_matrix(v, cs2, bp)
        assert relative_residual(a @ b - b @ a, a @ b, b @ a) <= 1e-10


def test_crossing_symmetry(cs2, bp, rng):
    u = draw_spectral_point(rng, cs=cs2, bp=bp)
    t1 = transfer_matrix(u, cs2, bp)
    t2 = transfer_matrix(-u - 1, cs2, bp)
    assert relative_residual(t1 - t2, t1, t2) <= 1e-11


def test_hamiltonian_explicit_oracle(bp):
    # Rebuild the two-site Hamiltonian with raw kron sums.
    h = hamiltonian(ChainSpec.homogeneous(2), bp)
    i2 = np.eye(2, dtype=complex)
    oracle = (1 / bp.q) * (
        np.kron(SIGMA_Z, i2)
        + bp.xi_plus * np.kron(SIGMA_PLUS, i2)
        + bp.xi_minus * np.kron(SIGMA_MINUS, i2)
    )
    for sig in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        oracle = oracle + np.kron(sig, sig)
    oracle = oracle + (1 / bp.p) * np.kron(i2, SIGMA_Z)
    assert np.allclose(h, oracle)


def test_hamiltonian_commutes_with_transfer(bp, rng):
    cs0 = ChainSpec.homogeneous(3)
    h = hamiltonian(cs0, bp)
    for u in draw_spectral_points(rng, 3, bp=bp):
        t = transfer_matrix(u, cs0, bp)
        assert relative_residual(h @ t - t @ h, h @ t, t @ h) <= 1e-10


def test_hamiltonian_requires_homogeneous(cs2, bp):
    with pytest.raises(ParameterError):
        hamiltonian(cs2, bp)


def test_modified_entries_need_generic_couplings(cs1, bp_diag):
    with pytest.raises(ParameterError):
        modified_entries(0.3 + 0.2j, cs1, bp_diag)


def test_modified_entries_vacuum_action(cs2, bp, rng):
    # On the reference state the modified diagonal entries reduce to the
    # vacuum eigenvalues up to a b_bar remainder with fixed coefficients;
    # the annihilation entry no longer kills the vacuum but acts through
    # the same remainder structure.  Dual statements swap b_bar and c_bar
    # and trade xi_minus for xi_plus.
    from segment_bethe.bethe import vacuum_eigenvalues
    from segment_bethe.linalg import vacuum_state

    u = draw_spectral_point(rng, cs=cs2, bp=bp)
    m = modified_entries(u, cs2, bp)
    vac = vacuum_state(cs2.sites)
    lam1, lam2 = vacuum_eigenvalues(u, cs2, bp)
    rxm = bp.rho / bp.xi_minus
    rxp = bp.rho / bp.xi_plus
    pu, pm = kn.phi(u), kn.phi(-u - 1)

    b_vac = m.b @ vac
    cases = [
        (m.a @ vac, lam1 * vac - rxm * b_vac),
        (m.d @ vac, lam2 * vac + rxm * pu * b_vac),
        (
            m.c @ vac,
            rxm * (pm * lam1 - lam2) * vac - rxm * rxm * b_vac,
        ),
    ]
    c_vac = vac @ m.c
    cases += [
        (vac @ m.a, lam1 * vac - rxp * c_vac),
        (vac @ m.d, lam2 * vac + rxp * pu * c_vac),
        (
            vac @ m.b,
            rxp * (pm * lam1 - lam2) * vac - rxp * rxp * c_vac,
        ),
    ]
    for got, expected in cases:
        assert relative_residual(got - expected, got, expected) <= 1e-13


@pytest.mark.parametrize("sites_fixture", ["cs1", "cs2"])
def test_exchange_relations(sites_fixture, bp, rng, request):
    cs = request.getfixturevalue(sites_fixture)
    worst = 0.0
    for _ in range(5):
        u = draw_spectral_point(rng, cs=cs, bp=bp)
        v = draw_spectral_point(rng, (u,), cs=cs, bp=bp)
        res = check_exchange_relations(u, v, cs, bp)
        assert set(res) == {
            f"{fam}:{rel}"
            for fam in ("plain", "modified")
            for rel in ("bb", "cc", "ab", "ca", "db", "cd", "cb")
        }
        worst = max(worst, max(res.values()))
    assert worst <= 1e-11


def _exchange_oracle(u, v, entries, cs, bp):
    """The seven exchange residuals from memoised per-point entries."""
    au, bu, cu, du = entries(u, cs, bp)[:4]
    av, bv, cv, dv = entries(v, cs, bp)[:4]
    f, g, w = kn.f(u, v), kn.g(u, v), kn.w(u, v)
    h, k, n = kn.h(u, v), kn.k(u, v), kn.n(u, v)
    s, x, y, r, q = kn.s(u, v), kn.x(u, v), kn.y(u, v), kn.r(u, v), kn.q(u, v)
    sides = {
        "bb": (bu @ bv, bv @ bu),
        "cc": (cu @ cv, cv @ cu),
        "ab": (au @ bv, f * bv @ au + g * bu @ av + w * bu @ dv),
        "ca": (cv @ au, f * au @ cv + g * av @ cu + w * dv @ cu),
        "db": (du @ bv, h * bv @ du + k * bu @ dv + n * bu @ av),
        "cd": (cv @ du, h * du @ cv + k * dv @ cu + n * av @ cu),
        "cb": (
            cu @ bv,
            bv @ cu
            + s * au @ av
            + x * av @ au
            + y * du @ av
            + r * au @ dv
            + q * av @ du
            + w * du @ dv,
        ),
    }
    return {
        name: relative_residual(lhs - rhs, lhs, rhs)
        for name, (lhs, rhs) in sides.items()
    }


@pytest.mark.parametrize("sites_fixture", ["cs1", "cs2", "cs3"])
def test_stacked_exchange_relations_match_point_by_point(
    sites_fixture, bp, rng, request
):
    cs = request.getfixturevalue(sites_fixture)
    u = draw_spectral_point(rng, cs=cs, bp=bp)
    v = draw_spectral_point(rng, (u,), cs=cs, bp=bp)
    res = check_exchange_relations(u, v, cs, bp)
    for family, entries in (("plain", double_row), ("modified", modified_entries)):
        for name, oracle in _exchange_oracle(u, v, entries, cs, bp).items():
            got = res[f"{family}:{name}"]
            assert isinstance(got, float)
            assert abs(got - oracle) <= 2e-15


def test_exchange_relations_flag_a_shifted_k_minus(monkeypatch, cs2, bp, rng):
    # K^-(u + 1) is outside the reflection family diag(xi + u, xi - u), so
    # the double-row entries no longer close the reflection algebra.
    k_minus_ok = dr.k_minus
    monkeypatch.setattr(
        dr, "k_minus", lambda u, bp: k_minus_ok(np.asarray(u) + 1, bp)
    )
    u = draw_spectral_point(rng, cs=cs2, bp=bp)
    v = draw_spectral_point(rng, (u,), cs=cs2, bp=bp)
    res = check_exchange_relations(u, v, cs2, bp)
    assert len(res) == 14
    assert min(res.values()) > 1e-3


def test_exchange_relations_diagonal_skips_modified(cs2, bp_diag, rng):
    u = draw_spectral_point(rng, cs=cs2, bp=bp_diag)
    v = draw_spectral_point(rng, (u,), cs=cs2, bp=bp_diag)
    res = check_exchange_relations(u, v, cs2, bp_diag)
    assert all(key.startswith("plain:") for key in res)
    assert max(res.values()) <= 1e-11


def test_transfer_coefficients_match_k_plus(bp):
    # Trace coefficients over the aux space: the d-shift moves K+[1,1]/(2u+1)
    # into the coefficient of A, which then collapses to phi(u) (q + u).
    u = 0.6 + 0.1j
    kp = k_plus(u, bp)
    assert np.isclose(kn.alpha(u, bp), kp[0, 0] + kp[1, 1] / (2 * u + 1))
    assert np.isclose(kn.alpha(u, bp), kn.phi(u) * (bp.q + u))
    assert np.isclose(kn.delta(u, bp), kp[1, 1])
    assert np.isclose(kn.beta(u, bp), kp[1, 0])
    assert np.isclose(kn.gamma(u, bp), kp[0, 1])
