"""Parameter containers, degeneracy guards, and the rejection samplers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segment_bethe import params
from segment_bethe.errors import ParameterError
from segment_bethe.params import (
    GENERIC_TOL,
    THETA_RADIUS,
    BoundaryParams,
    ChainSpec,
    draw_boundary_params,
    draw_chain_spec,
    draw_spectral_point,
    draw_spectral_points,
)

nonzero_coupling = st.complex_numbers(
    min_magnitude=0.2, max_magnitude=1.5, allow_nan=False, allow_infinity=False
)


def test_mixed_couplings_rejected():
    with pytest.raises(ParameterError):
        BoundaryParams(1.0, 2.0, xi_plus=0.5)
    with pytest.raises(ParameterError):
        BoundaryParams(1.0, 2.0, xi_minus=0.5)


def test_diagonal_mode_flags():
    assert BoundaryParams(1.0, 2.0).diagonal_mode
    assert not BoundaryParams(1.0, 2.0, 0.3, 0.4).diagonal_mode


def test_rho_vanishes_for_diagonal_couplings():
    assert BoundaryParams(1.0, 2.0).rho == 0


@given(xp=nonzero_coupling, xm=nonzero_coupling)
@settings(max_examples=200, deadline=None)
def test_rho_solves_its_quadratic(xp, xm):
    try:
        bp = BoundaryParams(1.0, 2.0, xp, xm)
    except ParameterError:
        return  # couplings too close to the singular rho = 1 point
    rho = bp.rho
    assert abs(rho * rho - 2 * rho - xp * xm) < 1e-12 * max(1.0, abs(xp * xm))


def test_rho_one_singularity_rejected():
    # xi_plus * xi_minus = -1 puts rho exactly at 1.
    with pytest.raises(ParameterError):
        BoundaryParams(1.0, 2.0, 1.0, -1.0)


def test_chain_spec_validation():
    with pytest.raises(ParameterError):
        ChainSpec(0, ())
    with pytest.raises(ParameterError):
        ChainSpec(2, (0.1j,))


def test_homogeneous_chain():
    cs = ChainSpec.homogeneous(3)
    assert cs.is_homogeneous and cs.thetas == (0j, 0j, 0j)
    assert not ChainSpec(1, (0.2 + 0j,)).is_homogeneous


def test_is_generic_rejections():
    assert ChainSpec(2, (0.11 + 0.02j, -0.23 + 0.31j)).is_generic()
    assert not ChainSpec(1, (0.5 + 0j,)).is_generic()  # 2 theta = 1
    assert not ChainSpec(1, (-0.5 + 0j,)).is_generic()  # 2 theta = -1
    assert not ChainSpec(2, (0.1 + 0j, 0.1 + 0j)).is_generic()
    assert not ChainSpec(2, (0.1 + 0.2j, -0.1 - 0.2j)).is_generic()
    # Clear of theta_i +- theta_j = +-1: these ran spectrum on every seed.
    for thetas in [(0.3, 0.6), (0.3, -0.6), (0.25, 0.7), (0.3 + 0.2j, 0.6 - 0.1j)]:
        assert ChainSpec(2, thetas).is_generic()


@pytest.mark.parametrize(
    "thetas",
    [
        (0.3, 1.3),  # theta_2 - theta_1 = 1
        (0.3, -0.7),  # theta_1 - theta_2 = 1
        (0.3, 0.7),  # theta_1 + theta_2 = 1
        (-0.3, -0.7),  # theta_1 + theta_2 = -1
        (0.3 + 0.2j, 0.7 - 0.2j),
        (0.3 + 0.2j, -0.7 + 0.2j),
        (0, 1),
        (0, -1),
        (0.1, 0.3 + 0.2j, -0.7 + 0.2j),  # a later pair
    ],
)
def test_is_generic_refuses_sums_and_differences_of_one(thetas):
    # At theta_i +- theta_j = +-1 the spectrum degenerates and the solver
    # misses branches; within GENERIC_TOL of the locus counts as on it.
    assert not ChainSpec(len(thetas), tuple(map(complex, thetas))).is_generic()
    near = thetas[:-1] + (thetas[-1] + 0.5 * GENERIC_TOL,)
    assert not ChainSpec(len(near), near).is_generic()
    off = thetas[:-1] + (thetas[-1] + 2 * GENERIC_TOL,)
    assert ChainSpec(len(off), off).is_generic()


def test_draw_boundary_params_stays_generic(rng):
    for _ in range(25):
        bp = draw_boundary_params(rng)
        assert not bp.diagonal_mode
        assert abs(bp.rho) >= 1e-3
        assert abs(bp.rho - 1) > 1e-8
        assert 0.2 <= abs(bp.xi_plus) <= 1.5
        assert 0.2 <= abs(bp.xi_minus) <= 1.5


def test_draw_chain_spec_separation(monkeypatch, rng):
    # A clearance of 0.1 rejects often enough to exercise every rule.
    monkeypatch.setattr(params, "CLEARANCE", 0.1)
    for _ in range(10):
        cs = draw_chain_spec(rng, 4)
        assert cs.sites == 4 and cs.is_generic()
        ts = cs.thetas
        for i, a in enumerate(ts):
            assert 0.1 <= abs(a) <= THETA_RADIUS
            for b in ts[i + 1 :]:
                assert abs(a - b) >= 0.1 and abs(a + b) >= 0.1


def test_draw_spectral_point_clearances(rng):
    cs = draw_chain_spec(rng, 2)
    bp = draw_boundary_params(rng)
    avoid = (0.3 + 0.1j,)
    for _ in range(50):
        u = draw_spectral_point(rng, avoid=avoid, cs=cs, bp=bp)
        assert abs(2 * u + 1) >= 1e-3
        for a in avoid:
            assert abs(u - a) >= 1e-3 and abs(u + a + 1) >= 1e-3
        for t in cs.thetas:
            assert min(abs(u - t), abs(u + t), abs(u + 1 - t), abs(u + 1 + t)) >= 1e-3
        assert abs(u + bp.p) >= 1e-3 and abs(bp.p - u - 1) >= 1e-3
        assert abs(u + bp.q) >= 1e-3


def test_draw_spectral_points_mutually_clear(rng):
    pts = draw_spectral_points(rng, 6)
    for i, a in enumerate(pts):
        for b in pts[i + 1 :]:
            assert abs(a - b) >= 1e-3 and abs(a + b + 1) >= 1e-3


def test_draws_are_reproducible():
    a = draw_boundary_params(np.random.default_rng(5))
    b = draw_boundary_params(np.random.default_rng(5))
    assert a == b


def _numpy_disc(rng, radius):
    """The disc draw with numpy's generator and scalar calls: the oracle."""
    r = radius * np.sqrt(rng.uniform())
    phase = rng.uniform(0.0, 2 * np.pi)
    return complex(r * np.cos(phase), r * np.sin(phase))


def _numpy_boundary(rng):
    """The boundary draw, annulus couplings included, written out."""
    while True:
        p = complex(rng.uniform(1.0, 3.0), rng.uniform(-0.5, 0.5))
        q = complex(rng.uniform(1.0, 3.0), rng.uniform(-0.5, 0.5))
        xi = []
        for _ in range(2):
            r = rng.uniform(0.2, 1.5)
            phase = rng.uniform(0.0, 2 * np.pi)
            xi.append(complex(r * np.cos(phase), r * np.sin(phase)))
        try:
            bp = BoundaryParams(p, q, *xi)
        except ParameterError:
            continue
        if abs(bp.rho) >= 1e-3:
            return bp


def _seeded_draws(seed, boundary):
    """Every draw of one seed, as the bits of each value, and the stream's end."""
    rng = np.random.default_rng(seed)
    bp = boundary(rng)
    cs = draw_chain_spec(rng, seed % 4 + 1)
    avoid = tuple(draw_spectral_points(rng, 2, cs=cs, bp=bp))
    diagonal = BoundaryParams(bp.p, bp.q)
    points = [
        *draw_spectral_points(rng, 3, avoid=avoid, cs=cs, bp=bp),
        *draw_spectral_points(rng, 2, avoid=avoid, cs=cs, bp=diagonal),
    ]
    values = (bp.p, bp.q, bp.xi_plus, bp.xi_minus, *cs.thetas, *avoid, *points)
    bits = [(z.real.hex(), z.imag.hex()) for z in map(complex, values)]
    modes = (bp.diagonal_mode, diagonal.diagonal_mode)
    return bits, modes, rng.bit_generator.state


def test_draws_match_the_numpy_formula_bit_for_bit(monkeypatch):
    # Every problem the suites and the benchmark pose is drawn through these
    # samplers, so a cheaper draw must give the same bits from the same
    # stream, and the diagonal flag must read as the couplings say.
    drawn = [_seeded_draws(seed, draw_boundary_params) for seed in range(100)]
    monkeypatch.setattr(params, "_uniform_disc", _numpy_disc)
    for seed, (bits, modes, state) in enumerate(drawn):
        assert (bits, state) == _seeded_draws(seed, _numpy_boundary)[::2], seed
        assert modes == (False, True), seed
