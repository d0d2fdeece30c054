"""Shared fixtures: one deterministic parameter draw per scope, solved chains.

Solving the Bethe system is the only expensive setup, so solved problems are
session-scoped and shared; tests must not mutate them.
"""

import numpy as np
import pytest

import segment_bethe.double_row as dr
from segment_bethe.bethe import solve_bethe, solve_bethe_diagonal
from segment_bethe.params import (
    BoundaryParams,
    draw_boundary_params,
    draw_chain_spec,
)

SEED = 20240816


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


@pytest.fixture(scope="session")
def bp():
    return draw_boundary_params(np.random.default_rng(SEED))


@pytest.fixture(scope="session")
def bp_diag(bp):
    return BoundaryParams(bp.p, bp.q)


@pytest.fixture(scope="session")
def cs1():
    return draw_chain_spec(np.random.default_rng(SEED + 1), 1)


@pytest.fixture(scope="session")
def cs2():
    return draw_chain_spec(np.random.default_rng(SEED + 2), 2)


@pytest.fixture(scope="session")
def cs3():
    return draw_chain_spec(np.random.default_rng(SEED + 3), 3)


@pytest.fixture(scope="session")
def solved1(cs1, bp):
    sols = solve_bethe(cs1, bp, rng=np.random.default_rng(SEED + 10))
    assert len(sols) == 2
    return sols


@pytest.fixture(scope="session")
def solved2(cs2, bp):
    sols = solve_bethe(cs2, bp, rng=np.random.default_rng(SEED + 11))
    assert len(sols) == 4
    return sols


@pytest.fixture(scope="session")
def solved2_diag(cs2, bp_diag):
    # The sets of one diagonal solve, keyed by their magnon number.
    sols = solve_bethe_diagonal(cs2, bp_diag, rng=np.random.default_rng(SEED + 12))
    return {m: [s for s in sols if len(s.roots) == m] for m in range(3)}


@pytest.fixture
def count_raw_blocks(monkeypatch):
    """``count_raw_blocks()`` returns a new list of the sizes of the
    ``double_row._raw_blocks`` stacks built from then on (until the next
    call or the end of the test)."""
    real = dr._raw_blocks

    def start():
        sizes = []

        def counted(us, cs, bp):
            sizes.append(len(us))
            return real(us, cs, bp)

        monkeypatch.setattr(dr, "_raw_blocks", counted)
        return sizes

    return start
