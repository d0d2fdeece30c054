"""Tensor-algebra primitives against independent constructions."""

import numpy as np
import pytest

from segment_bethe.errors import DimensionError
from segment_bethe import linalg
from segment_bethe.linalg import (
    embed_site,
    embed_two_site,
    frobenius,
    identity,
    kron,
    relative_residual,
    relative_residuals,
    vacuum_state,
)


def random_matrix(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def random_vector(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def test_kron_matches_numpy(rng):
    a = random_matrix(rng, 2)
    b = random_matrix(rng, 4)
    assert np.allclose(kron(a, b), np.kron(a, b))


def test_kron_dimension_cap():
    big = identity(1 << 8)
    with pytest.raises(DimensionError):
        kron(big, identity(1 << 7))


def test_embed_site_product_state_action(rng):
    # Acting on a product state touches only the chosen factor.
    n, site = 4, 2
    op = random_matrix(rng, 2)
    factors = [random_vector(rng, 2) for _ in range(n)]
    state = factors[0]
    for v in factors[1:]:
        state = np.kron(state, v)
    expected = np.ones(1)
    for k, v in enumerate(factors):
        expected = np.kron(expected, op @ v if k == site else v)
    assert np.allclose(embed_site(op, n, site) @ state, expected)


def test_embed_two_site_factorizes(rng):
    # kron(a, b) embedded at (i, j) equals the two single-site embeddings,
    # including j < i and non-adjacent pairs.
    n = 4
    a = random_matrix(rng, 2)
    b = random_matrix(rng, 2)
    for i, j in ((0, 1), (1, 3), (3, 0), (2, 1)):
        combined = embed_two_site(np.kron(a, b), n, i, j)
        split = embed_site(a, n, i) @ embed_site(b, n, j)
        assert np.allclose(combined, split), (i, j)


def test_embed_two_site_swap_covariance(rng):
    # Embedding op at (j, i) equals embedding the swapped operator at (i, j).
    n = 3
    op = random_matrix(rng, 4)
    swap = np.eye(4)[[0, 2, 1, 3]]
    assert np.allclose(
        embed_two_site(op, n, 2, 0), embed_two_site(swap @ op @ swap, n, 0, 2)
    )


def test_embed_two_site_rejects_equal_positions(rng):
    with pytest.raises(DimensionError):
        embed_two_site(random_matrix(rng, 4), 3, 1, 1)


def test_vacuum_state_is_all_up():
    v = vacuum_state(3)
    assert v[0] == 1.0 and np.count_nonzero(v) == 1 and v.size == 8


def test_relative_residual_scale_invariance(rng):
    a = random_matrix(rng, 4)
    b = random_matrix(rng, 4)
    r1 = relative_residual(a - b, a, b)
    r2 = relative_residual(1e6 * (a - b), 1e6 * a, 1e6 * b)
    assert np.isclose(r1, r2)
    assert relative_residual(np.zeros((2, 2))) == 0.0


def test_relative_residuals_match_one_by_one(rng):
    x = np.stack([random_matrix(rng, 3), random_matrix(rng, 3), np.zeros((3, 3))])
    y = np.stack([random_matrix(rng, 3), x[1] + 1e-9, np.zeros((3, 3))])
    got = relative_residuals(x, y)
    expected = [relative_residual(a - b, a, b) for a, b in zip(x, y)]
    assert np.allclose(got, expected, rtol=1e-14, atol=0)


def test_relative_residuals_single_pair_is_a_float():
    got = relative_residuals(np.eye(2), 2 * np.eye(2))
    assert isinstance(got, float)
    assert got == 0.5


def test_relative_residuals_zero_denominator_gives_the_defect():
    # Both sides zero: no scale to divide by, and the defect is zero too.
    assert relative_residuals(np.zeros((2, 2)), np.zeros((2, 2))) == 0.0
    got = relative_residuals(np.zeros((3, 2, 2)), np.zeros((1, 2, 2)))
    assert got.shape == (3,) and not got.any()


def test_kron_broadcasts_over_leading_axes(rng):
    a = np.stack([random_matrix(rng, 2) for _ in range(3)])
    b = random_matrix(rng, 4)
    got = kron(a, b)
    assert got.shape == (3, 8, 8)
    for k in range(3):
        assert np.array_equal(got[k], np.kron(a[k], b))


def test_frobenius_nonnegative(rng):
    assert frobenius(random_matrix(rng, 3)) > 0
    assert frobenius(np.zeros((2, 2))) == 0.0


def test_byte_limit_on_kron_and_embed(monkeypatch):
    # A 4 x 4 complex product is 256 bytes, and a stack of two is 512; a
    # two-site embedding on three factors is 8 x 8 complex, 1 KiB.
    monkeypatch.setattr(linalg, "MAX_BYTES", 256)
    assert kron(identity(2), identity(2)).shape == (4, 4)
    with pytest.raises(DimensionError, match="tensor product"):
        kron(identity(2), identity(4))
    with pytest.raises(DimensionError, match="tensor product"):
        kron(np.stack([identity(2)] * 2), identity(2))
    monkeypatch.setattr(linalg, "MAX_BYTES", 1 << 10)
    assert embed_two_site(identity(4), 3, 0, 2).shape == (8, 8)
    with pytest.raises(DimensionError, match="two-site embedding"):
        embed_two_site(identity(4), 4, 0, 1)


def test_max_dim_guard_in_embed():
    with pytest.raises(DimensionError):
        embed_two_site(np.eye(4, dtype=complex), 15, 0, 1)
    assert linalg.MAX_BYTES == 1 << 30
