"""The test-side partial trace against independent constructions."""

import numpy as np
import pytest

from oracles import trace_aux

from segment_bethe.errors import DimensionError
from segment_bethe.linalg import kron


def random_matrix(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def test_trace_aux_on_product(rng):
    # kron(A, B) traced over the first factor must give trace(A) * B.
    a = random_matrix(rng, 2)
    b = random_matrix(rng, 8)
    assert np.allclose(trace_aux(kron(a, b)), np.trace(a) * b)


def test_trace_aux_einsum_oracle(rng):
    m = random_matrix(rng, 8)
    oracle = np.einsum("aiaj->ij", m.reshape(2, 4, 2, 4))
    assert np.allclose(trace_aux(m), oracle)


def test_trace_aux_rejects_odd_dimension(rng):
    with pytest.raises(DimensionError):
        trace_aux(random_matrix(rng, 3))
