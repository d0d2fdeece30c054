"""Dense complex tensor algebra: products, embeddings, residuals, byte limit.

Everything here is plain numpy on complex128 arrays.  Chains of interest stay
below ten sites, so dense is both simplest and fastest.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError

__all__ = [
    "MAX_BYTES",
    "check_bytes",
    "kron",
    "identity",
    "embed_site",
    "embed_two_site",
    "vacuum_state",
    "frobenius",
    "relative_residual",
    "relative_residuals",
    "pair_residual",
]

# Largest array, in bytes, that one call may ask for: 1 GiB.  It is checked
# before the array is allocated, so an over-long chain is a configuration
# error (exit 2), not numpy's MemoryError.  At N = 10 the largest requests of
# a spectrum run are one point's double-row build, 512 MiB (8 raw blocks of
# 64 MiB, see ``double_row``), and its 18-point t(u) stack, 288 MiB; N = 11
# needs a 2 GiB build, and N = 12 an 8 GiB build and a 5 GiB stack.
MAX_BYTES = 1 << 30


def as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise DimensionError(f"expected a matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def check_bytes(nbytes: int, what: str) -> None:
    """Refuse a request of ``nbytes`` over ``MAX_BYTES`` before it is made."""
    if nbytes > MAX_BYTES:
        raise DimensionError(
            f"{what} needs {nbytes} bytes, over MAX_BYTES = {MAX_BYTES}"
        )


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def kron(a, b) -> np.ndarray:
    """Tensor product with the first factor slowest (standard kron order).

    Taken over the last two axes and broadcast over any leading ones, so a
    stack of matrices gives the stack of their products.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    (ra, ca), (rb, cb) = a.shape[-2:], b.shape[-2:]
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    check_bytes(
        math.prod(lead) * ra * rb * ca * cb * 16,
        f"tensor product of dims {ra} x {rb}",
    )
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (ra * rb, ca * cb))


def embed_site(op2, nfactors: int, site: int) -> np.ndarray:
    """Embed a single-factor operator at position ``site`` of ``nfactors``."""
    op2 = as_matrix(op2)
    out = np.ones((1, 1), dtype=complex)
    for k in range(nfactors):
        out = kron(out, op2 if k == site else identity(2))
    return out


def embed_two_site(op4, nfactors: int, first: int, second: int) -> np.ndarray:
    """Embed a two-factor operator acting on positions ``first`` and ``second``.

    ``op4`` is given on the product (first ⊗ second); the embedding works for
    arbitrary, not necessarily adjacent, positions.
    """
    if first == second:
        raise DimensionError("two-site embedding needs distinct positions")
    op4 = as_matrix(op4)
    dim = 1 << nfactors
    check_bytes(dim * dim * 16, f"two-site embedding on {nfactors} factors")
    # Axes after reshape: (row_first, row_second, col_first, col_second);
    # every tensordot with the identity appends a (row, col) pair.
    full = op4.reshape(2, 2, 2, 2)
    for _ in range(nfactors - 2):
        full = np.tensordot(full, np.eye(2, dtype=complex), axes=0)
    others = [k for k in range(nfactors) if k not in (first, second)]
    row_axis = {first: 0, second: 1}
    col_axis = {first: 2, second: 3}
    for m, k in enumerate(others):
        row_axis[k] = 4 + 2 * m
        col_axis[k] = 5 + 2 * m
    perm = [row_axis[k] for k in range(nfactors)] + [
        col_axis[k] for k in range(nfactors)
    ]
    return full.transpose(perm).reshape(dim, dim)


def vacuum_state(sites: int) -> np.ndarray:
    """All spins up."""
    v = np.zeros(1 << sites, dtype=complex)
    v[0] = 1.0
    return v


def frobenius(m) -> float:
    return float(np.linalg.norm(np.asarray(m)))


def relative_residual(delta, *scales) -> float:
    """Norm of a defect divided by the largest norm among the compared terms."""
    top = frobenius(delta)
    bottom = max((frobenius(s) for s in scales), default=0.0)
    if bottom == 0.0:
        return top
    return top / bottom


def pair_residual(a, b) -> float:
    """``|a - b| / max(|a|, |b|)`` for two scalars of either backend, in double."""
    a, b = complex(a), complex(b)
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def relative_residuals(x, y):
    """``relative_residual(x[k] - y[k], x[k], y[k])`` for each k of a stack.

    ``x`` and ``y`` are matrices or stacks of matrices whose leading shapes
    broadcast against each other.  One pair gives a ``float``, a stack an
    array of that leading shape.
    """
    x = np.asarray(x)
    y = np.asarray(y)

    def norms(m):
        # Frobenius norm over the last two axes, as ``np.linalg.norm`` takes
        # it, without its per-call dispatch.
        return np.sqrt(np.add.reduce((m.conj() * m).real, axis=(-2, -1)))

    top = norms(x - y)
    bottom = np.maximum(norms(x), norms(y))
    out = top / np.where(bottom > 0, bottom, 1.0)
    return float(out) if out.ndim == 0 else out
