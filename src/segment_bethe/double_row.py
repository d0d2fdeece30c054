"""Double-row monodromy, its modified entries, transfer matrix, Hamiltonian.

The auxiliary space is always the first (slowest) tensor factor; chain sites
occupy factors 1..N in order.  Operator-valued entries are extracted by block
decomposition over the auxiliary space, so entry ``a`` of a chain operator is
the upper-left ``2^N x 2^N`` block.

No R-matrix is ever embedded in the full space.  ``R(v) = v + P``, and
right-multiplying by the permutation ``P_{0i}`` swaps the auxiliary and
site-i column axes, so each monodromy factor costs one scaled add of the
running product and its axis-swapped view; the diagonal ``K^-`` is a column
scaling.  The raw block ``T(u) K^-(u) T_hat(u)`` is built once per
``(u, cs, bp)``, and the entries, the modified entries and the transfer
matrix are 2x2 block contractions of it.

Builders are memoised on ``(u, cs, bp)`` in caches of ``CACHE_SIZE`` entries
each; cached arrays are frozen read-only.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import kernels as kn
from . import linalg
from .boundary import k_minus, k_plus, q_similarity
from .errors import ConstructionError, DimensionError, ParameterError, PoleError
from .linalg import (
    embed_site,
    embed_two_site,
    identity,
    kron,
    relative_residual,
    relative_residuals,
)
from .boundary import SIGMA_MINUS, SIGMA_PLUS, SIGMA_X, SIGMA_Y, SIGMA_Z
from .params import BoundaryParams, ChainSpec

__all__ = [
    "Entries",
    "bulk_monodromy",
    "hat_monodromy",
    "double_row",
    "modified_entries",
    "transfer_matrix",
    "transfer_forms_residual",
    "crossing_residual",
    "hamiltonian",
    "check_exchange_relations",
]

# Entries per operator cache.  The suites revisit a spectral point only within
# one check or draw: a cap of 16 already loses no hit in `all` at N = 2, 3 or
# in `offshell` at N = 5.  At 32 the three caches hold at most 20 MiB at N = 6.
CACHE_SIZE = 32


class Entries(NamedTuple):
    """Operator entries ``a, b, c, d`` of one family, frozen ``2^N x 2^N`` arrays.

    Both families share this type: the plain entries of :func:`double_row`
    and the modified entries of :func:`modified_entries`; ``d`` carries the
    d-shift in both.  For the plain family ``raw`` is the double-row matrix
    as a ``(2, 2^N, 2, 2^N)`` block tensor, without the d-shift, and ``a``,
    ``b`` and ``c`` are views into it; the modified family has no raw block.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    raw: np.ndarray | None = None


def _freeze(m: np.ndarray) -> np.ndarray:
    m.flags.writeable = False
    return m


def _dimension(cs: ChainSpec) -> int:
    """``2^(N+1)``, refused before anything of that size is allocated."""
    dim = 1 << (cs.sites + 1)
    if dim > linalg.MAX_DIM:
        raise DimensionError(
            f"double-row dimension {dim} exceeds MAX_DIM = {linalg.MAX_DIM}"
        )
    return dim


def _times_r_string(m: np.ndarray, factors) -> np.ndarray:
    """``m @ R_{0,i}(v) @ ...`` over ``factors = [(v, i), ...]`` in order.

    ``m @ R_{0i}(v) = v m + m P_{0i}``, and ``m P_{0i}`` is ``m`` with its
    auxiliary and site-i column axes swapped.
    """
    dim = m.shape[0]
    t = m.reshape((dim,) + (2,) * (dim.bit_length() - 1))
    for v, i in factors:
        t = v * t + t.swapaxes(1, 2 + i)
    return t.reshape(dim, dim)


def _hat_factors(u: complex, cs: ChainSpec) -> list:
    return [(u + cs.thetas[i], i) for i in reversed(range(cs.sites))]


def bulk_monodromy(u, cs: ChainSpec) -> np.ndarray:
    """Ordered product of R-matrices coupling the auxiliary space to each site."""
    u = complex(u)
    factors = [(u - theta, i) for i, theta in enumerate(cs.thetas)]
    return _times_r_string(identity(_dimension(cs)), factors)


def hat_monodromy(u, cs: ChainSpec) -> np.ndarray:
    """Return-trip monodromy: same couplings in reverse order, shifted signs."""
    u = complex(u)
    return _times_r_string(identity(_dimension(cs)), _hat_factors(u, cs))


@lru_cache(maxsize=CACHE_SIZE)
def double_row(u, cs: ChainSpec, bp: BoundaryParams) -> Entries:
    """Entries of the double-row monodromy with the dressed d-shift applied."""
    u = complex(u)
    if abs(2 * u + 1) < kn.POLE_TOL:
        raise PoleError("double_row", u, abs(2 * u + 1))
    half = 1 << cs.sites
    # T K^-: K^- is diagonal on the auxiliary space, so it scales columns.
    t_k = bulk_monodromy(u, cs) * np.repeat(np.diag(k_minus(u, bp)), half)
    raw = _freeze(
        _times_r_string(t_k, _hat_factors(u, cs)).reshape(2, half, 2, half)
    )
    a = raw[0, :, 0, :]
    return Entries(
        a=a,
        b=raw[0, :, 1, :],
        c=raw[1, :, 0, :],
        d=_freeze(raw[1, :, 1, :] - a / (2 * u + 1)),
        raw=raw,
    )


@lru_cache(maxsize=CACHE_SIZE)
def modified_entries(u, cs: ChainSpec, bp: BoundaryParams) -> Entries:
    """Entries after conjugating the auxiliary space by the similarity matrix.

    Built twice from the raw blocks: once from the closed-form linear
    combinations, once by actually conjugating with ``q_similarity``.  Both
    routes apply the d-shift ``d_bar = D_bar - a_bar / (2u+1)`` last, so no
    term of size ``1/(2u+1)`` is formed and cancelled inside a combination.
    The two routes must agree to 1e-12; disagreement means a construction
    bug, not a numerical accident, so it raises.
    """
    u = complex(u)
    if bp.diagonal_mode:
        raise ParameterError("modified entries are undefined for diagonal couplings")
    raw = double_row(u, cs, bp).raw
    half = raw.shape[1]
    rho = bp.rho
    xp, xm = bp.xi_plus, bp.xi_minus
    # Rows: a_bar, b_bar, c_bar and the unshifted D_bar; columns: the raw
    # blocks A, B, C, D.
    closed_form = np.array(
        [
            [rho - 2, -xm, -xp, rho],
            [xm, xm * xm / rho, -rho, -xm],
            [xp, -rho, xp * xp / rho, -xp],
            [rho, xm, xp, rho - 2],
        ]
    ) / (2 * (rho - 1))
    blocks = raw.transpose(0, 2, 1, 3).reshape(4, half * half)
    closed = (closed_form @ blocks).reshape(4, half, half)

    # Independent route: conjugate the raw block matrix and re-split.
    qm = q_similarity(bp)
    conjugated = np.einsum(
        "jk,kxmy,ml->jlxy", np.linalg.inv(qm), raw, qm
    ).reshape(4, half, half)
    for route in (closed, conjugated):
        route[3] -= route[0] / (2 * u + 1)

    for name, res in zip("abcd", relative_residuals(closed, conjugated)):
        if res > 1e-12:
            raise ConstructionError(
                f"modified entry {name!r}: construction routes disagree ({res:.3e})"
            )
    _freeze(closed)
    return Entries(*closed)


def _transfer_trace_form(e: Entries, u: complex, bp) -> np.ndarray:
    return (
        kn.alpha(u, bp) * e.a
        + kn.delta(u, bp) * e.d
        + kn.beta(u, bp) * e.b
        + kn.gamma(u, bp) * e.c
    )


def _transfer_modified_form(u: complex, cs: ChainSpec, bp) -> np.ndarray:
    m = modified_entries(u, cs, bp)
    return kn.alpha_bar(u, bp) * m.a + kn.delta_bar(u, bp) * m.d


def transfer_forms_residual(u, cs: ChainSpec, bp: BoundaryParams) -> float:
    """Relative disagreement between the two transfer-matrix decompositions."""
    u = complex(u)
    t1 = _transfer_trace_form(double_row(u, cs, bp), u, bp)
    t2 = _transfer_modified_form(u, cs, bp)
    return relative_residual(t1 - t2, t1, t2)


@lru_cache(maxsize=CACHE_SIZE)
def transfer_matrix(u, cs: ChainSpec, bp: BoundaryParams) -> np.ndarray:
    """Double-row transfer matrix t(u).

    Always cross-checked against the literal auxiliary-space trace; for
    generic couplings the modified (two-term) decomposition is verified as
    well.
    """
    u = complex(u)
    e = double_row(u, cs, bp)
    t1 = _transfer_trace_form(e, u, bp)
    # tr_0 (K^+ x 1) raw, contracted block by block.
    others = [np.einsum("jk,kxjy->xy", k_plus(u, bp), e.raw)]
    if not bp.diagonal_mode:
        others.append(_transfer_modified_form(u, cs, bp))
    res = relative_residuals([t1] * len(others), others)
    if res[0] > 1e-12:
        raise ConstructionError(f"transfer trace decomposition broke ({res[0]:.3e})")
    if len(res) > 1 and res[1] > 1e-11:
        raise ConstructionError(
            f"transfer matrix: modified form disagrees ({res[1]:.3e})"
        )
    return _freeze(t1)


def crossing_residual(u, cs: ChainSpec, bp: BoundaryParams) -> float:
    """Measured (not enforced) residual of t(-u-1) against t(u)."""
    t1 = transfer_matrix(u, cs, bp)
    t2 = transfer_matrix(-u - 1, cs, bp)
    return relative_residual(t1 - t2, t1, t2)


def hamiltonian(cs: ChainSpec, bp: BoundaryParams) -> np.ndarray:
    """Open-chain Hamiltonian with boundary fields, homogeneous point only."""
    if not cs.is_homogeneous:
        raise ParameterError("hamiltonian is defined at the homogeneous point")
    if bp.p == 0 or bp.q == 0:
        raise ParameterError("boundary couplings p, q must be nonzero")
    n = cs.sites
    hm = (1 / bp.q) * (
        embed_site(SIGMA_Z, n, 0)
        + bp.xi_plus * embed_site(SIGMA_PLUS, n, 0)
        + bp.xi_minus * embed_site(SIGMA_MINUS, n, 0)
    )
    for i in range(n - 1):
        for sig in (SIGMA_X, SIGMA_Y, SIGMA_Z):
            hm = hm + embed_two_site(kron(sig, sig), n, i, i + 1)
    hm = hm + (1 / bp.p) * embed_site(SIGMA_Z, n, n - 1)
    return _freeze(hm)


def _relation_residuals(eu: Entries, ev: Entries, u: complex, v: complex) -> dict:
    """Residuals of the quadratic exchange relations for one entry family."""
    au, bu, cu, du = eu.a, eu.b, eu.c, eu.d
    av, bv, cv, dv = ev.a, ev.b, ev.c, ev.d
    f, g, w = kn.f(u, v), kn.g(u, v), kn.w(u, v)
    h, k, n = kn.h(u, v), kn.k(u, v), kn.n(u, v)
    s, x, y, r, q = kn.s(u, v), kn.x(u, v), kn.y(u, v), kn.r(u, v), kn.q(u, v)
    out = {}

    def put(name, lhs, rhs):
        out[name] = relative_residual(lhs - rhs, lhs, rhs)

    put("bb", bu @ bv, bv @ bu)
    put("cc", cu @ cv, cv @ cu)
    put("ab", au @ bv, f * bv @ au + g * bu @ av + w * bu @ dv)
    put("ca", cv @ au, f * au @ cv + g * av @ cu + w * dv @ cu)
    put("db", du @ bv, h * bv @ du + k * bu @ dv + n * bu @ av)
    put("cd", cv @ du, h * du @ cv + k * dv @ cu + n * av @ cu)
    put(
        "cb",
        cu @ bv,
        bv @ cu
        + s * au @ av
        + x * av @ au
        + y * du @ av
        + r * au @ dv
        + q * av @ du
        + w * du @ dv,
    )
    return out


def check_exchange_relations(u, v, cs: ChainSpec, bp: BoundaryParams) -> dict:
    """Scale-free residuals of every exchange relation at the pair (u, v).

    Keys are prefixed ``plain:`` / ``modified:``; the modified family is
    skipped for diagonal couplings.
    """
    u, v = complex(u), complex(v)
    families = [("plain", double_row)]
    if not bp.diagonal_mode:
        families.append(("modified", modified_entries))
    res = {}
    for family, entries in families:
        for name, val in _relation_residuals(
            entries(u, cs, bp), entries(v, cs, bp), u, v
        ).items():
            res[f"{family}:{name}"] = val
    return res
