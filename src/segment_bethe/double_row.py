"""Double-row monodromy, its modified entries, transfer matrix, Hamiltonian.

The auxiliary space is always the first (slowest) tensor factor; chain sites
occupy factors 1..N in order.  Operator-valued entries are extracted by block
decomposition over the auxiliary space, so entry ``a`` of a chain operator is
the upper-left ``2^N x 2^N`` block.

No R-matrix is ever embedded in the full space.  ``R(v) = v + P``, and
right-multiplying by the permutation ``P_{0i}`` swaps the auxiliary and
site-i column axes, so each monodromy factor costs one scaled add of the
running product and its axis-swapped view; the diagonal ``K^-`` is a column
scaling.  The raw block ``T(u) K^-(u) T_hat(u)`` is built once per point
of a build, and the entries, the modified entries and the transfer
matrix are 2x2 block contractions of it.

Every step runs on a stack of points with a leading point axis, each gate
judged per point.  :func:`transfer_matrices` builds ``t(u)``, and
:func:`transfer_forms_residual` compares its two forms, for a whole list of
points in chunks of at most ``STACK_BYTES``; :func:`check_exchange_relations`
builds its pair as one stack, and :func:`operators` one draw's table of
entries in the same chunks.  Nothing is cached.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import kernels as kn
from . import linalg
from .boundary import k_minus, k_plus, q_similarity
from .errors import ConstructionError, ParameterError, PoleError
from .linalg import (
    embed_site,
    embed_two_site,
    identity,
    kron,
    relative_residuals,
)
from .boundary import SIGMA_MINUS, SIGMA_PLUS, SIGMA_X, SIGMA_Y, SIGMA_Z
from .params import BoundaryParams, ChainSpec

__all__ = [
    "Entries",
    "Operators",
    "operators",
    "double_row",
    "modified_entries",
    "transfer_matrix",
    "transfer_matrices",
    "transfer_forms_residual",
    "hamiltonian",
    "check_exchange_relations",
]

# Byte budget of one stacked raw block ``(B, 2^(N+1), 2^(N+1))`` in
# :func:`transfer_matrices`; the build's temporaries are a few times that.
# Measured on a 2-core Xeon VM (2 MiB L2 per core) over one solve's points:
# at N = 5, 12 points took 8.5 ms one by one, 7.4 ms in chunks of 4 (256 KiB)
# and 9.8 ms in one stack (768 KiB); at N = 6, 13 points took 25.5 ms in
# chunks of 1 or 2 (256 or 512 KiB) and 33 ms in chunks of 4.  So a chunk is
# 16 points at N = 4 (a whole solve), 4 at N = 5 and 1 from N = 6 on.
STACK_BYTES = 1 << 18


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


def _points(points) -> list:
    """Spectral points as a flat list of ``complex``, one stack entry each."""
    return np.asarray(points, dtype=complex).reshape(-1).tolist()


def _columns(rows) -> np.ndarray:
    """Per-point scalar rows ``[(s0, s1, ...), ...]`` as columns ``s_k``.

    Each column has shape ``(B, 1, 1)``, so it scales a ``(B, n, n)`` stack
    point by point.
    """
    return np.array(rows, dtype=complex).T[:, :, None, None]


def _times_r_string(m: np.ndarray, values, sites) -> np.ndarray:
    """``m[b] @ R_{0,sites[0]}(values[0][b]) @ R_{0,sites[1]}(...) @ ...``.

    ``m`` is a ``(B, dim, dim)`` stack, or one ``(1, dim, dim)`` matrix that
    the first factor broadcasts over the stack; ``values[k]`` holds factor
    k's parameter at each of the B points.  ``m @ R_{0i}(v) = v m + m P_{0i}``,
    and ``m P_{0i}`` is ``m`` with its auxiliary and site-i column axes
    swapped.
    """
    dim = m.shape[1]
    t = m.reshape(m.shape[:2] + (2,) * (dim.bit_length() - 1))
    values = np.array(values, dtype=complex)
    values = values.reshape(values.shape + (1,) * (t.ndim - 1))
    for v, i in zip(values, sites):
        t = v * t + t.swapaxes(2, 3 + i)
    return t.reshape(-1, dim, dim)


def _bulk_string(us: list, cs: ChainSpec) -> tuple:
    """Parameters and sites of the bulk factors ``R_{0i}(u - theta_i)``."""
    return [[u - theta for u in us] for theta in cs.thetas], range(cs.sites)


def _hat_string(us: list, cs: ChainSpec) -> tuple:
    """Parameters and sites of the return-trip factors ``R_{0i}(u + theta_i)``."""
    sites = range(cs.sites - 1, -1, -1)
    return [[u + cs.thetas[i] for u in us] for i in sites], sites


# ---------------------------------------------------------------------------
# Stacked construction steps.  Each takes a list ``us`` of B points and works
# on ``(B, ...)`` stacks; every gate is judged point by point, fails on NaN,
# and names the point it trips at.


def _raw_blocks(us: list, cs: ChainSpec, bp: BoundaryParams) -> np.ndarray:
    """Raw blocks ``T(u) K^-(u) T_hat(u)``, shape ``(B, 2, 2^N, 2, 2^N)``."""
    dim = 1 << (cs.sites + 1)
    # A build, through its gates, peaks at about 6.3 times its raw blocks
    # (7.5 for the pair of check_exchange_relations; tracemalloc at N = 5-8),
    # so it is charged 8 raw blocks.
    linalg.check_bytes(
        8 * len(us) * dim * dim * 16, f"double-row build of {len(us)} point(s)"
    )
    for u in us:
        if abs(2 * u + 1) < kn.POLE_TOL:
            raise PoleError("double_row", u, abs(2 * u + 1))
    count, half = len(us), dim // 2
    bulk = _times_r_string(identity(dim)[None], *_bulk_string(us, cs))
    # T K^-: K^- is diagonal on the auxiliary space, so it scales the
    # columns of each auxiliary half.
    k_diag = k_minus(us, bp).diagonal(axis1=1, axis2=2)
    t_k = bulk.reshape(count, dim, 2, half) * k_diag[:, None, :, None]
    return _times_r_string(
        t_k.reshape(count, dim, dim), *_hat_string(us, cs)
    ).reshape(count, 2, half, 2, half)


def _shifts(us: list) -> np.ndarray:
    """``2u + 1`` per point, shaped to divide a ``(B, n, n)`` stack."""
    return np.array([2 * u + 1 for u in us])[:, None, None]


def _entries(raw: np.ndarray, us: list) -> tuple:
    """Blocks ``a, b, c`` (views) and the shifted ``d = D - a/(2u+1)``."""
    a = raw[:, 0, :, 0, :]
    d = raw[:, 1, :, 1, :] - a / _shifts(us)
    return a, raw[:, 0, :, 1, :], raw[:, 1, :, 0, :], d


def _modified_blocks(raw: np.ndarray, us: list, bp: BoundaryParams):
    """Modified entries ``a_bar, b_bar, c_bar, d_bar``, shape ``(B, 4, 2^N, 2^N)``.

    Built twice from the raw blocks: once from the closed-form linear
    combinations, once by actually conjugating with ``q_similarity``.  Both
    routes apply the d-shift ``d_bar = D_bar - a_bar / (2u+1)`` last, so no
    term of size ``1/(2u+1)`` is formed and cancelled inside a combination.
    The two routes must agree to 1e-12 at every point; disagreement means a
    construction bug, not a numerical accident, so it raises.
    """
    count, _, half = raw.shape[:3]
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
    blocks = raw.transpose(0, 1, 3, 2, 4).reshape(count, 4, half * half)
    closed = (closed_form @ blocks).reshape(count, 4, half, half)

    # Independent route: conjugate the raw block matrix and re-split.  Block
    # (j, l) of Q^-1 M Q is sum_{k,m} Q^-1[j,k] M[k,m] Q[m,l], the Kronecker
    # product Q^-1 x Q^T acting on the flattened block index (k, m).
    qm = q_similarity(bp)
    (q00, q01), (q10, q11) = qm.tolist()
    q_inv = np.array([[q11, -q01], [-q10, q00]]) / (q00 * q11 - q01 * q10)
    conjugation = (q_inv[:, None, :, None] * qm.T[None, :, None, :]).reshape(4, 4)
    conjugated = (conjugation @ blocks).reshape(count, 4, half, half)
    shifts = _shifts(us)
    for route in (closed, conjugated):
        route[:, 3] -= route[:, 0] / shifts

    res = relative_residuals(closed, conjugated)
    bad = ~(res <= 1e-12)
    if bad.any():
        k, name = np.argwhere(bad)[0]
        raise ConstructionError(
            f"modified entry {'abcd'[name]!r} at u = {us[k]}: construction "
            f"routes disagree ({res[k, name]:.3e})"
        )
    return closed


def _trace_form(entries, us: list, bp) -> np.ndarray:
    a, b, c, d = entries
    alpha, delta, beta, gamma = _columns(
        [
            (kn.alpha(u, bp), kn.delta(u, bp), kn.beta(u, bp), kn.gamma(u, bp))
            for u in us
        ]
    )
    return alpha * a + delta * d + beta * b + gamma * c


def _modified_form(a_bar, d_bar, us: list, bp) -> np.ndarray:
    alpha_bar, delta_bar = _columns(
        [(kn.alpha_bar(u, bp), kn.delta_bar(u, bp)) for u in us]
    )
    return alpha_bar * a_bar + delta_bar * d_bar


def _transfer_blocks(raw, us: list, bp, closed=None):
    """Trace form of ``t(u)`` for each point, shape ``(B, 2^N, 2^N)``.

    Every point is cross-checked against the literal ``K^+`` trace of its
    raw block (1e-12) and, when the modified blocks ``closed`` are given,
    against the two-term modified form (1e-11).
    """
    t1 = _trace_form(_entries(raw, us), us, bp)
    # tr_0 (K^+ x 1) raw, contracted block by block.
    others = [np.einsum("bjk,bkxjy->bxy", k_plus(us, bp), raw)]
    gates = [("transfer trace decomposition broke", 1e-12)]
    if closed is not None:
        others.append(_modified_form(closed[:, 0], closed[:, 3], us, bp))
        gates.append(("transfer matrix: modified form disagrees", 1e-11))
    res = relative_residuals(t1[:, None], np.stack(others, axis=1))
    bad = ~(res <= [tol for _, tol in gates])
    if bad.any():
        k, gate = np.argwhere(bad)[0]
        raise ConstructionError(
            f"{gates[gate][0]} at u = {us[k]} ({res[k, gate]:.3e})"
        )
    return t1


# ---------------------------------------------------------------------------
# One draw's operator table, the one-point reads and the stacked
# transfer-matrix builder, the one path every t(u) is built on.


class Operators(NamedTuple):
    """One draw's operators, built once by :func:`operators`: ``plain[u]``
    and, for generic couplings, ``modified[u]`` are the frozen
    :class:`Entries` at each point ``u``, shared by the draw's checks."""

    plain: dict
    modified: dict

    def transfer(self, u, bp: BoundaryParams) -> np.ndarray:
        """``t(u)`` from the raw block at ``u``, through the gates of
        :func:`transfer_matrices`."""
        closed = None if bp.diagonal_mode else np.stack(self.modified[u][:4])[None]
        return _transfer_blocks(self.plain[u].raw[None], [complex(u)], bp, closed)[0]


def operators(points, cs: ChainSpec, bp: BoundaryParams) -> Operators:
    """The table of entries at the distinct ``points``, built in the chunks of
    :func:`transfer_matrices` with every gate, after charging what it holds to
    ``linalg.MAX_BYTES``: per point 144 * 4^N bytes (raw block and shifted d,
    80 * 4^N; modified entries, 64 * 4^N)."""
    us = list(dict.fromkeys(_points(points)))
    what = f"operator table of {len(us)} point(s)"
    linalg.check_bytes(len(us) * 144 * 4**cs.sites, what)
    table = Operators({}, {})
    for _, chunk, raw, closed in _chunked_builds(us, cs, bp):
        a, b, c, d = _entries(_freeze(raw), chunk)
        _freeze(d)
        for k, u in enumerate(chunk):
            table.plain[u] = Entries(a[k], b[k], c[k], d[k], raw=raw[k])
            if closed is not None:
                table.modified[u] = Entries(*_freeze(closed)[k])
    return table


def double_row(u, cs: ChainSpec, bp: BoundaryParams) -> Entries:
    """Entries of the double-row monodromy with the dressed d-shift applied."""
    us = _points(u)
    raw = _freeze(_raw_blocks(us, cs, bp))
    a, b, c, d = _entries(raw, us)
    return Entries(a[0], b[0], c[0], _freeze(d)[0], raw=raw[0])


def modified_entries(u, cs: ChainSpec, bp: BoundaryParams) -> Entries:
    """Entries conjugated by the similarity matrix, read from a one-point
    table (two routes, cross-checked: see :func:`_modified_blocks`)."""
    if bp.diagonal_mode:
        raise ParameterError("modified entries are undefined for diagonal couplings")
    return operators([u], cs, bp).modified[complex(u)]


def transfer_forms_residual(points, cs: ChainSpec, bp: BoundaryParams):
    """Relative disagreement between the two transfer-matrix decompositions.

    ``points`` is one spectral point, giving a ``float``, or a list of them,
    giving one residual per point; the points are built in the stacked
    chunks of :func:`transfer_matrices` and nothing is cached.
    """
    if bp.diagonal_mode:
        raise ParameterError("modified entries are undefined for diagonal couplings")
    us = _points(points)
    out = np.empty(len(us))
    for where, chunk, raw, closed in _chunked_builds(us, cs, bp):
        t1 = _trace_form(_entries(raw, chunk), chunk, bp)
        t2 = _modified_form(closed[:, 0], closed[:, 3], chunk, bp)
        out[where] = relative_residuals(t1, t2)
    return float(out[0]) if np.ndim(points) == 0 else out


def transfer_matrix(u, cs: ChainSpec, bp: BoundaryParams) -> np.ndarray:
    """Double-row transfer matrix t(u): a one-point :func:`transfer_matrices` stack."""
    return transfer_matrices([u], cs, bp)[0]


def _chunked_builds(us: list, cs: ChainSpec, bp: BoundaryParams):
    """Raw and modified blocks of ``us`` in chunks within ``STACK_BYTES``.

    Yields ``(where, chunk, raw, closed)``: the slice of ``us`` the chunk
    covers, its points, their raw blocks and, for generic couplings, their
    modified blocks (``None`` for diagonal ones).
    """
    dim = 1 << (cs.sites + 1)
    step = max(1, STACK_BYTES // (dim * dim * np.dtype(complex).itemsize))
    for lo in range(0, len(us), step):
        chunk = us[lo : lo + step]
        raw = _raw_blocks(chunk, cs, bp)
        closed = None if bp.diagonal_mode else _modified_blocks(raw, chunk, bp)
        yield slice(lo, lo + len(chunk)), chunk, raw, closed


def transfer_matrices(points, cs: ChainSpec, bp: BoundaryParams) -> np.ndarray:
    """``t(u)`` at every point, one frozen ``(len(points), 2^N, 2^N)`` array.

    Every point is cross-checked against the literal ``K^+`` trace and, for
    generic couplings, against the modified two-term form (see
    :func:`_transfer_blocks`), judged per point; an error names the point it
    trips at.  The points are built in stacked chunks whose raw block stays
    within ``STACK_BYTES``.  Nothing is cached.  A stack or a chunk's build
    over ``linalg.MAX_BYTES`` raises ``DimensionError`` before it is
    allocated.
    """
    half = 1 << cs.sites
    us = _points(points)
    linalg.check_bytes(len(us) * half * half * 16, "transfer-matrix stack")
    out = np.empty((len(us), half, half), dtype=complex)
    for where, chunk, raw, closed in _chunked_builds(us, cs, bp):
        out[where] = _transfer_blocks(raw, chunk, bp, closed)
    return _freeze(out)


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


def _relation_residuals(eu, ev, u: complex, v: complex) -> dict:
    """Residuals of the quadratic exchange relations for one entry family.

    ``eu`` and ``ev`` are the entries ``(a, b, c, d)`` at ``u`` and ``v``;
    all seven residuals come from one stacked call.
    """
    au, bu, cu, du = eu
    av, bv, cv, dv = ev
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
    lhs, rhs = zip(*sides.values())
    residuals = relative_residuals(np.stack(lhs), np.stack(rhs))
    return dict(zip(sides, residuals.tolist()))


def check_exchange_relations(u, v, cs: ChainSpec, bp: BoundaryParams) -> dict:
    """Scale-free residuals of every exchange relation at the pair (u, v).

    Keys are prefixed ``plain:`` / ``modified:``; the modified family is
    skipped for diagonal couplings.  Both points are built as one stack and
    nothing is cached.
    """
    us = [complex(u), complex(v)]
    raw = _raw_blocks(us, cs, bp)
    families = [("plain", _entries(raw, us))]
    if not bp.diagonal_mode:
        closed = _modified_blocks(raw, us, bp)
        families.append(("modified", closed.transpose(1, 0, 2, 3)))
    res = {}
    for family, entries in families:
        at_u, at_v = zip(*entries)
        for name, val in _relation_residuals(at_u, at_v, *us).items():
            res[f"{family}:{name}"] = val
    return res
