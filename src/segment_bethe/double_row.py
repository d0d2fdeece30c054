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
judged per point.  :func:`transfer_forms` builds ``t(u)``, with the
disagreement of its two forms, for a whole list of points in chunks of at
most ``STACK_BYTES``, and :func:`transfer_matrices` reads its ``t(u)``
stack; :func:`check_exchange_relations`
builds its pair as one stack.  :func:`act` runs the same R-steps on a stack of
states instead of the identity, each state at its own point and from its own
side (a list of points and a list of sides, one each per state), so a Bethe
state never needs a ``2^N``-square entry; :func:`act_chunk` is how many states
one call of a stacked build takes and :func:`act_bytes` what it returns per
state.  :func:`trace_form` makes ``t(u)`` of either stack.  The one-point
reads :func:`double_row`, :func:`modified_entries` and :func:`transfer_matrix`
take exactly one point, and a list raises.  Nothing is cached.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import kernels as kn
from . import linalg
from .boundary import SIGMA_MINUS, SIGMA_PLUS, SIGMA_X, SIGMA_Y, SIGMA_Z
from .boundary import k_minus, k_plus, q_similarity
from .errors import ConstructionError, ParameterError, PoleError
from .linalg import (
    embed_site,
    embed_two_site,
    identity,
    kron,
    relative_residuals,
)
from .params import BoundaryParams, ChainSpec

__all__ = [
    "Entries",
    "act",
    "act_chunk",
    "act_bytes",
    "double_row",
    "modified_entries",
    "transfer_matrix",
    "transfer_matrices",
    "transfer_forms",
    "trace_form",
    "hamiltonian",
    "check_exchange_relations",
]

# Byte budget of one stacked raw block ``(B, 2^(N+1), 2^(N+1))`` in
# :func:`transfer_forms`; the build's temporaries are a few times that.
# Measured on a 2-core Xeon VM (2 MiB L2 per core) over one solve's points:
# at N = 5, 12 points took 8.5 ms one by one, 7.4 ms in chunks of 4 (256 KiB)
# and 9.8 ms in one stack (768 KiB); at N = 6, 13 points took 25.5 ms in
# chunks of 1 or 2 (256 or 512 KiB) and 33 ms in chunks of 4.  So a chunk is
# 16 points at N = 4 (a whole solve), 4 at N = 5 and 1 from N = 6 on.  The
# rows of one act call in a stacked build, (2K, 2^(N+1)), keep to the same
# budget (act_chunk): 64 states at N = 6, 16 at N = 8.
STACK_BYTES = 1 << 18


class Entries(NamedTuple):
    """Entries ``a, b, c, d`` of one family, the d-shift in ``d``: frozen
    ``2^N``-square matrices (:func:`double_row`, :func:`modified_entries`)
    or the entries applied to a stack of states (:func:`act`)."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray


def _freeze(m: np.ndarray) -> np.ndarray:
    m.flags.writeable = False
    return m


def _times_r_string(m: np.ndarray, values, sites) -> np.ndarray:
    """``m[b] @ R_{0,sites[0]}(values[0][b]) @ R_{0,sites[1]}(...) @ ...``.

    ``m`` is a ``(B, rows, dim)`` stack, or one ``(1, rows, dim)`` block
    that the first factor broadcasts over the stack; ``values[k]`` holds
    factor k's parameter at each of the B points.  ``m @ R_{0i}(v) = v m +
    m P_{0i}``, and ``m P_{0i}`` is ``m`` with its auxiliary and site-i
    column axes swapped.
    """
    rows, dim = m.shape[1:]
    t = m.reshape(m.shape[:2] + (2,) * (dim.bit_length() - 1))
    values = np.array(values, dtype=complex)
    values = values.reshape(values.shape + (1,) * (t.ndim - 1))
    for v, i in zip(values, sites):
        t = v * t + t.swapaxes(2, 3 + i)
    return t.reshape(-1, rows, dim)


def _times_double_row(m: np.ndarray, us: list, thetas, bp) -> np.ndarray:
    """``m[b] @ T(u_b) K^-(u_b) T_hat(u_b)`` for a ``(1 or B, rows, dim)`` stack;
    ``T`` is the string of ``R_{0i}(u - theta_i)`` over the sites in order,
    ``T_hat`` that of ``R_{0i}(u + theta_i)`` in reverse order.  ``thetas``
    is one row of N inhomogeneities for every point or a ``(B, N)`` array
    with a row per point."""
    for u in us:
        if abs(2 * u + 1) < kn.POLE_TOL:
            raise PoleError("double_row", u, abs(2 * u + 1))
    column = np.array(us, dtype=complex)[:, None]
    sites = range(np.shape(thetas)[-1])
    bulk = _times_r_string(m, (column - thetas).T, sites)
    # T K^-: K^- is diagonal on the auxiliary space, so it scales the
    # columns of each auxiliary half.
    count, rows, dim = bulk.shape
    k_diag = k_minus(us, bp).diagonal(axis1=1, axis2=2)
    t_k = bulk.reshape(count, rows, 2, dim // 2) * k_diag[:, None, :, None]
    hat = (column + thetas).T[::-1]
    return _times_r_string(t_k.reshape(count, rows, dim), hat, reversed(sites))


# ---------------------------------------------------------------------------
# Stacked construction steps.  Each takes a list ``us`` of B points and works
# on ``(B, ...)`` stacks; every gate is judged point by point, fails on NaN,
# and names the point it trips at.


def _raw_blocks(us: list, cs: ChainSpec, bp: BoundaryParams) -> np.ndarray:
    """Blocks ``A, B, C, D`` of ``T(u) K^-(u) T_hat(u)``, ``(B, 4, 2^N, 2^N)``."""
    dim = 1 << (cs.sites + 1)
    # A build, through its gates, peaks at 5.0 to 5.8 times its raw blocks
    # from N = 6 on (7.5 for the pair of check_exchange_relations;
    # tracemalloc at N = 6-8), so it is charged 8 raw blocks.
    linalg.check_bytes(
        8 * len(us) * dim * dim * 16, f"double-row build of {len(us)} point(s)"
    )
    raw = _times_double_row(identity(dim)[None], us, np.array(cs.thetas), bp)
    h = dim // 2
    return raw.reshape(-1, 2, h, 2, h).swapaxes(2, 3).reshape(-1, 4, h, h)


def _entries(blocks: np.ndarray, us: list) -> tuple:
    """Blocks ``a, b, c`` (views) and the shifted ``d = D - a/(2u+1)``."""
    a, b, c, d = blocks.swapaxes(0, 1)
    return a, b, c, d - a / _shifts(us, a.ndim)


def _shifts(us: list, ndim: int) -> np.ndarray:
    """``2u + 1`` per point, shaped to divide a stack of ``ndim`` axes."""
    return np.array([2 * u + 1 for u in us]).reshape((-1,) + (1,) * (ndim - 1))


def _route_maps(bp: BoundaryParams) -> np.ndarray:
    """The two routes from the raw blocks ``A, B, C, D`` (columns) to ``a_bar``,
    ``b_bar``, ``c_bar`` and the unshifted ``D_bar``, ``(8, 4)``: rows 0-3 the
    closed form, rows 4-7 conjugation by ``Q``.  Block (j, l) of ``Q^-1 M Q``
    is ``sum_{k,m} Q^-1[j,k] M[k,m] Q[m,l]``: row 4 + 2j + l, column 2k + m."""
    rho, xp, xm = bp.rho, bp.xi_plus, bp.xi_minus
    closed_form = [
        [rho - 2, -xm, -xp, rho],
        [xm, xm * xm / rho, -rho, -xm],
        [xp, -rho, xp * xp / rho, -xp],
        [rho, xm, xp, rho - 2],
    ]
    (q00, q01), (q10, q11) = q = q_similarity(bp).tolist()
    det = q00 * q11 - q01 * q10
    q_inv = [[q11 / det, -q01 / det], [-q10 / det, q00 / det]]
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    conjugation = [[q_inv[j][k] * q[m][l] for k, m in pairs] for j, l in pairs]
    maps = np.array(closed_form + conjugation, dtype=complex)
    maps[:4] /= 2 * (rho - 1)
    return maps


def _modified_blocks(blocks: np.ndarray, us: list, bp: BoundaryParams, on_states):
    """Modified entries ``a_bar, b_bar, c_bar, d_bar`` of ``(B, 4, ...)`` raw blocks.

    ``blocks[k]`` holds ``A, B, C, D`` at ``us[k]``, whole or applied to
    states.  The two :func:`_route_maps` results, d-shifted last, must agree
    to 1e-12 per entry and point, relative to the larger, or it raises (a
    construction bug).  On states both can cancel far below their terms
    (near an entry's kernel), so there the largest term (coefficient times
    block, ``a_bar/(2u+1)``) joins the scale.
    """
    maps = _route_maps(bp)
    flat = blocks.reshape(len(us), 4, -1)
    closed, conjugated = maps[:4] @ flat, maps[4:] @ flat
    shifts = _shifts(us, 2)
    for route in (closed, conjugated):
        route[:, 3] -= route[:, 0] / shifts
    scale = np.maximum((abs(closed) ** 2).sum(-1), (abs(conjugated) ** 2).sum(-1))
    conjugated -= closed
    defect = (abs(conjugated) ** 2).sum(-1)
    ok = defect <= 1e-24 * scale
    if on_states and not ok.all():
        # The terms only enlarge the scale, so only a failing result needs them.
        coeffs = abs(maps).reshape(2, 4, 4).max(axis=0) ** 2
        terms = (coeffs * (abs(flat) ** 2).sum(-1)[:, None]).max(axis=-1)
        terms[:, 3] = np.maximum(terms[:, 3], scale[:, 0] / abs(shifts[:, 0]) ** 2)
        scale = np.maximum(scale, terms)
        ok = defect <= 1e-24 * scale
    if not ok.all():
        k, name = np.argwhere(~ok)[0]
        raise ConstructionError(
            f"modified entry {'abcd'[name]!r} at u = {us[k]}: construction "
            f"routes disagree ({np.sqrt(defect[k, name] / scale[k, name]):.3e})"
        )
    return closed.reshape(blocks.shape)


def _form(kernels, entries, us: list, bp) -> np.ndarray:
    """``sum_k kernels[k](u, bp) entries[k]``, one point of ``us`` per
    leading index of the entries, whatever their rank."""
    coeffs = np.array([[kern(u, bp) for kern in kernels] for u in us], dtype=complex)
    shape = (len(us),) + (1,) * (entries[0].ndim - 1)
    return sum(c.reshape(shape) * e for c, e in zip(coeffs.T, entries))


def trace_form(entries, us: list, bp: BoundaryParams) -> np.ndarray:
    """``t(u) = alpha a + delta d + beta b + gamma c`` from the plain entries:
    ``(B, 2^N, 2^N)`` blocks give ``t(u)`` itself, a ``(K, 2^N)`` :func:`act`
    stack ``t(u)`` applied to each state."""
    a, b, c, d = entries
    return _form((kn.alpha, kn.delta, kn.beta, kn.gamma), (a, d, b, c), us, bp)


def _modified_form(closed, us: list, bp) -> np.ndarray:
    """``alpha_bar a_bar + delta_bar d_bar`` from ``(B, 4, ...)`` modified blocks."""
    return _form((kn.alpha_bar, kn.delta_bar), closed[:, ::3].swapaxes(0, 1), us, bp)


def _transfer_blocks(raw, us: list, bp, closed=None):
    """``(t, residuals)``: the trace form of ``t(u)`` for each point, shape
    ``(B, 2^N, 2^N)``, and its relative residuals, shape ``(B, gates)``.

    Every point is cross-checked against the literal ``K^+`` trace of its
    raw block (column 0, gated at 1e-12) and, when the modified blocks
    ``closed`` are given, against the two-term modified form (column 1,
    gated at 1e-11).
    """
    t1 = trace_form(_entries(raw, us), us, bp)
    # tr_0 (K^+ x 1) raw, contracted block by block.
    halves = raw.reshape(len(us), 2, 2, *raw.shape[2:])
    others = [np.einsum("bjk,bkjxy->bxy", k_plus(us, bp), halves)]
    gates = [("transfer trace decomposition broke", 1e-12)]
    if closed is not None:
        others.append(_modified_form(closed, us, bp))
        gates.append(("transfer matrix: modified form disagrees", 1e-11))
    res = relative_residuals(t1[:, None], np.stack(others, axis=1))
    bad = ~(res <= [tol for _, tol in gates])
    if bad.any():
        k, gate = np.argwhere(bad)[0]
        raise ConstructionError(
            f"{gates[gate][0]} at u = {us[k]} ({res[k, gate]:.3e})"
        )
    return t1, res


# ---------------------------------------------------------------------------
# The matrix-free action, the one-point reads and the stacked transfer-matrix
# builder, the one path every t(u) is built on.


def act(us, states, cs: ChainSpec, bp: BoundaryParams, duals):
    """The double-row entries applied to a ``(K, 2^N)`` stack of states, each
    at its own point and from its own side.

    ``us`` holds K points and ``duals`` K sides, one of each per state.
    Returns ``(plain, modified)`` :class:`Entries` of ``(K, 2^N)`` arrays:
    ``plain.b[k]`` is ``b(us[k]) @ states[k]``, or ``states[k] @ b(us[k])``
    if ``duals[k]``; ``modified`` is ``None`` for diagonal couplings.  The rows
    ``<0| x state`` and ``<1| x state`` run through the R-steps of
    :func:`_raw_blocks`, times ``M(u; theta)`` for a bra and times its
    transpose ``M(u; -theta)`` for a ket (``R`` symmetric, ``K^-``
    diagonal).  The pole guard and the route gate are judged per state and
    name its point.
    """
    count, half = np.shape(states)
    us, duals = np.asarray(us, dtype=complex), np.asarray(duals, dtype=bool)
    if us.shape != (count,) or duals.shape != (count,):
        raise ParameterError(f"act needs a point and a side for each of {count} states")
    us = us.tolist()
    # 8 times its 2K rows of 2^(N+1) numbers: tracemalloc at N = 6-8 peaks
    # at 5.2-5.6 times them from K = 64 on and 7.2 at K = 16.
    linalg.check_bytes(512 * count * half, f"double-row action on {count} state(s)")
    rows = np.zeros((count, 2, 2, half), dtype=complex)
    rows[:, 0, 0] = rows[:, 1, 1] = states
    thetas = np.where(duals, 1, -1)[:, None] * np.array(cs.thetas)
    # Rebinding ``rows`` frees each stage once the next is built.
    rows = _times_double_row(rows.reshape(count, 2, 2 * half), us, thetas, bp)
    # rows[k, x, y]: state k times block (x, y) (bra) or block (y, x) times it (ket).
    rows = rows.reshape(count, 2, 2, half)
    rows = np.where(duals[:, None, None, None], rows, rows.swapaxes(1, 2))
    blocks = rows.reshape(count, 4, half)
    plain = Entries(*_entries(blocks, us))
    if bp.diagonal_mode:
        return plain, None
    return plain, Entries(*_modified_blocks(blocks, us, bp, True).swapaxes(0, 1))


def act_chunk(sites: int) -> int:
    """States per :func:`act` call of a stacked build at ``sites`` sites.

    A call's rows, 2 x 2^(N+1) complex numbers a state, stay within
    ``STACK_BYTES`` and its charge within ``linalg.MAX_BYTES`` (read at call
    time); a chunk holds at least one state.
    """
    rows = 64 << sites
    return max(1, min(STACK_BYTES // rows, linalg.MAX_BYTES // (8 * rows)))


def act_bytes(sites: int, diagonal: bool) -> int:
    """Bytes :func:`act` returns per state at ``sites`` sites: the raw
    blocks ``A, B, C, D``, the shifted ``d`` and, unless ``diagonal``, the
    four modified entries, ``2^N`` complex numbers each."""
    return (5 if diagonal else 9) * 16 << sites


def double_row(u, cs: ChainSpec, bp: BoundaryParams) -> Entries:
    """Entries of the double-row monodromy with the dressed d-shift applied."""
    us = [complex(u)]
    return Entries(*(_freeze(e)[0] for e in _entries(_raw_blocks(us, cs, bp), us)))


def modified_entries(u, cs: ChainSpec, bp: BoundaryParams) -> Entries:
    """Entries conjugated by the similarity matrix (two routes, cross-checked:
    see :func:`_modified_blocks`)."""
    if bp.diagonal_mode:
        raise ParameterError("modified entries are undefined for diagonal couplings")
    us = [complex(u)]
    blocks = _modified_blocks(_raw_blocks(us, cs, bp), us, bp, False)
    return Entries(*_freeze(blocks)[0])


def transfer_matrix(u, cs: ChainSpec, bp: BoundaryParams) -> np.ndarray:
    """Double-row transfer matrix t(u): a one-point :func:`transfer_matrices` stack."""
    return transfer_matrices([complex(u)], cs, bp)[0]


def transfer_forms(points, cs: ChainSpec, bp: BoundaryParams):
    """``(t, forms)``: ``t(u)`` at every point, one frozen ``(len(points),
    2^N, 2^N)`` array, and, for generic couplings, each point's relative
    disagreement between the trace form and the modified two-term form
    (``None`` for diagonal couplings).

    Every point is cross-checked against the literal ``K^+`` trace and, for
    generic couplings, against the modified form (see
    :func:`_transfer_blocks`), judged per point; an error names the point it
    trips at.  The points are built in stacked chunks whose raw block stays
    within ``STACK_BYTES``.  Nothing is cached.  A stack or a chunk's build
    over ``linalg.MAX_BYTES`` raises ``DimensionError`` before it is
    allocated.
    """
    half = 1 << cs.sites
    us = [complex(u) for u in points]
    linalg.check_bytes(len(us) * half * half * 16, "transfer-matrix stack")
    out = np.empty((len(us), half, half), dtype=complex)
    forms = None if bp.diagonal_mode else np.empty(len(us))
    # Points per chunk: raw blocks of (2 half)^2 complex numbers each.
    step = max(1, STACK_BYTES // (4 * half * half * 16))
    for lo in range(0, len(us), step):
        where, chunk = slice(lo, lo + step), us[lo : lo + step]
        raw = _raw_blocks(chunk, cs, bp)
        closed = None if forms is None else _modified_blocks(raw, chunk, bp, False)
        out[where], res = _transfer_blocks(raw, chunk, bp, closed)
        if forms is not None:
            forms[where] = res[:, 1]
    return _freeze(out), forms


def transfer_matrices(points, cs: ChainSpec, bp: BoundaryParams) -> np.ndarray:
    """``t(u)`` at every point: the stack of :func:`transfer_forms`."""
    return transfer_forms(points, cs, bp)[0]


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
        closed = _modified_blocks(raw, us, bp, False)
        families.append(("modified", closed.swapaxes(0, 1)))
    res = {}
    for family, entries in families:
        at_u, at_v = zip(*entries)
        for name, val in _relation_residuals(at_u, at_v, *us).items():
            res[f"{family}:{name}"] = val
    return res
