"""Bethe vectors, transfer-matrix action checks, and basis expansions.

States are built by repeated application of the modified creation operator to
the reference state (plain operators in the diagonal limit), each entry, and
``t(u)`` as their trace form, applied by :func:`~segment_bethe.double_row.act`
without forming it.  One :class:`States` memo per draw builds every string
once: the strings a draw reads form a prefix trie, built one level at a time,
each level's nodes (bra and ket, both families, every point) in as few
``act`` calls as the chunk budget :func:`~segment_bethe.double_row.act_chunk`
allows, the memo charged to ``linalg.MAX_BYTES`` before each call.  Every
identity holds for the ket and, mirrored, for the bra; each is written once
over a :class:`_Side`.  All checks return scale-free residuals: defect norm
over the largest term norm entering the identity, so a tolerance means the
same thing at every chain size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import NamedTuple

import numpy as np

from . import kernels as kn
from .bethe import eigenvalue_parts, unwanted_terms, vacuum_eigenvalues
from .double_row import Entries, act, act_bytes, act_chunk, trace_form
from .errors import ParameterError
from .linalg import (
    check_bytes,
    identity,
    pair_residual,
    relative_residual,
    vacuum_state,
)
from .params import BoundaryParams, ChainSpec

__all__ = [
    "ExpansionCoefficients",
    "States",
    "state_family",
    "offshell_strings",
    "build_psi",
    "build_dual_psi",
    "check_offshell_action",
    "check_multiple_actions",
    "check_c_action",
    "check_cb_sweep",
    "w_coefficients",
    "w0_scalar",
    "check_expansion",
    "diagonal_w0_product",
]

# The families a state is built from, indices into ``act``'s result.
PLAIN, MODIFIED = 0, 1


def state_family(bp: BoundaryParams) -> int:
    """Modified entries build states, plain ones for diagonal couplings."""
    return PLAIN if bp.diagonal_mode else MODIFIED


class _Side(NamedTuple):
    """The ket or the bra of an identity.

    The ket is a string of ``b`` entries acting on the reference state from
    the left, the bra a string of ``c`` entries acting on it from the right.
    ``key`` names the side's residual and ``through`` its sweep residuals.
    """

    key: str
    dual: bool
    through: str

    def string(self, entries: Entries) -> np.ndarray:
        return entries.c if self.dual else entries.b

    def apply(self, op, vec):
        """``op`` applied from this side: ``op @ vec`` (ket), ``vec @ op`` (bra)."""
        return vec @ op if self.dual else op @ vec

    def couplings(self, bp):
        """``(xi_minus, xi_plus)`` for the ket, swapped for the bra."""
        if self.dual:
            return bp.xi_plus, bp.xi_minus
        return bp.xi_minus, bp.xi_plus


KET = _Side("right", False, "{}_through_b")
BRA = _Side("left", True, "c_through_{}")
SIDES = (KET, BRA)


class States:
    """One draw's Bethe states, each ``(side, family, prefix, point)`` built once.

    A string is the creation entry at ``roots[-1]`` applied to the string at
    ``roots[:-1]``, so the strings a draw reads form a prefix trie.
    :meth:`build` takes the strings a check reads and builds the trie's
    missing nodes level by level, a level being one prefix length: its
    nodes, bra and ket, every family and point, go through
    :func:`~segment_bethe.double_row.act` in chunks of
    :func:`~segment_bethe.double_row.act_chunk` states, one call each.
    ``state(side, fam, roots)`` reads a built string and ``applied(side,
    fam, roots, u)`` every entry at ``u`` on it, both families, which is
    the node of the string ``roots + (u,)``.  The memo keeps each call's whole
    output, ``node_bytes`` a node and ``nbytes`` in all, and each call is
    first charged the memo plus what it adds (``DimensionError`` over
    ``linalg.MAX_BYTES``).
    """

    def __init__(self, cs: ChainSpec, bp: BoundaryParams):
        self.cs, self.bp, self._memo = cs, bp, {}
        self.node_bytes = act_bytes(cs.sites, bp.diagonal_mode)
        self.nbytes = 0

    @staticmethod
    def _key(side: _Side, fam: int, roots) -> tuple:
        """Memo key of the nonempty string at ``roots``.  Every string
        starts at the reference state, so a one-root key has no family: one
        act call gives both."""
        fam = fam if len(roots) > 1 else None
        return side.dual, fam, tuple(roots[:-1]), complex(roots[-1])

    def build(self, wanted) -> None:
        """Build the strings ``(side, fam, roots)`` of ``wanted`` and their
        prefixes, each node not built yet in one act call per level chunk."""
        levels: dict[int, dict] = {}
        for side, fam, roots in wanted:
            for k in range(len(roots)):
                key = self._key(side, fam, roots[: k + 1])
                if key not in self._memo:
                    levels.setdefault(k, {})[key] = (side, fam, roots[:k])
        step = act_chunk(self.cs.sites)
        for k in sorted(levels):
            nodes = list(levels[k].items())
            for lo in range(0, len(nodes), step):
                chunk = nodes[lo : lo + step]
                nbytes = self.nbytes + len(chunk) * self.node_bytes
                count = len(self._memo) + len(chunk)
                check_bytes(nbytes, f"Bethe-state memo of {count} nodes")
                stack = np.array([self.state(*prefix) for _, prefix in chunk])
                us = [key[3] for key, _ in chunk]
                duals = [key[0] for key, _ in chunk]
                out = act(us, stack, self.cs, self.bp, duals)
                self.nbytes = nbytes
                self._memo.update((key, (out, j)) for j, (key, _) in enumerate(chunk))

    def applied(self, side: _Side, fam: int, roots, u) -> tuple:
        """``(plain, modified)`` entries at ``u`` on the ``fam`` string at ``roots``."""
        out, j = self._memo[self._key(side, fam, tuple(roots) + (u,))]
        return tuple(None if e is None else Entries(*(x[j] for x in e)) for e in out)

    def state(self, side: _Side, fam: int, roots) -> np.ndarray:
        if not roots:
            return vacuum_state(self.cs.sites)
        return side.string(self.applied(side, fam, roots[:-1], roots[-1])[fam])


def _one_string(side: _Side, roots, cs: ChainSpec, bp: BoundaryParams) -> np.ndarray:
    fam = state_family(bp)
    states = States(cs, bp)
    states.build([(side, fam, tuple(roots))])
    return states.state(side, fam, tuple(roots))


def build_psi(roots, cs: ChainSpec, bp: BoundaryParams) -> np.ndarray:
    """Creation-operator product applied to the reference state."""
    return _one_string(KET, roots, cs, bp)


def build_dual_psi(roots, cs: ChainSpec, bp: BoundaryParams) -> np.ndarray:
    """Dual state: annihilation-operator product applied to the left vacuum."""
    return _one_string(BRA, roots, cs, bp)


def _residual(lhs, terms) -> float:
    """Defect of ``lhs = sum(terms)`` relative to the largest of its terms."""
    return relative_residual(lhs - sum(terms), lhs, *terms)


def _swap(roots, i, u):
    """Root list with roots[i] replaced by u."""
    out = list(roots)
    out[i] = u
    return tuple(out)


def _without(roots, *idx):
    return tuple(r for j, r in enumerate(roots) if j not in idx)


def _remainder_coeff(u, bp, side: _Side):
    xi = side.couplings(bp)[0]
    return (bp.rho * (bp.rho - 1) / xi) * 2 * (u + 1)


def _action_terms(value, coeffs, u, roots, state) -> list:
    """``value * state(roots)`` and ``coeffs[i] * state(roots with u for root i)``."""
    terms = [value * state(roots)]
    terms += [c * state(_swap(roots, i, u)) for i, c in enumerate(coeffs)]
    return terms


def _offshell_reads(u, roots, bp) -> list:
    """The strings :func:`check_offshell_action` reads."""
    strings = [roots, *(_swap(roots, i, u) for i in range(len(roots))), roots + (u,)]
    return [(side, state_family(bp), s) for side in SIDES for s in strings]


def check_offshell_action(u, roots, states, cs: ChainSpec, bp: BoundaryParams) -> dict:
    """Residuals of the off-shell transfer action on ket and bra states.

    ``t(u) psi = Lambda(u) psi + sum_i F(u, u_i) E_i psi(u_i -> u)``, with
    ``Lambda`` and each ``E_i`` split into a dressed and an inhomogeneous
    part, is checked whole (``right``, ``left``); its dressed part, where the
    remainder of the creation entry at ``u`` stands for the inhomogeneous one
    (``partial_*``); and, for generic couplings, the central relation
    between that remainder and the inhomogeneous part (``central_*``).  All
    three read the draw's ``states``, one ``Lambda(u)`` and one table of
    :func:`~segment_bethe.bethe.unwanted_terms`; ``t(u) psi`` is the trace
    form of the plain entries at ``u`` on ``psi``, with no dense ``t(u)``.
    """
    u = complex(u)
    roots = tuple(roots)
    if len(roots) != cs.sites:
        raise ParameterError("off-shell action requires one root per site")
    states.build(_offshell_reads(u, roots, bp))
    lam_d, lam_g = eigenvalue_parts(u, roots, cs, bp)
    lam = lam_d + lam_g
    dressed, inhomogeneous = unwanted_terms(roots, cs, bp)
    weights = [kn.F(u, r) for r in roots]
    whole = [w * (d + g) for w, d, g in zip(weights, dressed, inhomogeneous)]
    part = [w * d for w, d in zip(weights, dressed)]
    central = [w * g for w, g in zip(weights, inhomogeneous)]
    fam, out = state_family(bp), {}
    for side in SIDES:
        state = partial(states.state, side, fam)
        # t(u) psi (psi t(u) for the bra): the node of roots + (u,) on psi.
        plain = states.applied(side, fam, roots, u)[PLAIN]
        lhs = trace_form(Entries(*(e[None] for e in plain)), [u], bp)[0]
        out[side.key] = _residual(lhs, _action_terms(lam, whole, u, roots, state))
        dressed_terms = _action_terms(lam_d, part, u, roots, state)
        if not bp.diagonal_mode:
            # The creation entry at u on the string at roots.
            remainder = _remainder_coeff(u, bp, side) * state(roots + (u,))
            dressed_terms.append(remainder)
            out[f"central_{side.key}"] = _residual(
                remainder, _action_terms(lam_g, central, u, roots, state)
            )
        out[f"partial_{side.key}"] = _residual(lhs, dressed_terms)
    return out


def _string_product(side: _Side, entries: dict, ws, cs) -> np.ndarray:
    """The side's string of ``entries`` at ``ws`` as one operator, in root order."""
    prod = np.eye(1 << cs.sites, dtype=complex)
    for w in ws:
        prod = prod @ side.string(entries[w])
    return prod


def check_multiple_actions(u, roots, cs: ChainSpec, bp: BoundaryParams) -> dict:
    """Residuals of the sweep of diagonal entries through a creation string.

    The four operator identities are checked as full matrix equalities, for
    any number of roots, on each point's entries from ``act`` on the identity;
    :func:`check_offshell_action` checks the partial action they lead to.
    """
    u = complex(u)
    roots = tuple(roots)
    points = (u,) + roots
    # Row k of an entry at w is e_k @ entry(w): the identity's rows as bras,
    # every point's in one stack, cut into act_chunk calls.
    half = 1 << cs.sites
    check_bytes(
        64 * len(points) * half * half, f"sweep entries at {len(points)} point(s)"
    )
    eye = identity(half)
    dense = np.empty((4, len(points) * half, half), dtype=complex)
    step = act_chunk(cs.sites)
    for lo in range(0, len(points) * half, step):
        rows = range(lo, min(lo + step, len(points) * half))
        us = [points[r // half] for r in rows]
        out = act(us, eye[[r % half for r in rows]], cs, bp, [True] * len(us))
        dense[:, lo : rows.stop] = out[state_family(bp)]
    family = {
        w: Entries(*dense[:, k * half : (k + 1) * half]) for k, w in enumerate(points)
    }
    e_u = family[u]

    # Per root: the string's other roots, the diagonal entries at the root
    # and the exchange weights of a and d sweeping past it.
    sweeps = []
    for i, ui in enumerate(roots):
        rest = _without(roots, i)
        e_i = family[ui]
        f_rest, h_rest = kn.f_product(ui, rest), kn.h_product(ui, rest)
        ga = kn.g(u, ui) * f_rest
        wd = kn.w(u, ui) * h_rest
        kd = kn.k(u, ui) * h_rest
        na = kn.n(u, ui) * f_rest
        sweeps.append((rest, e_i.a, e_i.d, ga, wd, kd, na))
    f_all, h_all = kn.f_product(u, roots), kn.h_product(u, roots)

    out = {}
    for side in SIDES:
        # Diagonal operator through the string: a and d, each acting from
        # this side, move to the far side of it.
        full = _string_product(side, family, roots, cs)
        terms_a = [f_all * side.apply(full, e_u.a)]
        terms_d = [h_all * side.apply(full, e_u.d)]
        for rest, a_i, d_i, ga, wd, kd, na in sweeps:
            swapped = _string_product(side, family, (u,) + rest, cs)
            terms_a.append(
                ga * side.apply(swapped, a_i) + wd * side.apply(swapped, d_i)
            )
            terms_d.append(
                kd * side.apply(swapped, d_i) + na * side.apply(swapped, a_i)
            )
        out[side.through.format("a")] = _residual(side.apply(e_u.a, full), terms_a)
        out[side.through.format("d")] = _residual(side.apply(e_u.d, full), terms_d)
    return out


# ---------------------------------------------------------------------------
# Annihilation-operator action on a Bethe vector.


def _h_single(u, idx, roots, cs, bp):
    vk = roots[idx]
    rest = _without(roots, idx)
    l1u, l2u = vacuum_eigenvalues(u, cs, bp)
    l1k, l2k = vacuum_eigenvalues(vk, cs, bp)
    fu, hu = kn.f_product(u, rest), kn.h_product(u, rest)
    fk, hk = kn.f_product(vk, rest), kn.h_product(vk, rest)
    return l1u * (
        l1k * (kn.s(u, vk) + kn.x(u, vk)) * fu * fk
        + l2k * kn.r(u, vk) * fu * hk
    ) + l2u * (
        l1k * (kn.q(u, vk) + kn.y(u, vk)) * hu * fk
        + l2k * kn.w(u, vk) * hu * hk
    )


def _alpha11(u, uk, ul):
    return (
        kn.g(u, ul) * (kn.s(u, uk) * kn.f(uk, ul) + kn.f(uk, u) * kn.x(u, uk))
        + kn.n(u, ul) * (kn.y(u, uk) * kn.f(uk, ul) + kn.f(uk, u) * kn.q(u, uk))
        + kn.g(u, uk) * (kn.s(u, uk) * kn.g(uk, ul) + kn.r(u, uk) * kn.n(uk, ul))
        + kn.n(u, uk) * (kn.y(u, uk) * kn.g(uk, ul) + kn.w(u, uk) * kn.n(uk, ul))
    )


def _alpha12(u, uk, ul):
    return (
        kn.k(u, ul) * (kn.f(uk, u) * kn.q(u, uk) + kn.f(uk, ul) * kn.y(u, uk))
        + kn.w(u, ul) * (kn.f(uk, ul) * kn.s(u, uk) + kn.f(uk, u) * kn.x(u, uk))
        + kn.g(u, uk) * (kn.k(uk, ul) * kn.r(u, uk) + kn.s(u, uk) * kn.w(uk, ul))
        + kn.n(u, uk) * (kn.k(uk, ul) * kn.w(u, uk) + kn.y(u, uk) * kn.w(uk, ul))
    )


def _alpha21(u, uk, ul):
    return (
        kn.r(u, uk) * (kn.g(u, ul) * kn.h(uk, ul) + kn.n(uk, ul) * kn.w(u, uk))
        + kn.g(uk, ul) * (kn.k(u, uk) * kn.y(u, uk) + kn.s(u, uk) * kn.w(u, uk))
        + kn.w(u, uk) * (kn.h(uk, ul) * kn.n(u, ul) + kn.k(u, uk) * kn.n(uk, ul))
    )


def _alpha22(u, uk, ul):
    return (
        kn.r(u, uk) * (kn.h(uk, ul) * kn.w(u, ul) + kn.k(uk, ul) * kn.w(u, uk))
        + kn.w(u, uk) * (kn.h(uk, ul) * kn.k(u, ul) + kn.k(u, uk) * kn.k(uk, ul))
        + kn.w(uk, ul) * (kn.k(u, uk) * kn.y(u, uk) + kn.s(u, uk) * kn.w(u, uk))
    )


def _h_pair(u, kidx, lidx, roots, cs, bp):
    vk, vl = roots[kidx], roots[lidx]
    rest = _without(roots, kidx, lidx)
    l1k, l2k = vacuum_eigenvalues(vk, cs, bp)
    l1l, l2l = vacuum_eigenvalues(vl, cs, bp)
    fk, hk = kn.f_product(vk, rest), kn.h_product(vk, rest)
    fl, hl = kn.f_product(vl, rest), kn.h_product(vl, rest)
    return l1k * (
        l1l * _alpha11(u, vk, vl) * fk * fl + l2l * _alpha12(u, vk, vl) * fk * hl
    ) + l2k * (
        l1l * _alpha21(u, vk, vl) * hk * fl
        + l2l * _alpha22(u, vl, vk) * hk * hl
    )


def _annihilation_reads(u, roots) -> list:
    """The strings :func:`_annihilation_terms` reads."""
    pairs = combinations(range(len(roots)), 2)
    strings = [_without(roots, i) for i in range(len(roots))]
    return strings + [(u,) + _without(roots, i, j) for i, j in pairs]


def _annihilation_terms(u, roots, state, cs, bp) -> list:
    """The one-root and two-root terms of an annihilation entry at ``u``
    acting on the string of ``roots``; ``state(ws)`` is that string's state
    at the roots ``ws``."""
    terms = [
        _h_single(u, i, roots, cs, bp) * state(_without(roots, i))
        for i in range(len(roots))
    ]
    for i, j in combinations(range(len(roots)), 2):
        terms.append(
            _h_pair(u, i, j, roots, cs, bp) * state((u,) + _without(roots, i, j))
        )
    return terms


def _cb_sweep_reads(u, roots) -> list:
    """The strings :func:`check_cb_sweep` reads."""
    strings = [roots + (u,)] + _annihilation_reads(u, roots)
    return [(KET, PLAIN, s) for s in strings]


def check_cb_sweep(u, roots, states, cs: ChainSpec, bp: BoundaryParams) -> float:
    """Annihilation through a plain creation string, resolved on the vacuum.

    Uses plain operators regardless of couplings, which isolates the
    single-root and pair exchange weights from the modified-basis bookkeeping.
    """
    u = complex(u)
    roots = tuple(roots)
    states.build(_cb_sweep_reads(u, roots))
    lhs = states.applied(KET, PLAIN, roots, u)[PLAIN].c
    plain_b_string = partial(states.state, KET, PLAIN)
    return _residual(lhs, _annihilation_terms(u, roots, plain_b_string, cs, bp))


def _c_action_reads(u, roots) -> list:
    """The strings :func:`check_c_action` reads."""
    swapped = [(u,) + _without(roots, i) for i in range(len(roots))]
    strings = [roots + (u,), roots] + swapped + _annihilation_reads(u, roots)
    return [(KET, MODIFIED, s) for s in strings]


def check_c_action(u, roots, states, cs: ChainSpec, bp: BoundaryParams) -> float:
    """Residual of the five-group modified annihilation action on a state."""
    u = complex(u)
    roots = tuple(roots)
    if bp.diagonal_mode:
        raise ParameterError("modified annihilation action needs generic couplings")
    states.build(_c_action_reads(u, roots))
    psi = partial(states.state, KET, MODIFIED)
    rxm = bp.rho / bp.xi_minus
    l1u, l2u = vacuum_eigenvalues(u, cs, bp)

    e_u = states.applied(KET, MODIFIED, roots, u)[MODIFIED]
    terms = [-(rxm * rxm) * e_u.b]
    terms.append(
        rxm
        * (
            kn.phi(-u - 1) * l1u * kn.f_product(u, roots)
            - l2u * kn.h_product(u, roots)
        )
        * psi(roots)
    )
    for i, vi in enumerate(roots):
        rest = _without(roots, i)
        l1i, l2i = vacuum_eigenvalues(vi, cs, bp)
        coef = -rxm * kn.w(u, vi) * (
            2 * vi * l1i * kn.g(u, vi) * kn.f_product(vi, rest)
            + (1 + 2 * vi) * l2i * kn.k(vi, u) * kn.h_product(vi, rest)
        )
        terms.append(coef * psi((u,) + rest))
    terms += _annihilation_terms(u, roots, psi, cs, bp)
    return _residual(e_u.c, terms)


# ---------------------------------------------------------------------------
# Expansion of modified states over plain creation strings.


@dataclass(frozen=True)
class ExpansionCoefficients:
    """Coefficients of a modified creation string over plain strings.

    ``levels[i]`` maps the index tuple of the retained plain roots to the
    coefficient in front of the corresponding plain string.  ``w0`` is the
    fully-contracted coefficient.
    """

    roots: tuple
    levels: dict
    w0: complex


def _w_subset_sums(roots, cs, bp):
    """Subset sums of the nested expansion products, indexed by bitmask.

    With ``base_w(u_j, S) = phi(-u_j-1) lam1(u_j) prod_{k in S} f(u_j, u_k)
    - lam2(u_j) prod_{k in S} h(u_j, u_k)`` and ``All`` the full index set,
    ``P(R)`` is the sum over orderings ``pi`` of ``R`` of
    ``prod_m base_w(u_{pi_m}, (All - R) + {pi_{m+1}, ...})``.  Choosing the last
    root of the ordering gives ``P(R) = sum_{j in R} P(R - j) base_w(u_j,
    All - R)`` with ``P({}) = 1``, which costs ``O(2^N N^2)`` instead of the
    ``N!`` orderings.  The coefficient that contracts ``All - K`` and keeps
    ``K`` is ``P(All - K) / |All - K|!``.
    """
    nn = len(roots)
    heads, tails = [], []
    pairs = [[None] * nn for _ in range(nn)]
    for j, uj in enumerate(roots):
        lam1, lam2 = vacuum_eigenvalues(uj, cs, bp)
        heads.append(kn.phi(-uj - 1) * lam1)
        tails.append(lam2)
        for k, uk in enumerate(roots):
            if k != j:
                pairs[j][k] = kn.fhq(uj, uk)
    full = (1 << nn) - 1
    table = [1.0 + 0j] + [None] * full
    for mask in range(1, full + 1):
        kept = full ^ mask
        total = 0
        for j in range(nn):
            if not mask >> j & 1:
                continue
            pf = ph = 1
            for k in range(nn):
                if kept >> k & 1:
                    pf = pf * pairs[j][k][0]
                    ph = ph * pairs[j][k][1]
            total = total + table[mask ^ (1 << j)] * (heads[j] * pf - tails[j] * ph)
        table[mask] = total
    return table


def w0_scalar(roots, cs: ChainSpec, bp: BoundaryParams):
    """Fully contracted expansion coefficient, kept in the input scalar type."""
    roots = tuple(roots)
    return _w_subset_sums(roots, cs, bp)[-1] / math.factorial(len(roots))


def w_coefficients(roots, cs: ChainSpec, bp: BoundaryParams) -> ExpansionCoefficients:
    roots = tuple(roots)
    nn = len(roots)
    table = _w_subset_sums(roots, cs, bp)
    full = (1 << nn) - 1
    levels: dict[int, dict[tuple, complex]] = {}
    for i in range(nn + 1):
        level = {}
        for keep in combinations(range(nn), i):
            out = full ^ sum(1 << j for j in keep)
            level[keep] = table[out] / math.factorial(nn - i)
        levels[i] = level
    return ExpansionCoefficients(roots, levels, complex(levels[0][()]))


def _expansion_reads(roots) -> list:
    """The strings :func:`check_expansion` reads: the plain ones at every
    subset of ``roots``, in index order, and the modified one at ``roots``."""
    subsets = [
        tuple(roots[j] for j in keep)
        for i in range(len(roots) + 1)
        for keep in combinations(range(len(roots)), i)
    ]
    plain = [(side, PLAIN, s) for side in SIDES for s in subsets]
    return plain + [(side, MODIFIED, roots) for side in SIDES]


def check_expansion(roots, states, cs: ChainSpec, bp: BoundaryParams) -> dict:
    """Residuals of the modified-string expansion over plain strings, and of
    ``w0`` against its matrix route, ``(2(rho-1)/xi_minus)^N psi[0]``."""
    roots = tuple(roots)
    if bp.diagonal_mode:
        raise ParameterError("expansion is defined for generic couplings")
    states.build(_expansion_reads(roots))
    nn = len(roots)
    coeff = w_coefficients(roots, cs, bp)
    rho = bp.rho
    out, modified = {}, {}
    for side in SIDES:
        x1, x2 = side.couplings(bp)
        pref = ((rho - 2) * x1 / (2 * (rho - 1) * x2)) ** nn
        terms = []
        for i, level in coeff.levels.items():
            for keep, wval in level.items():
                keep_roots = tuple(roots[j] for j in keep)
                terms.append(
                    pref
                    * (rho / x1) ** (nn - i)
                    * wval
                    * states.state(side, PLAIN, keep_roots)
                )
        modified[side] = states.state(side, MODIFIED, roots)
        out[side.key] = _residual(modified[side], terms)

    w0_matrix = (2 * (rho - 1) / bp.xi_minus) ** nn * modified[KET][0]
    out["w0_routes"] = pair_residual(coeff.w0, w0_matrix)
    return out


def offshell_strings(u, roots, bp: BoundaryParams) -> list:
    """Every string an off-shell draw at ``(u, roots)`` reads, for generic
    couplings: those of :func:`check_offshell_action`,
    :func:`check_cb_sweep`, :func:`check_c_action` and
    :func:`check_expansion`, to build in one :meth:`States.build`."""
    u, roots = complex(u), tuple(roots)
    return (
        _offshell_reads(u, roots, bp)
        + _cb_sweep_reads(u, roots)
        + _c_action_reads(u, roots)
        + _expansion_reads(roots)
    )


def diagonal_w0_product(roots, cs: ChainSpec, bp: BoundaryParams) -> complex:
    """Closed product form of the contracted coefficient at diagonal on-shell roots."""
    roots = tuple(roots)
    out = 1.0 + 0j
    for i, v in enumerate(roots):
        _, lam2 = vacuum_eigenvalues(v, cs, bp)
        out = out * ((-2 * v - 1) / (v + bp.q)) * lam2
        for vj in roots[i + 1 :]:
            out = out * (v + vj + 2) / (v + vj)
    return out
