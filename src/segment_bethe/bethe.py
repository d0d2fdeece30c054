"""Transfer-matrix eigenvalues, Bethe equations, and the T-Q root solver.

The scalar functions in this module (vacuum eigenvalues, dressed and
inhomogeneous eigenvalue terms, residuals, Jacobians) are written with plain
arithmetic only, so they run unchanged on ``complex`` and on the
extended-precision :class:`~segment_bethe.precision.DecimalComplex` inputs
that callers lift.  The root solver itself runs in double precision only:
numpy for the common eigenbasis and the T-Q least squares, and one Newton
polish of each seed on the Bethe system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

from . import kernels as kn
from .double_row import transfer_matrices
from .errors import ConvergenceError, ParameterError, PoleError
from .params import (
    BoundaryParams,
    ChainSpec,
    draw_spectral_point,
    draw_spectral_points,
)

__all__ = [
    "BetheRoots",
    "vacuum_eigenvalues",
    "vacuum_eigenvalue_derivatives",
    "RootTerms",
    "root_terms",
    "lambda_total",
    "lambda_total_derivative",
    "lambda_total_gradient",
    "eigenvalue_parts",
    "bethe_residuals_scaled",
    "unwanted_terms",
    "residual_jacobian",
    "solve_bethe",
    "solve_bethe_diagonal",
    "refine_roots",
    "normalize_root_set",
    "root_sets_match",
    "transfer_branch_basis",
]

# Largest scaled Bethe residual the solver certifies a root set at.
BETHE_TOL = 1e-10
# Imaginary part below which 2u+1 counts as real when picking u or -u-1.
REFLECT_TOL = 1e-12
# Largest gap between matching roots of two normalised root sets.
ROOT_MATCH_TOL = 1e-6
# Smallest distance a certified set keeps from its degenerate loci.
GENERIC_ROOT_TOL = 1e-6


# ---------------------------------------------------------------------------
# Vacuum eigenvalues.


def vacuum_eigenvalues(u, cs: ChainSpec, bp: BoundaryParams):
    """Eigenvalues of the diagonal double-row entries on the reference state."""
    lam1 = u + bp.p
    lam2 = bp.p - u - 1
    for t in cs.thetas:
        lam1 = lam1 * (u + 1 - t) * (u + 1 + t)
        lam2 = lam2 * (u - t) * (u + t)
    return lam1, kn.phi(-u - 1) * lam2


def _vacuum_derivatives(u, cs: ChainSpec, bp: BoundaryParams):
    """(lam1, dlam1, lam2, dlam2, pm, dpm), ``pm = phi(-u-1)``, with
    derivatives in u."""
    val1, dval1 = u + bp.p, 1
    val2, dval2 = bp.p - u - 1, -1
    for t in cs.thetas:
        for fac in (u + 1 - t, u + 1 + t):
            dval1 = dval1 * fac + val1
            val1 = val1 * fac
        for fac in (u - t, u + t):
            dval2 = dval2 * fac + val2
            val2 = val2 * fac
    pm = kn.phi(-u - 1)
    dpm = 2 / ((2 * u + 1) * (2 * u + 1))
    return val1, dval1, pm * val2, dpm * val2 + pm * dval2, pm, dpm


def vacuum_eigenvalue_derivatives(u, cs: ChainSpec, bp: BoundaryParams):
    """(lam1, dlam1, lam2, dlam2) with derivatives in u."""
    return _vacuum_derivatives(u, cs, bp)[:4]


class RootTerms(NamedTuple):
    """Everything the Bethe system and the norm matrix need at one root ``u``.

    ``lam1``/``lam2`` are the vacuum eigenvalues, ``pm = phi(-u-1)``,
    ``pu = phi(u)``, ``ab``/``db`` the modified trace coefficients
    ``alpha_bar``/``delta_bar``, ``tp = tilde_phi(u, p)`` (``None`` for
    diagonal couplings), each with its ``u``-derivative ``d*``;
    ``c1 = pm ab lam1`` and ``c2 = pu db lam2`` weigh the dressed terms
    of the Bethe equation at ``u``, ``c3 = rho tp lam1 lam2 / (2u+1)`` its
    inhomogeneous term (``0j`` for diagonal couplings).
    """

    u: Any
    lam1: Any
    dlam1: Any
    lam2: Any
    dlam2: Any
    pm: Any
    dpm: Any
    pu: Any
    dpu: Any
    ab: Any
    dab: Any
    db: Any
    ddb: Any
    tp: Any
    dtp: Any
    c1: Any
    c2: Any
    c3: Any


def root_terms(u, cs: ChainSpec, bp: BoundaryParams) -> RootTerms:
    """The per-root table of one root, computed in one pass.

    Each kernel and its derivative is evaluated once, with the operations of
    the separate kernels in the same order, so every field equals what
    :func:`vacuum_eigenvalue_derivatives` and the ``kernels`` functions give.
    """
    lam1, dlam1, lam2, dlam2, pm, dpm = _vacuum_derivatives(u, cs, bp)
    pu, dpu = kn.phi_and_derivative(u)
    rho = bp.rho
    one_rho = 1 - rho
    shifted = bp.q + u * one_rho
    ab, db = pu * shifted, bp.q - (1 + u) * one_rho
    tp = dtp = None
    c3 = 0j
    if not bp.diagonal_mode:
        tp, dtp = kn.tilde_phi_and_derivative(u, bp.p)
        c3 = rho * (tp / (2 * u + 1)) * lam1 * lam2
    return RootTerms(
        u=u,
        lam1=lam1,
        dlam1=dlam1,
        lam2=lam2,
        dlam2=dlam2,
        pm=pm,
        dpm=dpm,
        pu=pu,
        dpu=dpu,
        ab=ab,
        dab=dpu * shifted + pu * one_rho,
        db=db,
        ddb=-one_rho,
        tp=tp,
        dtp=dtp,
        c1=pm * ab * lam1,
        c2=pu * db * lam2,
        c3=c3,
    )


# ---------------------------------------------------------------------------
# Eigenvalue terms and Bethe residuals.


def _coefficients(u, cs: ChainSpec, bp: BoundaryParams):
    """``(abar lam1, dbar lam2, rho phit lam1 lam2)`` at ``u``.

    The weights of the eigenvalue's ``f``-, ``h``- and ``1/Q``-terms at
    ``u`` (and of the T-Q relation's three terms); the last is ``0j`` for
    diagonal couplings.  Every eigenvalue evaluation reads this table.
    """
    lam1, lam2 = vacuum_eigenvalues(u, cs, bp)
    g = 0j
    if not bp.diagonal_mode:
        g = bp.rho * kn.tilde_phi(u, bp.p) * lam1 * lam2
    return kn.alpha_bar(u, bp) * lam1, kn.delta_bar(u, bp) * lam2, g


def _product(values, skip=()):
    """Ordered product of ``values`` leaving out the positions in ``skip``."""
    out = 1
    for k, v in enumerate(values):
        if k not in skip:
            out = out * v
    return out


class _Expression:
    """``E(v) = a prod_k f(v,u_k) + d prod_k h(v,u_k) + g / prod_k Q(v,u_k)``.

    The eigenvalue at ``v`` is ``E`` with :func:`_coefficients` at ``v``;
    Bethe residual ``i`` is ``E`` at ``u_i`` over the other roots with
    weights ``(-c1, c2, c3)``.  Each pair's ``(f, h, Q)`` is computed once
    and kept with the three products; ``dressed`` is ``a prod f + d prod h``
    and ``inhomogeneous`` is ``g / prod Q`` (``0j`` unless ``generic``).
    """

    def __init__(self, v, roots, coeffs, generic):
        a, d, g = coeffs
        pairs = [kn.fhq(v, u) for u in roots]
        self.f = [p[0] for p in pairs]
        self.h = [p[1] for p in pairs]
        self.q = [p[2] for p in pairs]
        self.pf, self.ph, self.pq = map(_product, (self.f, self.h, self.q))
        self.dressed = a * self.pf + d * self.ph
        self.inhomogeneous = g / self.pq if generic else 0j
        self.v, self.roots, self.a, self.d, self.generic = v, roots, a, d, generic

    def gradient(self):
        """``dE / du_k`` for every root ``u_k``, from the same pair table."""
        out = []
        for k, u in enumerate(self.roots):
            entry = self.a * kn.d_f_dv(self.v, u) * _product(self.f, (k,)) + (
                self.d * kn.d_h_dv(self.v, u) * _product(self.h, (k,))
            )
            if self.generic:
                entry = entry + self.inhomogeneous * (2 * u + 1) / self.q[k]
            out.append(entry)
        return out


def _eigenvalue_at(u, roots, cs: ChainSpec, bp: BoundaryParams) -> _Expression:
    return _Expression(u, tuple(roots), _coefficients(u, cs, bp), not bp.diagonal_mode)


def eigenvalue_parts(u, roots, cs: ChainSpec, bp: BoundaryParams):
    """``(dressed, inhomogeneous)`` terms of the eigenvalue at ``u``; the
    second is ``0j`` for diagonal couplings."""
    e = _eigenvalue_at(u, roots, cs, bp)
    return e.dressed, e.inhomogeneous


def lambda_total(u, roots, cs: ChainSpec, bp: BoundaryParams):
    """The eigenvalue expression at ``u``: the sum of :func:`eigenvalue_parts`."""
    e = _eigenvalue_at(u, roots, cs, bp)
    return e.dressed + e.inhomogeneous


def lambda_total_gradient(v, roots, cs: ChainSpec, bp: BoundaryParams):
    """d/d roots[i] of the eigenvalue expression at ``v``, for every ``i``."""
    return _eigenvalue_at(v, roots, cs, bp).gradient()


def lambda_total_derivative(v, roots, i: int, cs: ChainSpec, bp: BoundaryParams):
    """d/d roots[i] of the eigenvalue expression evaluated at spectral point v."""
    return lambda_total_gradient(v, roots, cs, bp)[i]


def _bethe_system(roots, cs: ChainSpec, bp: BoundaryParams, terms=None):
    """``(residuals, scales, jacobian, dressed, inhomogeneous)`` at ``roots``.

    Residual ``i`` is the :class:`_Expression` at ``u_i`` over the other
    roots with weights ``(-c1, c2, c3)`` from its :class:`RootTerms`
    (``terms``, computed here unless given); its scale is ``|c1| |prod f|
    + |c2| |prod h| + |inhomogeneous|``.  The Jacobian
    ``d residual_i / d roots[j]`` is built from the same tables when called,
    so Newton pays for it only when it takes a step: row ``i`` off the
    diagonal is that expression's gradient.
    """
    roots = tuple(roots)
    m = len(roots)
    generic = not bp.diagonal_mode
    rho = bp.rho if generic else 0
    if terms is None:
        terms = [root_terms(u, cs, bp) for u in roots]
    others = [[k for k in range(m) if k != i] for i in range(m)]
    rows = [
        _Expression(t.u, [roots[k] for k in others[i]], (-t.c1, t.c2, t.c3), generic)
        for i, t in enumerate(terms)
    ]
    raw, scales = [], []
    for t, e in zip(terms, rows):
        raw.append(e.dressed + e.inhomogeneous)
        s = abs(t.c1) * abs(e.pf) + abs(t.c2) * abs(e.ph) + abs(e.inhomogeneous)
        scales.append(max(float(s), 1e-300))

    def jacobian():
        out = []
        for i, (t, e) in enumerate(zip(terms, rows)):
            ui = t.u
            row = [0j] * m
            for j, entry in zip(others[i], e.gradient()):
                row[j] = entry
            dc1 = (t.dpm * t.ab + t.pm * t.dab) * t.lam1 + t.pm * t.ab * t.dlam1
            dc2 = (t.dpu * t.db + t.pu * t.ddb) * t.lam2 + t.pu * t.db * t.dlam2
            df = [kn.d_f_du(ui, roots[k]) for k in others[i]]
            dh = [kn.d_h_du(ui, roots[k]) for k in others[i]]
            row[i] = -(dc1 * e.pf + t.c1 * _sum_replaced(e.f, df)) + (
                dc2 * e.ph + t.c2 * _sum_replaced(e.h, dh)
            )
            if generic:
                two = 2 * ui + 1
                dc3 = rho * (
                    ((t.dtp * two - 2 * t.tp) / (two * two)) * t.lam1 * t.lam2
                    + (t.tp / two) * (t.dlam1 * t.lam2 + t.lam1 * t.dlam2)
                )
                sum_dq = 0
                for q in e.q:
                    sum_dq = sum_dq + two / q
                row[i] = row[i] + dc3 / e.pq - e.inhomogeneous * sum_dq
            out.append(row)
        return out

    dressed = [e.dressed for e in rows]
    return raw, scales, jacobian, dressed, [e.inhomogeneous for e in rows]


def bethe_residuals_scaled(roots, cs: ChainSpec, bp: BoundaryParams):
    """(raw residuals, scale per equation); scale = sum of term magnitudes."""
    return _bethe_system(roots, cs, bp)[:2]


def unwanted_terms(roots, cs: ChainSpec, bp: BoundaryParams):
    """(dressed, inhomogeneous) parts of each root's unwanted coefficient.

    They are read from the solver's one-pass table; their sum is the Bethe
    residual, and ``F(u, u_i)`` times it weighs the state with ``u_i -> u``
    in the off-shell transfer action.
    """
    return _bethe_system(roots, cs, bp)[3:]


def _sum_replaced(values, dvalues):
    """sum_k dvalues[k] * prod_{m != k} values[m] (no divisions)."""
    total = 0
    for kk in range(len(values)):
        total = total + dvalues[kk] * _product(values, (kk,))
    return total


def residual_jacobian(roots, cs: ChainSpec, bp: BoundaryParams):
    """Analytic Jacobian d residual_i / d roots[j] of the Bethe system."""
    return _bethe_system(roots, cs, bp)[2]()


# ---------------------------------------------------------------------------
# Small generic linear algebra for the Newton steps (works in both backends).


def _eliminate(a):
    """Forward elimination with partial pivoting on the rows ``a``, in place.

    Entries right of the square part (a right-hand side) are carried along.
    Returns one flag per cleared column, true where rows were swapped; it
    stops at an exactly zero pivot, so a short list marks a singular matrix.
    """
    m = len(a)
    swaps = []
    for col in range(m):
        piv = max(range(col, m), key=lambda r: abs(a[r][col]))
        if abs(a[piv][col]) == 0:
            break
        swaps.append(piv != col)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
        for r in range(col + 1, m):
            factor = a[r][col] / a[col][col]
            for cc in range(col, len(a[r])):
                a[r][cc] = a[r][cc] - factor * a[col][cc]
    return swaps


def solve_small(rows, rhs):
    """Gaussian elimination with partial pivoting on a list-of-lists system."""
    m = len(rows)
    a = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    if len(_eliminate(a)) < m:
        raise ConvergenceError("singular Newton system")
    out = [0] * m
    for r in reversed(range(m)):
        acc = a[r][m]
        for cc in range(r + 1, m):
            acc = acc - a[r][cc] * out[cc]
        out[r] = acc / a[r][r]
    return out


def det_small(rows):
    """Determinant of a small list-of-lists matrix, backend agnostic."""
    a = [list(r) for r in rows]
    swaps = _eliminate(a)
    detval = 1
    for col, swapped in enumerate(swaps):
        if swapped:
            detval = -detval
        detval = detval * a[col][col]
    return detval if len(swaps) == len(a) else 0 * detval


def _newton(system, x0, tol, max_iter=100, max_halvings=30):
    """Damped Newton iteration on a generic residual/Jacobian callback.

    ``system(x)`` returns (residuals, scales, jacobian), where ``jacobian()``
    builds the rows at ``x``; it is called only at points Newton steps from,
    never at the returned iterate.  The error is max_i |residual_i| /
    scale_i.  Newton stops once the error is at most ``tol``, when no halved
    step lowers it, or after ``max_iter`` steps, and returns its best iterate
    with that error and the residuals and scales it was judged on; the
    caller decides whether the error is good enough.  An out-of-range start
    and a singular Newton system raise ``ConvergenceError``.  Wild trial
    steps may overflow the rational expressions; those evaluations return
    inf/nan, fail the descent test, and get halved away, so numpy's
    transient warnings are suppressed.  A pole hit while evaluating a trial
    point, or while building its Jacobian, halves the step too.
    """
    x = list(x0)

    def err_of(res, scales):
        out = 0.0
        for r, s in zip(res, scales):
            val = abs(r) / s
            if not val < math.inf:
                return math.inf
            out = max(out, val)
        return out

    with np.errstate(all="ignore"):
        res, scales, jacobian = system(x)
        err = err_of(res, scales)
        if not err < math.inf:
            raise ConvergenceError("starting point is out of range")
        if err <= tol:
            return x, err, res, scales
        jac = jacobian()
        for _ in range(max_iter):
            step = solve_small(jac, [-r for r in res])
            t = 1.0
            for _ in range(max_halvings):
                cand = [xi + t * si for xi, si in zip(x, step)]
                try:
                    nres, nscales, njacobian = system(cand)
                    nerr = err_of(nres, nscales)
                    if nerr <= tol:
                        return cand, nerr, nres, nscales
                    if nerr < err:
                        jac = njacobian()
                        x, res, scales, err = cand, nres, nscales, nerr
                        break
                except (PoleError, ZeroDivisionError):
                    pass
                t = t / 2
            else:
                # No halved step lowers the error: Newton has stalled.
                break
    return x, err, res, scales


# ---------------------------------------------------------------------------
# Root bookkeeping.


def normalize_root_set(roots):
    """Canonical representative under u -> -u-1 per root, sorted."""
    reps = []
    for u in roots:
        z = 2 * u + 1
        if z.imag < -REFLECT_TOL or (abs(z.imag) <= REFLECT_TOL and z.real < 0):
            u = -u - 1
        reps.append(complex(u))
    # Roots whose rounded keys tie are ordered by a continuous key, so the
    # order follows neither the input order nor the last-bit changes a
    # reflection u -> -u-1 -> u leaves (an exact (real, imag) tie-break
    # flips when a tiny real part is lost while the imaginary parts differ).
    reps.sort(
        key=lambda c: (round(c.real, 9), round(c.imag, 9), c.real + math.pi * c.imag)
    )
    return tuple(reps)


def root_sets_match(a, b) -> bool:
    na, nb = normalize_root_set(a), normalize_root_set(b)
    if len(na) != len(nb):
        return False
    return all(abs(x - z) <= ROOT_MATCH_TOL for x, z in zip(na, nb))


def _set_is_generic(roots) -> bool:
    tol = GENERIC_ROOT_TOL
    for i, a in enumerate(roots):
        if abs(2 * a + 1) < tol:
            return False
        # u = 0 and its reflection solve their own equation identically, so
        # a set containing them carries no spectral information.
        if abs(a) < tol or abs(a + 1) < tol:
            return False
        for b in roots[i + 1 :]:
            if abs(a - b) < tol or abs(a + b + 1) < tol:
                return False
    return True


@dataclass(frozen=True)
class BetheRoots:
    """One solution of the Bethe system with its certification data."""

    roots: tuple
    residuals_scaled: tuple
    on_shell: bool
    branch: int | None = None
    eigenvalue_residual: float | None = None


def _package(roots, raw, scales, branch, eig_res) -> BetheRoots:
    """Certification record of ``roots`` from its Bethe residuals and scales."""
    scaled = tuple(float(abs(r) / s) for r, s in zip(raw, scales))
    return BetheRoots(
        roots=tuple(complex(r) for r in roots),
        residuals_scaled=scaled,
        on_shell=bool(max(scaled, default=0.0) <= BETHE_TOL),
        branch=branch,
        eigenvalue_residual=float(eig_res),
    )


def _refine(roots, cs, bp, tol):
    """Newton polish on the Bethe system: ``(roots, error, residuals, scales)``.

    The residuals and scales are those of Newton's last evaluation, at the
    returned roots, which may miss ``tol`` where Newton stalled.
    """
    refined, err, raw, scales = _newton(
        lambda x: _bethe_system(x, cs, bp)[:3], list(roots), tol
    )
    return tuple(refined), err, raw, scales


def refine_roots(roots, cs: ChainSpec, bp: BoundaryParams, tol: float = 1e-12):
    """Newton-polish a root set on the Bethe system to ``tol``, or raise."""
    refined, err = _refine(roots, cs, bp, tol)[:2]
    if err > tol:
        raise ConvergenceError(f"Newton did not reach tolerance ({err:.3e})")
    return refined


# ---------------------------------------------------------------------------
# Root solver: one linear T-Q solve per transfer-matrix branch.


class _BranchBasis:
    """Common eigenbasis of the commuting transfer family.

    Built from the first entry of the stack ``t`` whose eigenbasis has a
    condition number of at most 1e8: the solve's drawn reference point or,
    where that one is ill-conditioned, the next point already in the stack.
    :meth:`eigenvalues` reads the branches' eigenvalues off a stack of
    transfer matrices.
    """

    def __init__(self, t, sector=None):
        self.sector = sector
        for t_ref in t:
            vals, vecs = np.linalg.eig(self._restrict(t_ref))
            if not np.linalg.cond(vecs) <= 1e8:
                continue
            order = np.lexsort((np.round(vals.imag, 9), np.round(vals.real, 9)))
            self.vecs = vecs[:, order]
            self.vinv = np.linalg.inv(self.vecs)
            return
        raise ConvergenceError(
            "could not build transfer eigenbasis: ill-conditioned eigenbasis"
        )

    def _restrict(self, t):
        """``t`` (one matrix or a stack) on the sector, if there is one."""
        if self.sector is None:
            return t
        return t[(...,) + np.ix_(self.sector, self.sector)]

    def eigenvalues(self, t) -> np.ndarray:
        """Branch eigenvalues of the stack ``t``, shape ``(len(t), size)``.

        ``t`` holds ``t(u)`` at each point, as :func:`transfer_matrices`
        builds it; the stack is projected on the basis in one batched
        product, and every point's projection must be diagonal to 1e-7 of
        its largest entry.
        """
        d = self.vinv @ self._restrict(t) @ self.vecs
        mags = np.abs(d)
        scale = np.maximum(mags.max(axis=(1, 2)), 1.0)
        diag = np.arange(self.size)
        mags[:, diag, diag] = 0.0
        if not (mags.max(axis=(1, 2)) <= 1e-7 * scale).all():
            raise ConvergenceError(
                "transfer family failed to diagonalize in the common basis"
            )
        return d[:, diag, diag]

    @property
    def size(self) -> int:
        return self.vecs.shape[0]


def transfer_branch_basis(t, sector=None) -> _BranchBasis:
    return _BranchBasis(t, sector=sector)


def _tq_terms(w, m, cs, bp):
    """T-Q coefficients at node ``w`` for a Baxter polynomial of degree ``m``.

    With ``Q(u) = prod_j (u-u_j)(u+u_j+1) = P(u(u+1))`` the eigenvalue obeys
    ``Lambda(w) P(z0) - abar lam1 P(z-) - dbar lam2 P(z+) = rho phit lam1 lam2``
    where ``z0 = w(w+1)``, ``z- = (w-1)w``, ``z+ = (w+1)(w+2)``.  Returns the
    powers ``z0^k`` and ``abar lam1 z-^k + dbar lam2 z+^k`` for ``k = 0..m``,
    and the right-hand side (zero for diagonal couplings).
    """
    a, d, rhs = _coefficients(w, cs, bp)
    powers = np.arange(m + 1)
    shifted = a * ((w - 1) * w) ** powers + d * ((w + 1) * (w + 2)) ** powers
    return (w * (w + 1)) ** powers, shifted, rhs


def _tq_seeds(eigs, nodes, m, cs, bp):
    """One root set per branch from the linear T-Q system at ``nodes``.

    ``eigs[k, br]`` is branch ``br``'s eigenvalue at ``nodes[k]``.  The monic
    Baxter polynomial ``P`` of degree ``m`` in ``z = u(u+1)`` solves a linear
    least-squares system per branch; its zeros give the roots through
    ``u = (-1 + sqrt(1+4z))/2`` (either branch of the root is the same set up
    to the reflection ``u -> -u-1``).  A branch whose coefficients are not
    finite has no seed (``None``).
    """
    terms = [_tq_terms(w, m, cs, bp) for w in nodes]
    own = np.array([t[0] for t in terms])
    shifted = np.array([t[1] for t in terms])
    rhs = np.array([t[2] for t in terms])
    # Row ``br``: branch ``br``'s monic coefficients, highest power first.
    poly = np.ones((eigs.shape[1], m + 1), dtype=complex)
    for br, coef in enumerate(poly):
        rows = eigs[:, br, None] * own - shifted
        a, b = rows[:, :m], rhs - rows[:, m]
        scale = np.maximum(np.abs(a).max(axis=1, initial=0.0), np.abs(b))
        fit = np.linalg.lstsq(a / scale[:, None], b / scale, rcond=None)[0]
        coef[1:] = fit[::-1]
    roots = (-1 + np.sqrt(1 + 4 * _polynomial_zeros(poly))) / 2
    return [
        tuple(complex(u) for u in us) if np.isfinite(us).all() else None
        for us in roots
    ]


def _polynomial_zeros(poly):
    """Zeros of each row's polynomial (coefficients highest power first).

    One batched ``eigvals`` on the companion matrices ``np.roots`` builds,
    so each row's zeros are exactly those of ``np.roots``; a row with a
    non-finite coefficient gets NaN zeros and costs the others nothing.
    """
    count, degree = poly.shape[0], poly.shape[1] - 1
    finite = np.isfinite(poly).all(axis=1)
    companion = np.zeros((int(finite.sum()), degree, degree), dtype=complex)
    companion[:, 0, :] = -poly[finite, 1:] / poly[finite, :1]
    companion[:, np.arange(1, degree), np.arange(degree - 1)] = 1
    zs = np.full((count, degree), np.nan, dtype=complex)
    zs[finite] = np.linalg.eigvals(companion)
    return zs


def _verify_branch(roots, targets, points, table, bp):
    """Worst relative gap between the eigenvalue expression and ``targets``,
    with ``table`` holding each point's :func:`_coefficients`."""
    worst = 0.0
    for w, coeffs, target in zip(points, table, targets):
        e = _Expression(w, roots, coeffs, not bp.diagonal_mode)
        lam = e.dressed + e.inhomogeneous
        worst = max(worst, abs(lam - target) / (1.0 + abs(target)))
    return worst


def _solve_branches(cs, bp, m, rng, sector=None, branch=None):
    """Certified root sets with ``m`` roots, for every branch of the family
    or, with ``branch``, for the first one from ``branch`` on that passes."""
    ref = draw_spectral_point(rng, cs=cs, bp=bp)
    check_points = draw_spectral_points(rng, 5, cs=cs, bp=bp)
    nodes = draw_spectral_points(rng, m + 2, cs=cs, bp=bp)
    # One stacked build for the reference, the check points and the nodes;
    # the empty sector has no Baxter polynomial to fit, so its nodes are
    # drawn but not built.
    t = transfer_matrices([ref] + check_points + (nodes if m else []), cs, bp)
    basis = transfer_branch_basis(t, sector=sector)
    eigs = basis.eigenvalues(t[1:])
    targets, node_eigs = eigs[:5], eigs[5:]
    seeds = _tq_seeds(node_eigs, nodes, m, cs, bp) if m else [()] * basis.size
    table = [_coefficients(w, cs, bp) for w in check_points]

    size = basis.size
    start = 0 if branch is None else branch % size
    found = []
    for br in [(start + k) % size for k in range(size)]:
        if seeds[br] is None:
            continue
        try:
            roots, _, raw, scales = _refine(seeds[br], cs, bp, 1e-12)
        except (ConvergenceError, PoleError, ZeroDivisionError):
            continue
        if not _set_is_generic(roots):
            continue
        worst = _verify_branch(roots, targets[:, br], check_points, table, bp)
        if worst > 1e-8:
            continue
        sol = _package(roots, raw, scales, br, worst)
        if sol.on_shell:
            found.append(sol)
            if branch is not None:
                break
    return found


def solve_bethe(
    cs: ChainSpec,
    bp: BoundaryParams,
    rng=None,
    branch: int | None = None,
):
    """Find Bethe root sets for every transfer-matrix branch.

    Each branch's eigenvalue, sampled at ``sites + 2`` spectral points, fixes
    its Baxter polynomial through the inhomogeneous T-Q relation (one linear
    least-squares solve); the polynomial's zeros are Newton-polished on the
    Bethe system in double precision toward a 1e-12 stop, and where Newton
    stalls above it its best iterate is judged.  A set is returned only if
    its scaled residuals are below ``BETHE_TOL`` and the eigenvalue
    expression matches its branch to 1e-8 at five fresh spectral points.
    ``rng`` draws the eigenbasis reference point, the check points and the
    nodes, so equal seeds give equal output; all of them are built in one
    :func:`transfer_matrices` stack.

    With ``branch=k`` only one set is sought: the list holds the first
    branch, in basis order from ``k`` modulo the number of branches, that
    passes every gate, or is empty if none does.  It draws what a full
    solve draws, and it is ``solve_bethe(cs, bp, rng)[k]`` whenever the full
    solve misses no branch.
    """
    if bp.diagonal_mode:
        raise ParameterError("use solve_bethe_diagonal for diagonal couplings")
    rng = rng or np.random.default_rng()
    return _solve_branches(cs, bp, cs.sites, rng, branch=branch)


def solve_bethe_diagonal(
    cs: ChainSpec,
    bp: BoundaryParams,
    magnons: int,
    rng=None,
    branch: int | None = None,
):
    """Root sets of the dressed (diagonal) Bethe system in one magnon sector.

    The same T-Q solve, certification and ``branch`` choice as
    :func:`solve_bethe`, restricted to the transfer matrix on the
    ``magnons`` sector, with the inhomogeneous term absent; the empty sector
    returns the vacuum with no roots.
    """
    if not bp.diagonal_mode:
        raise ParameterError("diagonal solver needs diagonal couplings")
    if not 0 <= magnons <= cs.sites:
        raise ParameterError("magnon number out of range")
    rng = rng or np.random.default_rng()
    sector = [
        idx for idx in range(1 << cs.sites) if bin(idx).count("1") == magnons
    ]
    return _solve_branches(cs, bp, magnons, rng, sector=sector, branch=branch)
