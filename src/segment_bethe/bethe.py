"""Transfer-matrix eigenvalues, Bethe equations, and the T-Q root solver.

The eigenvalue expression, the Bethe system and its Jacobian are written
with plain arithmetic on arrays whose leading axes stack points and root
sets.  On complex arrays they run in numpy; on ``object`` arrays every entry
takes the scalar operations in the same order, so they run unchanged on
``complex`` and on the extended-precision
:class:`~segment_bethe.precision.DecimalComplex` inputs that callers lift,
one root set at a time.  The root solver runs in double precision only:
numpy for the common eigenbasis, one stacked T-Q least-squares solve for
every branch, and one batched Newton polish of all the seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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
    "RootTerms",
    "root_terms",
    "lambda_total",
    "lambda_total_derivative",
    "lambda_gradient_rows",
    "eigenvalue_parts",
    "bethe_residuals_scaled",
    "unwanted_terms",
    "residual_jacobian",
    "solve_bethe",
    "solve_bethe_diagonal",
    "refine_roots",
    "normalize_root_set",
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
# Newton steps per set, and step halvings per Newton step.
NEWTON_MAX_ITER = 100
NEWTON_MAX_HALVINGS = 30

_EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# Vacuum eigenvalues.


def _vacuum(u, cs: ChainSpec, bp: BoundaryParams):
    """``(lam1, lam2, pm)``: the vacuum eigenvalues and ``pm = phi(-u-1)``."""
    lam1 = u + bp.p
    lam2 = bp.p - u - 1
    u1 = u + 1
    for t in cs.thetas:
        lam1 = lam1 * (u1 - t) * (u1 + t)
        lam2 = lam2 * (u - t) * (u + t)
    pm = kn.phi(-u - 1)
    return lam1, pm * lam2, pm


def vacuum_eigenvalues(u, cs: ChainSpec, bp: BoundaryParams):
    """Eigenvalues of the diagonal double-row entries on the reference state."""
    return _vacuum(u, cs, bp)[:2]


def _vacuum_derivatives(u, cs: ChainSpec, bp: BoundaryParams):
    """(lam1, dlam1, lam2, dlam2, pm, dpm), ``pm = phi(-u-1)``, with
    derivatives in u."""
    val1, dval1 = u + bp.p, 1
    val2, dval2 = bp.p - u - 1, -1
    u1 = u + 1
    for t in cs.thetas:
        for fac in (u1 - t, u1 + t):
            dval1 = dval1 * fac + val1
            val1 = val1 * fac
        for fac in (u - t, u + t):
            dval2 = dval2 * fac + val2
            val2 = val2 * fac
    pm = kn.phi(-u - 1)
    two = 2 * u + 1
    dpm = 2 / (two * two)
    return val1, dval1, pm * val2, dpm * val2 + pm * dval2, pm, dpm


class RootTerms(NamedTuple):
    """Everything the Bethe system and the norm matrix need at one root ``u``.

    ``lam1``/``lam2`` are the vacuum eigenvalues, ``pm = phi(-u-1)``,
    ``pu = phi(u)``, ``ab``/``db`` the modified trace coefficients
    ``alpha_bar``/``delta_bar``, ``tp = tilde_phi(u, p)`` (``None`` for
    diagonal couplings), each with its ``u``-derivative ``d*``;
    ``c1 = pm ab lam1`` and ``c2 = pu db lam2`` weigh the dressed terms
    of the Bethe equation at ``u``, ``c3 = rho tp lam1 lam2 / (2u+1)`` its
    inhomogeneous term (``0j`` for diagonal couplings), and ``dc1``,
    ``dc2``, ``dc3`` are their ``u``-derivatives.
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
    dc1: Any
    dc2: Any
    dc3: Any


def root_terms(u, cs: ChainSpec, bp: BoundaryParams) -> RootTerms:
    """The per-root table of one root (or of an array of roots), in one pass.

    Each kernel and its derivative is evaluated once, with the operations of
    the separate kernels in the same order, so every field equals what the
    ``kernels`` functions give.
    """
    lam1, dlam1, lam2, dlam2, pm, dpm = _vacuum_derivatives(u, cs, bp)
    pu, dpu = kn.phi_and_derivative(u)
    tp = dtp = None
    dc3 = 0j
    if not bp.diagonal_mode:
        tp, dtp = kn.tilde_phi_and_derivative(u, bp.p)
        two = 2 * u + 1
        dc3 = bp.rho * (
            ((dtp * two - 2 * tp) / (two * two)) * lam1 * lam2
            + (tp / two) * (dlam1 * lam2 + lam1 * dlam2)
        )
    shifted, ab, db, c1, c2, c3 = _dressing(u, lam1, lam2, pm, pu, tp, bp)
    one_rho = 1 - bp.rho
    dab, ddb = dpu * shifted + pu * one_rho, -one_rho
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
        dab=dab,
        db=db,
        ddb=ddb,
        tp=tp,
        dtp=dtp,
        c1=c1,
        c2=c2,
        c3=c3,
        dc1=(dpm * ab + pm * dab) * lam1 + pm * ab * dlam1,
        dc2=(dpu * db + pu * ddb) * lam2 + pu * db * dlam2,
        dc3=dc3,
    )


def _weights(u, cs: ChainSpec, bp: BoundaryParams):
    """:func:`root_terms`' ``(c1, c2, c3)`` alone, in the same operations but
    without the derivatives: all a residual needs."""
    lam1, lam2, pm = _vacuum(u, cs, bp)
    tp = None if bp.diagonal_mode else kn.tilde_phi(u, bp.p)
    return _dressing(u, lam1, lam2, pm, kn.phi(u), tp, bp)[3:]


def _dressing(u, lam1, lam2, pm, pu, tp, bp: BoundaryParams):
    """``(shifted, ab, db, c1, c2, c3)`` at the root ``u`` from its vacuum
    eigenvalues, ``pm``, ``pu`` and ``tp`` (``None`` for diagonal couplings),
    with ``ab = pu shifted`` and ``shifted = q + u (1 - rho)``."""
    rho = bp.rho
    one_rho = 1 - rho
    shifted = bp.q + u * one_rho
    ab, db = pu * shifted, bp.q - (1 + u) * one_rho
    c3 = 0j if tp is None else rho * (tp / (2 * u + 1)) * lam1 * lam2
    return shifted, ab, db, pm * ab * lam1, pu * db * lam2, c3


def _per_root(func, x, cs: ChainSpec, bp: BoundaryParams):
    """``func(x, cs, bp)``, a NamedTuple of per-root fields, at the roots of
    the ``object`` array ``x``, evaluated root by root in scalar arithmetic
    and each field stacked back into ``x``'s shape: on a few exact scalars
    one numpy call per operation costs more than the operation itself.
    """
    if not x.size:
        return func(x, cs, bp)
    rows = [func(u, cs, bp) for u in x.ravel().tolist()]
    table = np.empty((len(rows), len(rows[0])), dtype=object)
    table[:] = rows
    return type(rows[0])(*table.T.reshape((-1,) + x.shape))


# ---------------------------------------------------------------------------
# Eigenvalue terms and Bethe residuals.


def _coefficients(u, cs: ChainSpec, bp: BoundaryParams):
    """``(abar lam1, dbar lam2, rho phit lam1 lam2)`` at ``u``.

    The weights of the eigenvalue's ``f``-, ``h``- and ``1/Q``-terms at
    ``u`` (and of the T-Q relation's three terms); the last is ``0j`` for
    diagonal couplings.  Every eigenvalue evaluation reads this table.  For
    a 1-d array of points (a solve's few check points or nodes) each entry
    is the scalar table of its point, stacked.
    """
    if isinstance(u, np.ndarray):
        rows = [_coefficients(w, cs, bp) for w in u.tolist()]
        return tuple(np.array(rows, dtype=complex).reshape(-1, 3).T)
    lam1, lam2 = vacuum_eigenvalues(u, cs, bp)
    g = 0j
    if not bp.diagonal_mode:
        g = bp.rho * kn.tilde_phi(u, bp.p) * lam1 * lam2
    return kn.alpha_bar(u, bp) * lam1, kn.delta_bar(u, bp) * lam2, g


def _objects(values) -> np.ndarray:
    """A 1-d ``object`` array holding ``values`` as they are, so that
    arithmetic on it is the scalars' own (exact ``complex`` or 60-digit)."""
    out = np.empty(len(values), dtype=object)
    out[:] = list(values)
    return out


def _product(values):
    """Ordered product ``v_0 * v_1 * ...`` along the last axis (``1`` if it
    is empty).  A loop over the few pairs: on small stacks one numpy
    multiply per pair costs less than one ``multiply.reduce``."""
    if not values.shape[-1]:
        return 1
    out = values[..., 0][()]
    for k in range(1, values.shape[-1]):
        out = out * values[..., k]
    return out


def _sum(values):
    """Ordered sum ``v_0 + v_1 + ...`` along the (non-empty) last axis."""
    out = values[..., 0][()]
    for k in range(1, values.shape[-1]):
        out = out + values[..., k]
    return out


def _others(n: int) -> np.ndarray:
    """Row ``k``: the positions ``0..n-1`` other than ``k``, in order."""
    j = np.arange(n - 1)
    return j + (j >= np.arange(n)[:, None])


def _last(x):
    """``x`` with a trailing unit axis, so it broadcasts against a pair axis."""
    return x[..., None] if isinstance(x, np.ndarray) and x.ndim else x


class _Expression:
    """``E(v) = a prod_k f(v,u_k) + d prod_k h(v,u_k) + g / prod_k Q(v,u_k)``.

    Vectorised over leading axes: ``v`` has a shape ``S``, ``roots`` a shape
    ``S' + (n,)`` with ``S`` and ``S'`` broadcasting, and the weights
    ``(a, d, g)`` broadcast against ``S``.  The eigenvalue at ``v`` is ``E``
    with :func:`_coefficients` at ``v``; Bethe residual ``i`` is ``E`` at
    ``u_i`` over the other roots with weights ``(-c1, c2, c3)``.  The pair
    table ``(f, h, Q)`` has the pairs on its last axis and is computed once;
    ``dressed`` is the sum of the ``terms`` ``a prod f`` and ``d prod h``,
    and ``inhomogeneous`` is ``g / prod Q`` (``0j`` unless ``generic``).
    On ``object`` arrays every entry takes the scalar operations of the
    per-pair kernels in their order.
    """

    def __init__(self, v, roots, coeffs, generic):
        a, d, g = coeffs
        self.fn, self.hn, self.q = kn.pair_numerators(_last(v), roots)
        self.f, self.h = self.fn / self.q, self.hn / self.q
        self.pf, self.ph, self.pq = map(_product, (self.f, self.h, self.q))
        self.terms = (a * self.pf, d * self.ph)
        self.dressed = self.terms[0] + self.terms[1]
        self.inhomogeneous = g / self.pq if generic else 0j
        self.v, self.roots, self.a, self.d, self.generic = v, roots, a, d, generic

    @cached_property
    def qsq(self):
        """``Q(v, u_k)^2``, the denominator of every pair derivative."""
        return self.q * self.q

    def leave_one_out(self):
        """``prod_{j != k} f_j`` and ``prod_{j != k} h_j`` for every pair ``k``."""
        others = _others(self.roots.shape[-1])
        return _product(self.f[..., others]), _product(self.h[..., others])

    def gradient(self, leave_one_out=None):
        """``dE / du_k`` for every root ``u_k`` (last axis), from the same
        pair table; ``leave_one_out`` passes :meth:`leave_one_out` if
        already formed."""
        loo_f, loo_h = leave_one_out or self.leave_one_out()
        v, two, qsq = _last(self.v), 2 * self.roots + 1, self.qsq
        d_f = -2 * v * two / qsq
        d_h = 2 * (v + 1) * two / qsq
        out = _last(self.a) * d_f * loo_f + _last(self.d) * d_h * loo_h
        if self.generic:
            out = out + _last(self.inhomogeneous) * two / self.q
        return out


def _eigenvalue_at(u, roots, cs: ChainSpec, bp: BoundaryParams) -> _Expression:
    """The expression at one point ``u`` over one root set, on scalars."""
    return _Expression(
        np.asarray(u, dtype=object),
        _objects(roots),
        _coefficients(u, cs, bp),
        not bp.diagonal_mode,
    )


def lambda_gradient_rows(points, roots, cs: ChainSpec, bp: BoundaryParams):
    """d/d roots[i] of the eigenvalue expression for every ``i``, one row per
    point of ``points``, from one evaluation on scalars."""
    coeffs = [_objects(c) for c in zip(*(_coefficients(v, cs, bp) for v in points))]
    e = _Expression(_objects(points), _objects(roots), coeffs, not bp.diagonal_mode)
    return [list(row) for row in e.gradient()]


def eigenvalue_parts(u, roots, cs: ChainSpec, bp: BoundaryParams):
    """``(dressed, inhomogeneous)`` terms of the eigenvalue at ``u``; the
    second is ``0j`` for diagonal couplings."""
    e = _eigenvalue_at(u, roots, cs, bp)
    return e.dressed, e.inhomogeneous


def lambda_total(u, roots, cs: ChainSpec, bp: BoundaryParams):
    """The eigenvalue expression at ``u``: the sum of :func:`eigenvalue_parts`."""
    e = _eigenvalue_at(u, roots, cs, bp)
    return e.dressed + e.inhomogeneous


def lambda_total_derivative(v, roots, i: int, cs: ChainSpec, bp: BoundaryParams):
    """d/d roots[i] of the eigenvalue expression evaluated at spectral point v."""
    return lambda_gradient_rows([v], roots, cs, bp)[0][i]


def lambda_table(points, stack, cs: ChainSpec, bp: BoundaryParams) -> np.ndarray:
    """The eigenvalue expression at every point for every root set at once.

    ``points`` holds ``P`` spectral points and ``stack`` is a ``(B, m)``
    array of root sets; the result has shape ``(P, B)``.
    """
    points = np.asarray(points, dtype=complex)[:, None]
    coeffs = [c[:, None] for c in _coefficients(points[:, 0], cs, bp)]
    e = _Expression(points, stack, coeffs, not bp.diagonal_mode)
    return e.dressed + e.inhomogeneous


def _bethe_system(x, cs: ChainSpec, bp: BoundaryParams):
    """``(residuals, scales, jacobian, dressed, inhomogeneous)`` on a stack.

    ``x`` is a ``(B, m)`` array of ``B`` root sets: complex, or ``object``
    for exact scalars.  Residual ``(b, i)`` is the :class:`_Expression` at
    ``u_i`` over the other roots of set ``b``, with weights
    ``(-c1, c2, c3)`` of its :class:`RootTerms`; its scale is the sum of
    its three terms' magnitudes.  Every array but the scales has the dtype
    of ``x``.  The ``(B, m, m)`` Jacobian
    ``d residual_i / d roots[j]`` is built from the same tables when called,
    so Newton pays for it only when it takes a step: row ``i`` off the
    diagonal is that expression's gradient.  A root set within ``POLE_TOL``
    of a pole raises :class:`PoleError`, as the kernels do.
    """
    m = x.shape[-1]
    generic = not bp.diagonal_mode
    # An exact (object) stack is one set polished far below double
    # precision, stepped from at every evaluation but the last: it takes the
    # derivatives in the same pass.  A complex stack mostly needs none.
    exact = x.dtype == object
    if exact:
        t = _per_root(root_terms, x, cs, bp)
        c1, c2, c3 = t.c1, t.c2, t.c3
    else:
        c1, c2, c3 = _weights(x, cs, bp)
    e = _Expression(x, x[..., _others(m)], (-c1, c2, c3), generic)
    raw = e.dressed + e.inhomogeneous
    scales = np.abs(e.terms[0]) + np.abs(e.terms[1]) + np.abs(e.inhomogeneous)
    scales = np.maximum(np.asarray(scales, dtype=float), 1e-300)
    inhomogeneous = e.inhomogeneous if generic else np.full(x.shape, 0j, x.dtype)

    def jacobian():
        r = t if exact else root_terms(x, cs, bp)
        jac = np.empty(x.shape + (m,), dtype=x.dtype)
        diag_f, diag_h = r.dc1 * e.pf, r.dc2 * e.ph
        # With one root there are no pairs: no off-diagonal entries and no
        # pair derivatives on the diagonal.
        if m > 1:
            loo = e.leave_one_out()
            rows, cols = np.repeat(np.arange(m), m - 1), _others(m).ravel()
            jac[..., rows, cols] = e.gradient(loo).reshape(x.shape[:-1] + (-1,))
            two_u = 2 * x[..., None]
            two_u1 = two_u + 1
            d_f = ((two_u - 1) * e.q - e.fn * two_u1) / e.qsq
            d_h = ((two_u + 3) * e.q - e.hn * two_u1) / e.qsq
            diag_f = diag_f + c1 * _sum(d_f * loo[0])
            diag_h = diag_h + c2 * _sum(d_h * loo[1])
        diag = -diag_f + diag_h
        if generic:
            diag = diag + r.dc3 / e.pq
            if m > 1:
                diag = diag - e.inhomogeneous * _sum(two_u1 / e.q)
        jac[..., np.arange(m), np.arange(m)] = diag
        return jac

    return raw, scales, jacobian, e.dressed, inhomogeneous


def _single(roots) -> np.ndarray:
    """One root set as a ``(1, m)`` object stack."""
    return _objects(roots)[None, :]


def bethe_residuals_scaled(roots, cs: ChainSpec, bp: BoundaryParams):
    """(raw residuals, scale per equation); scale = sum of term magnitudes."""
    raw, scales = _bethe_system(_single(roots), cs, bp)[:2]
    return list(raw[0]), scales[0].tolist()


def unwanted_terms(roots, cs: ChainSpec, bp: BoundaryParams):
    """(dressed, inhomogeneous) parts of each root's unwanted coefficient.

    They are read from the solver's one-pass table; their sum is the Bethe
    residual, and ``F(u, u_i)`` times it weighs the state with ``u_i -> u``
    in the off-shell transfer action.
    """
    dressed, inhomogeneous = _bethe_system(_single(roots), cs, bp)[3:]
    return list(dressed[0]), list(inhomogeneous[0])


def residual_jacobian(roots, cs: ChainSpec, bp: BoundaryParams):
    """Analytic Jacobian d residual_i / d roots[j] of the Bethe system."""
    return [list(row) for row in _bethe_system(_single(roots), cs, bp)[2]()[0]]


# ---------------------------------------------------------------------------
# Small determinants, and Newton on a stack of sets (complex, or one set of
# ``object`` scalars).


def det_small(rows):
    """Determinant of a small list-of-lists matrix, backend agnostic.

    Row elimination with partial pivoting on the scalars themselves, so a
    60-digit matrix keeps its digits: a formula's determinant is one small
    matrix, where numpy's calls would cost far more than its arithmetic.
    """
    a = [list(r) for r in rows]
    m = len(a)
    detval = 1
    for col in range(m):
        piv = max(range(col, m), key=lambda r: abs(a[r][col]))
        if abs(a[piv][col]) == 0:
            return 0 * detval
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            detval = -detval
        detval = detval * a[col][col]
        for r in range(col + 1, m):
            factor = a[r][col] / a[col][col]
            for cc in range(col, m):
                a[r][cc] = a[r][cc] - factor * a[col][cc]
    return detval


def _errors(res, scales) -> np.ndarray:
    """``max_i |residual_i| / scale_i`` per set; ``inf`` if any is not finite."""
    err = np.asarray(np.abs(res) / scales, dtype=float).max(axis=-1, initial=0.0)
    err[~(err < math.inf)] = math.inf
    return err


def _newton(system, x0, tol):
    """Damped Newton iteration on a stack of independent problems.

    ``system(x)`` takes a ``(B, m)`` stack and returns ``(residuals,
    scales, jacobian)``, where ``jacobian()`` builds the ``(B, m, m)`` stack
    at ``x``; it is called only at points Newton steps from, never at a
    returned iterate.  Each set's error is max_i |residual_i| / scale_i.
    Each step is solved in double, one LAPACK solve for the stack with the
    Jacobians and residuals cast to ``complex``, and added to the iterate in
    the iterate's own scalars: a 60-digit set keeps 60-digit iterates and
    residuals, and only its corrections carry double's 16 digits, which
    iterative refinement makes up in further steps.
    Each set steps on its own: it stops once its error is at most ``tol``,
    when no halved step lowers it, or after ``NEWTON_MAX_ITER`` steps, and
    keeps its best iterate with that error and the residuals and scales it
    was judged on; the caller decides whether the error is good enough.
    Returns ``(x, err, residuals, scales, failed)``, ``failed`` marking the
    sets that started at a non-finite error or met an exactly singular
    Jacobian (a zero LU pivot, judged per set by the sign of ``slogdet``,
    which a tiny determinant cannot underflow).

    Wild trial steps may overflow the rational expressions; those entries
    come out inf/nan, fail the descent test, and get halved away, so numpy's
    transient warnings are suppressed.  A trial point that is not finite or
    at a pole halves only its own set's step; a pole or zero division raised
    while evaluating a trial stack, or while building its Jacobian, halves
    every set of that stack (a system raises only on ``object`` stacks,
    which hold one set).
    """
    x = np.array(x0, dtype=np.result_type(x0, complex))
    with np.errstate(all="ignore"):
        res, scales, jacobian = system(x)
        err = _errors(res, scales)
        failed = ~(err < math.inf)
        active = ~failed & (err > tol)
        if active.any():
            jac = jacobian()
        for _ in range(NEWTON_MAX_ITER):
            idx = np.flatnonzero(active)
            if not idx.size:
                break
            a = jac[idx].astype(complex)
            singular = np.linalg.slogdet(a)[0] == 0
            failed[idx[singular]] = True
            active[idx[singular]] = False
            idx, a = idx[~singular], a[~singular]
            b = -res[idx].astype(complex)
            step = np.linalg.solve(a, b[..., None])[..., 0]
            t = 1.0
            for _ in range(NEWTON_MAX_HALVINGS):
                if not idx.size:
                    break
                cand = x[idx] + t * step
                try:
                    nres, nscales, njacobian = system(cand)
                    nerr = _errors(nres, nscales)
                except (PoleError, ZeroDivisionError):
                    nerr = np.full(idx.size, math.inf)
                done = nerr <= tol
                better = (nerr < err[idx]) & ~done
                if better.any():
                    try:
                        jac[idx[better]] = njacobian()[better]
                    except (PoleError, ZeroDivisionError):
                        better[:] = False
                take = done | better
                if take.any():
                    k = idx[take]
                    x[k], res[k], scales[k], err[k] = (
                        cand[take], nres[take], nscales[take], nerr[take]
                    )
                    active[idx[done]] = False
                    idx, step = idx[~take], step[~take]
                t = t / 2
            # No halved step lowers these sets' errors: Newton has stalled.
            active[idx] = False
    return x, err, res, scales, failed


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


def _stack_system(x, cs, bp):
    """``_bethe_system(x)[:3]`` for Newton.

    On a complex stack a set within ``POLE_TOL`` of a pole does not raise:
    the stack is evaluated set by set and that set's rows come out NaN, so
    Newton halves its step alone.  An ``object`` stack raises as the kernels
    do.
    """
    try:
        return _bethe_system(x, cs, bp)[:3]
    except PoleError:
        if x.dtype == object:
            raise
    if len(x) > 1:
        parts = [_stack_system(x[k : k + 1], cs, bp) for k in range(len(x))]
        res, scales = (np.concatenate([p[i] for p in parts]) for i in (0, 1))
        return res, scales, lambda: np.concatenate([p[2]() for p in parts])
    rows = np.full(x.shape + x.shape[-1:], np.nan, dtype=x.dtype)
    return rows[..., 0], np.ones(x.shape), lambda: rows


def _refine(x, cs, bp, tol):
    """Newton polish of the ``(B, m)`` stack ``x`` on the Bethe system:
    ``(roots, errors, residuals, scales, failed)`` as :func:`_newton` gives
    them, the residuals and scales those of each set's returned roots."""
    return _newton(lambda y: _stack_system(y, cs, bp), x, tol)


def refine_roots(roots, cs: ChainSpec, bp: BoundaryParams, tol: float = 1e-12):
    """Newton-polish a root set on the Bethe system to ``tol``, or raise.

    The set is polished as a one-set ``object`` stack, so it keeps its
    scalar type: ``complex`` or 60-digit ``DecimalComplex``.  Its residuals
    are evaluated in those scalars and each Newton step is solved in double,
    so a 60-digit polish from double roots reaches 1e-40 by iterative
    refinement in a few more steps than Newton in 60 digits would take.
    """
    x, err, _, _, failed = _refine(_single(roots), cs, bp, tol)
    if failed[0]:
        raise ConvergenceError("Newton failed: non-finite start or singular system")
    if err[0] > tol:
        raise ConvergenceError(f"Newton did not reach tolerance ({err[0]:.3e})")
    return tuple(x[0])


# ---------------------------------------------------------------------------
# Root solver: one stacked T-Q solve and one batched polish for all branches.


def transfer_branch_basis(t) -> np.ndarray:
    """Eigenvalue table ``(len(t), branches)`` of the commuting stack ``t``.

    The common eigenbasis is that of the first entry whose eigenvectors
    have a condition number of at most 1e8: the solve's drawn reference
    point or, where that one is ill-conditioned, the next point in the
    stack.  Its columns are sorted by rounded eigenvalue, the order
    ``branch=k`` counts in.  Every entry is projected on it in one batched
    ``V^-1 t V``, which must be diagonal to 1e-7 of its largest entry.
    """
    for t_ref in t:
        vals, vecs = np.linalg.eig(t_ref)
        if np.linalg.cond(vecs) <= 1e8:
            break
    else:
        raise ConvergenceError(
            "could not build transfer eigenbasis: ill-conditioned eigenbasis"
        )
    vecs = vecs[:, np.lexsort((np.round(vals.imag, 9), np.round(vals.real, 9)))]
    d = np.linalg.inv(vecs) @ t @ vecs
    mags = np.abs(d)
    scale = np.maximum(mags.max(axis=(1, 2)), 1.0)
    diag = np.arange(len(vecs))
    mags[:, diag, diag] = 0.0
    if not (mags.max(axis=(1, 2)) <= 1e-7 * scale).all():
        raise ConvergenceError(
            "transfer family failed to diagonalize in the common basis"
        )
    return d[:, diag, diag]


def _tq_terms(w, m, cs, bp):
    """T-Q coefficients at the node ``w`` (or each of an array of nodes) for
    a Baxter polynomial of degree ``m``.

    With ``Q(u) = prod_j (u-u_j)(u+u_j+1) = P(u(u+1))`` the eigenvalue obeys
    ``Lambda(w) P(z0) - abar lam1 P(z-) - dbar lam2 P(z+) = rho phit lam1 lam2``
    where ``z0 = w(w+1)``, ``z- = (w-1)w``, ``z+ = (w+1)(w+2)``.  Returns the
    powers ``z0^k`` and ``abar lam1 z-^k + dbar lam2 z+^k`` for ``k = 0..m``
    on a last axis, and the right-hand side (zero for diagonal couplings).
    """
    a, d, rhs = _coefficients(w, cs, bp)
    powers = np.arange(m + 1)

    def power(z):
        return _last(np.asarray(z)) ** powers

    shifted = _last(a) * power((w - 1) * w) + _last(d) * power((w + 1) * (w + 2))
    return power(w * (w + 1)), shifted, rhs


def _least_squares(a, b):
    """Least-squares solution of every system ``a[k] x = b[k]`` of a stack.

    One stacked SVD, with the singular values at most ``np.linalg.lstsq``'s
    cutoff (machine epsilon times the larger dimension times the largest)
    left out; a system with a non-finite entry gets NaN.
    """
    count, rows, cols = a.shape
    out = np.full((count, cols), np.nan, dtype=complex)
    ok = np.isfinite(a).all(axis=(1, 2)) & np.isfinite(b).all(axis=1)
    if ok.any():
        u, s, vh = np.linalg.svd(a[ok], full_matrices=False)
        kept = s > _EPS * max(rows, cols) * s[:, :1]
        inv = kept / np.where(kept, s, 1.0)
        ub = np.conj(u).transpose(0, 2, 1) @ b[ok][..., None]
        out[ok] = (np.conj(vh).transpose(0, 2, 1) @ (inv[..., None] * ub))[..., 0]
    return out


def _tq_seeds(eigs, nodes, m, cs, bp):
    """One root set per branch from the linear T-Q system at ``nodes``.

    ``eigs[k, br]`` is branch ``br``'s eigenvalue at ``nodes[k]``.  The monic
    Baxter polynomial ``P`` of degree ``m`` in ``z = u(u+1)`` solves a linear
    least-squares system per branch, all in one stacked solve; its zeros give
    the roots through ``u = (-1 + sqrt(1+4z))/2`` (either branch of the root
    is the same set up to the reflection ``u -> -u-1``).  Returns a
    ``(branches, m)`` array; a branch whose coefficients are not finite has
    no seed (a row that is not finite).
    """
    own, shifted, rhs = _tq_terms(np.asarray(nodes), m, cs, bp)
    rows = eigs.T[:, :, None] * own - shifted
    a, b = rows[..., :m], rhs - rows[..., m]
    scale = np.maximum(np.abs(a).max(axis=2, initial=0.0), np.abs(b))
    fit = _least_squares(a / scale[..., None], b / scale)
    # Row ``br``: branch ``br``'s monic coefficients, highest power first.
    poly = np.ones((len(fit), m + 1), dtype=complex)
    poly[:, 1:] = fit[:, ::-1]
    return (-1 + np.sqrt(1 + 4 * _polynomial_zeros(poly))) / 2


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


def _certify(branches, seeds, targets, points, cs, bp):
    """The certified sets of ``branches``, in their order, from one batched
    polish of their seeds and one eigenvalue gate at the check ``points``
    (``targets[k, br]`` is branch ``br``'s eigenvalue at ``points[k]``)."""
    branches = branches[np.isfinite(seeds[branches]).all(axis=1)]
    if not branches.size:
        return []
    roots, _, raw, scales, failed = _refine(seeds[branches], cs, bp, 1e-12)
    keep = ~failed & np.array([_set_is_generic(r) for r in roots.tolist()], dtype=bool)
    worst = np.full(len(branches), np.inf)
    if keep.any():
        target = targets[:, branches[keep]]
        gap = np.abs(lambda_table(points, roots[keep], cs, bp) - target)
        worst[keep] = (gap / (1.0 + np.abs(target))).max(axis=0)
    passed = np.flatnonzero(worst <= 1e-8)
    scaled = (np.abs(raw[passed]) / scales[passed]).tolist()
    return [
        BetheRoots(
            roots=tuple(root_set),
            residuals_scaled=tuple(sc),
            on_shell=True,
            branch=int(branches[k]),
            eigenvalue_residual=float(worst[k]),
        )
        for k, root_set, sc in zip(passed.tolist(), roots[passed].tolist(), scaled)
        if max(sc, default=0.0) <= BETHE_TOL
    ]


def _solve_branches(cs, bp, sectors, rng, branch=None):
    """Certified root sets of each ``(m, sector)`` pair, in order: every
    branch on the sector or, with ``branch``, the first one from ``branch``
    on that passes.  One draw and one :func:`transfer_matrices` stack serve
    every sector: the reference, five check points and ``sites + 2`` nodes.
    A sector with ``m`` roots restricts the first ``m + 8`` to its block
    once, and reads and fits the eigenvalues at the first ``m + 2`` nodes."""
    ref = draw_spectral_point(rng, cs=cs, bp=bp)
    check_points = draw_spectral_points(rng, 5, cs=cs, bp=bp)
    nodes = draw_spectral_points(rng, cs.sites + 2, cs=cs, bp=bp)
    t = transfer_matrices([ref] + check_points + nodes, cs, bp)
    found = []
    for m, sector in sectors:
        block = t[: 8 + m]
        if sector is not None:
            block = block[(...,) + np.ix_(sector, sector)]
        eigs = transfer_branch_basis(block)
        targets, size = eigs[1:6], eigs.shape[1]
        if m:
            seeds = _tq_seeds(eigs[6:], nodes[: m + 2], m, cs, bp)
        else:
            seeds = np.zeros((size, 0), dtype=complex)

        order = (np.arange(size) + (0 if branch is None else branch)) % size
        if branch is None:
            found += _certify(order, seeds, targets, check_points, cs, bp)
            continue
        # The chosen branch alone first; the others, in order, only if it fails.
        for group in (order[:1], order[1:]):
            sets = _certify(group, seeds, targets, check_points, cs, bp)
            if sets:
                found.append(sets[0])
                break
    return found


def solve_bethe(
    cs: ChainSpec,
    bp: BoundaryParams,
    rng,
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
    return _solve_branches(cs, bp, [(cs.sites, None)], rng, branch=branch)


def solve_bethe_diagonal(
    cs: ChainSpec,
    bp: BoundaryParams,
    rng,
    branch: int | None = None,
):
    """Root sets of the dressed (diagonal) Bethe system in every magnon sector.

    Diagonal couplings keep the magnon number, so ``t(u)`` is block diagonal
    and one draw and one :func:`transfer_matrices` stack serve the sectors
    ``m = 0..sites``.  Each sector gets the T-Q solve, certification and
    ``branch`` choice of :func:`solve_bethe` on its block, with the
    inhomogeneous term absent; the empty sector is the vacuum with no roots.
    The sets come in sector order, so a set's magnon number is its root
    count; with ``branch=k`` there is at most one set per sector.
    """
    if not bp.diagonal_mode:
        raise ParameterError("diagonal solver needs diagonal couplings")
    sectors = [
        (m, [idx for idx in range(1 << cs.sites) if bin(idx).count("1") == m])
        for m in range(cs.sites + 1)
    ]
    return _solve_branches(cs, bp, sectors, rng, branch=branch)
