"""Transfer-matrix eigenvalues, Bethe equations, and the T-Q root solver.

The scalar functions in this module (vacuum eigenvalues, dressed and
inhomogeneous eigenvalue terms, residuals, Jacobians) are written with plain
arithmetic only, so they run unchanged on ``complex`` and ``mpmath.mpc``
inputs.  Matrix work (the common eigenbasis, the T-Q least squares) stays in
numpy double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels as kn
from .double_row import transfer_matrix
from .errors import ConvergenceError, ParameterError, PoleError
from .params import (
    BoundaryParams,
    ChainSpec,
    draw_spectral_point,
    draw_spectral_points,
)
from .precision import lift_problem, lift_roots, workdps

__all__ = [
    "BetheRoots",
    "vacuum_eigenvalues",
    "vacuum_eigenvalue_derivatives",
    "eigenvalue_dressed",
    "eigenvalue_inhomogeneous",
    "lambda_total",
    "lambda_total_derivative",
    "bethe_residuals",
    "bethe_residuals_scaled",
    "residual_jacobian",
    "solve_bethe",
    "solve_bethe_diagonal",
    "refine_roots",
    "normalize_root_set",
    "root_sets_match",
    "transfer_branch_basis",
]


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


def vacuum_eigenvalue_derivatives(u, cs: ChainSpec, bp: BoundaryParams):
    """(lam1, dlam1, lam2, dlam2) with derivatives in u."""
    val1, dval1 = u + bp.p, 1
    val2, dval2 = bp.p - u - 1, -1
    for t in cs.thetas:
        for fac, slope in ((u + 1 - t, 1), (u + 1 + t, 1)):
            dval1 = dval1 * fac + val1 * slope
            val1 = val1 * fac
        for fac, slope in ((u - t, 1), (u + t, 1)):
            dval2 = dval2 * fac + val2 * slope
            val2 = val2 * fac
    pm = kn.phi(-u - 1)
    dpm = 2 / ((2 * u + 1) * (2 * u + 1))
    return val1, dval1, pm * val2, dpm * val2 + pm * dval2


# ---------------------------------------------------------------------------
# Eigenvalue terms and Bethe residuals.


def _others(roots, i):
    return tuple(roots[:i]) + tuple(roots[i + 1 :])


def dressed_value(u, roots, cs, bp):
    lam1, lam2 = vacuum_eigenvalues(u, cs, bp)
    return kn.alpha_bar(u, bp) * lam1 * kn.f_product(u, roots) + kn.delta_bar(
        u, bp
    ) * lam2 * kn.h_product(u, roots)


def dressed_unwanted(i, roots, cs, bp):
    """Coefficient whose vanishing is the dressed part of the Bethe equation."""
    ui = roots[i]
    rest = _others(roots, i)
    lam1, lam2 = vacuum_eigenvalues(ui, cs, bp)
    return -kn.phi(-ui - 1) * kn.alpha_bar(ui, bp) * lam1 * kn.f_product(
        ui, rest
    ) + kn.phi(ui) * kn.delta_bar(ui, bp) * lam2 * kn.h_product(ui, rest)


def inhomogeneous_value(u, roots, cs, bp):
    if bp.diagonal_mode:
        return 0j
    lam1, lam2 = vacuum_eigenvalues(u, cs, bp)
    return (
        bp.rho
        * kn.tilde_phi(u, bp.p)
        * lam1
        * lam2
        / kn.Q_product(u, roots)
    )


def inhomogeneous_unwanted(i, roots, cs, bp):
    if bp.diagonal_mode:
        return 0j
    ui = roots[i]
    rest = _others(roots, i)
    lam1, lam2 = vacuum_eigenvalues(ui, cs, bp)
    return (
        bp.rho
        * (kn.tilde_phi(ui, bp.p) / (2 * ui + 1))
        * lam1
        * lam2
        / kn.Q_product(ui, rest)
    )


def eigenvalue_dressed(u, roots, cs: ChainSpec, bp: BoundaryParams):
    """Dressed eigenvalue term and the per-root unwanted coefficients."""
    roots = tuple(roots)
    value = dressed_value(u, roots, cs, bp)
    unwanted = [dressed_unwanted(i, roots, cs, bp) for i in range(len(roots))]
    return value, unwanted


def eigenvalue_inhomogeneous(u, roots, cs: ChainSpec, bp: BoundaryParams):
    """Inhomogeneous term, its unwanted coefficients, and the full eigenvalue.

    Only defined when the number of roots equals the number of sites.
    """
    roots = tuple(roots)
    if len(roots) != cs.sites:
        raise ParameterError(
            "inhomogeneous eigenvalue term needs exactly one root per site"
        )
    value = inhomogeneous_value(u, roots, cs, bp)
    unwanted = [
        inhomogeneous_unwanted(i, roots, cs, bp) for i in range(len(roots))
    ]
    total = dressed_value(u, roots, cs, bp) + value
    return value, unwanted, total


def lambda_total(u, roots, cs: ChainSpec, bp: BoundaryParams):
    roots = tuple(roots)
    return dressed_value(u, roots, cs, bp) + inhomogeneous_value(
        u, roots, cs, bp
    )


def lambda_total_derivative(
    v,
    roots,
    i: int,
    cs: ChainSpec,
    bp: BoundaryParams,
    include_dressed: bool = True,
    include_inhomogeneous: bool = True,
):
    """d/d roots[i] of the eigenvalue expression evaluated at spectral point v."""
    roots = tuple(roots)
    ui = roots[i]
    rest = _others(roots, i)
    lam1, lam2 = vacuum_eigenvalues(v, cs, bp)
    out = 0j
    if include_dressed:
        out = out + kn.alpha_bar(v, bp) * lam1 * kn.d_f_dv(v, ui) * kn.f_product(
            v, rest
        )
        out = out + kn.delta_bar(v, bp) * lam2 * kn.d_h_dv(v, ui) * kn.h_product(
            v, rest
        )
    if include_inhomogeneous and not bp.diagonal_mode:
        lam_g = inhomogeneous_value(v, roots, cs, bp)
        out = out + lam_g * (2 * ui + 1) / kn.Q(v, ui)
    return out


def bethe_residuals(roots, cs: ChainSpec, bp: BoundaryParams):
    """Unwanted-term coefficients whose simultaneous vanishing is the Bethe system."""
    roots = tuple(roots)
    if len(roots) != cs.sites and not bp.diagonal_mode:
        raise ParameterError("full Bethe system needs one root per site")
    out = []
    for i in range(len(roots)):
        out.append(
            dressed_unwanted(i, roots, cs, bp)
            + inhomogeneous_unwanted(i, roots, cs, bp)
        )
    return out


def bethe_residuals_scaled(roots, cs: ChainSpec, bp: BoundaryParams):
    """(raw residuals, scale per equation); scale = sum of term magnitudes."""
    roots = tuple(roots)
    raw, scales = [], []
    for i in range(len(roots)):
        t_d = dressed_unwanted(i, roots, cs, bp)
        t_g = inhomogeneous_unwanted(i, roots, cs, bp)
        ui = roots[i]
        rest = _others(roots, i)
        lam1, lam2 = vacuum_eigenvalues(ui, cs, bp)
        s = (
            abs(kn.phi(-ui - 1) * kn.alpha_bar(ui, bp) * lam1)
            * abs(kn.f_product(ui, rest))
            + abs(kn.phi(ui) * kn.delta_bar(ui, bp) * lam2)
            * abs(kn.h_product(ui, rest))
            + abs(t_g)
        )
        raw.append(t_d + t_g)
        scales.append(max(float(s), 1e-300))
    return raw, scales


def _sum_replaced(values, dvalues):
    """sum_k dvalues[k] * prod_{m != k} values[m] (no divisions)."""
    total = 0
    for kk in range(len(values)):
        term = dvalues[kk]
        for mm, vm in enumerate(values):
            if mm != kk:
                term = term * vm
        total = total + term
    return total


def residual_jacobian(roots, cs: ChainSpec, bp: BoundaryParams):
    """Analytic Jacobian d residual_i / d roots[j] of the Bethe system."""
    roots = tuple(roots)
    m = len(roots)
    rows = []
    for i in range(m):
        ui = roots[i]
        rest = _others(roots, i)
        lam1, dlam1, lam2, dlam2 = vacuum_eigenvalue_derivatives(ui, cs, bp)
        pm = kn.phi(-ui - 1)
        dpm = 2 / ((2 * ui + 1) * (2 * ui + 1))
        pu = kn.phi(ui)
        dpu = kn.d_phi(ui)
        ab = kn.alpha_bar(ui, bp)
        dab = kn.d_alpha_bar(ui, bp)
        db = kn.delta_bar(ui, bp)
        ddb = kn.d_delta_bar(ui, bp)

        c1 = pm * ab * lam1
        dc1 = dpm * ab * lam1 + pm * dab * lam1 + pm * ab * dlam1
        c2 = pu * db * lam2
        dc2 = dpu * db * lam2 + pu * ddb * lam2 + pu * db * dlam2

        f_vals = [kn.f(ui, ukk) for ukk in rest]
        h_vals = [kn.h(ui, ukk) for ukk in rest]
        pf = 1
        for v in f_vals:
            pf = pf * v
        ph = 1
        for v in h_vals:
            ph = ph * v

        row = [0j] * m
        if not bp.diagonal_mode:
            tp = kn.tilde_phi(ui, bp.p)
            dtp = kn.d_tilde_phi(ui, bp.p)
            two = 2 * ui + 1
            c3 = bp.rho * (tp / two) * lam1 * lam2
            dc3 = bp.rho * (
                ((dtp * two - 2 * tp) / (two * two)) * lam1 * lam2
                + (tp / two) * (dlam1 * lam2 + lam1 * dlam2)
            )
            pq_inv = 1
            for ukk in rest:
                pq_inv = pq_inv / kn.Q(ui, ukk)
        # Diagonal entry: everything depends on u_i.
        df_du = [kn.d_f_du(ui, ukk) for ukk in rest]
        dh_du = [kn.d_h_du(ui, ukk) for ukk in rest]
        diag = -(dc1 * pf + c1 * _sum_replaced(f_vals, df_du)) + (
            dc2 * ph + c2 * _sum_replaced(h_vals, dh_du)
        )
        if not bp.diagonal_mode:
            sum_dq = 0
            for ukk in rest:
                sum_dq = sum_dq + kn.d_Q_du(ui, ukk) / kn.Q(ui, ukk)
            diag = diag + dc3 * pq_inv - c3 * pq_inv * sum_dq
        row[i] = diag

        # Off-diagonal entries: only the pair kernel with roots[j] moves.
        for jpos, j in enumerate([jj for jj in range(m) if jj != i]):
            uj = roots[j]
            pf_wo = 1
            ph_wo = 1
            for mm, ukk in enumerate(rest):
                if mm != jpos:
                    pf_wo = pf_wo * f_vals[mm]
                    ph_wo = ph_wo * h_vals[mm]
            val = -c1 * kn.d_f_dv(ui, uj) * pf_wo + c2 * kn.d_h_dv(ui, uj) * ph_wo
            if not bp.diagonal_mode:
                val = val + c3 * pq_inv * (2 * uj + 1) / kn.Q(ui, uj)
            row[j] = val
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Small generic linear algebra for the Newton steps (works on mpmath too).


def solve_small(rows, rhs):
    """Gaussian elimination with partial pivoting on a list-of-lists system."""
    m = len(rows)
    a = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    for col in range(m):
        piv = max(range(col, m), key=lambda r: abs(a[r][col]))
        if abs(a[piv][col]) == 0:
            raise ConvergenceError("singular Newton system")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
        for r in range(col + 1, m):
            factor = a[r][col] / a[col][col]
            for cc in range(col, m + 1):
                a[r][cc] = a[r][cc] - factor * a[col][cc]
    out = [0] * m
    for r in reversed(range(m)):
        acc = a[r][m]
        for cc in range(r + 1, m):
            acc = acc - a[r][cc] * out[cc]
        out[r] = acc / a[r][r]
    return out


def det_small(rows):
    """Determinant of a small list-of-lists matrix, backend agnostic."""
    m = len(rows)
    a = [list(r) for r in rows]
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


def _newton(system, x0, tol, max_iter=100, max_halvings=30):
    """Damped Newton iteration on a generic residual/Jacobian callback.

    ``system(x)`` returns (residuals, scales, jacobian_rows).  Convergence is
    on max_i |residual_i| / scale_i.  Wild trial steps may overflow the
    rational expressions; those evaluations return inf/nan, fail the descent
    test, and get halved away, so numpy's transient warnings are suppressed.
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
        res, scales, jac = system(x)
        err = err_of(res, scales)
        if not err < math.inf:
            raise ConvergenceError("starting point is out of range")
        for _ in range(max_iter):
            if err <= tol:
                return x, err
            step = solve_small(jac, [-r for r in res])
            t = 1.0
            for _ in range(max_halvings):
                cand = [xi + t * si for xi, si in zip(x, step)]
                try:
                    nres, nscales, njac = system(cand)
                except (PoleError, ZeroDivisionError):
                    t = t / 2
                    continue
                nerr = err_of(nres, nscales)
                if nerr < err:
                    x, res, scales, jac, err = cand, nres, nscales, njac, nerr
                    break
                t = t / 2
            else:
                raise ConvergenceError("Newton step stalled")
    if err <= tol:
        return x, err
    raise ConvergenceError(f"Newton did not reach tolerance ({err:.3e})")


# ---------------------------------------------------------------------------
# Root bookkeeping.


def normalize_root_set(roots, tol: float = 1e-12):
    """Canonical representative under u -> -u-1 per root, sorted."""
    reps = []
    for u in roots:
        z = 2 * u + 1
        if z.imag < -tol or (abs(z.imag) <= tol and z.real < 0):
            u = -u - 1
        reps.append(complex(u))
    reps.sort(key=lambda c: (round(c.real, 9), round(c.imag, 9)))
    return tuple(reps)


def root_sets_match(a, b, tol: float = 1e-6) -> bool:
    na, nb = normalize_root_set(a), normalize_root_set(b)
    if len(na) != len(nb):
        return False
    return all(abs(x - z) <= tol for x, z in zip(na, nb))


def _set_is_generic(roots, tol: float = 1e-6) -> bool:
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
    residuals: tuple
    residuals_scaled: tuple
    on_shell: bool
    branch: int | None = None
    eigenvalue_residual: float | None = None


def _package(roots, cs, bp, tol, branch=None, eig_res=None) -> BetheRoots:
    raw, scales = bethe_residuals_scaled(roots, cs, bp)
    scaled = tuple(float(abs(r) / s) for r, s in zip(raw, scales))
    return BetheRoots(
        roots=tuple(complex(r) for r in roots),
        residuals=tuple(complex(r) for r in raw),
        residuals_scaled=scaled,
        on_shell=bool(max(scaled, default=0.0) <= tol),
        branch=branch,
        eigenvalue_residual=None if eig_res is None else float(eig_res),
    )


def refine_roots(roots, cs: ChainSpec, bp: BoundaryParams, tol: float = 1e-12):
    """Newton-polish a root set on the Bethe system itself."""

    def system(x):
        res, scales = bethe_residuals_scaled(tuple(x), cs, bp)
        jac = residual_jacobian(tuple(x), cs, bp)
        return res, scales, jac

    refined, _ = _newton(system, list(roots), tol)
    return tuple(refined)


# ---------------------------------------------------------------------------
# Root solver: one linear T-Q solve per transfer-matrix branch.


class _BranchBasis:
    """Common eigenbasis of the commuting transfer family."""

    def __init__(self, cs, bp, sector=None, rng=None):
        self.cs = cs
        self.bp = bp
        self.sector = sector
        rng = rng or np.random.default_rng(0)
        last = None
        for _ in range(8):
            ref = draw_spectral_point(rng, cs=cs, bp=bp)
            t0 = self._matrix(ref)
            vals, vecs = np.linalg.eig(t0)
            if np.linalg.cond(vecs) > 1e8:
                last = "ill-conditioned eigenbasis"
                continue
            order = np.lexsort((np.round(vals.imag, 9), np.round(vals.real, 9)))
            self.vecs = vecs[:, order]
            self.vinv = np.linalg.inv(self.vecs)
            self.ref = ref
            return
        raise ConvergenceError(f"could not build transfer eigenbasis: {last}")

    def _matrix(self, u):
        t = transfer_matrix(u, self.cs, self.bp).matrix
        if self.sector is None:
            return t
        return t[np.ix_(self.sector, self.sector)]

    def values(self, u) -> np.ndarray:
        d = self.vinv @ self._matrix(u) @ self.vecs
        scale = max(np.abs(d).max(), 1.0)
        off = d - np.diag(np.diag(d))
        if np.abs(off).max() > 1e-7 * scale:
            raise ConvergenceError(
                "transfer family failed to diagonalize in the common basis"
            )
        return np.diag(d)

    @property
    def size(self) -> int:
        return self.vecs.shape[0]


def transfer_branch_basis(
    cs: ChainSpec, bp: BoundaryParams, rng=None, sector=None
) -> _BranchBasis:
    return _BranchBasis(cs, bp, sector=sector, rng=rng)


def _tq_terms(w, m, cs, bp):
    """T-Q coefficients at node ``w`` for a Baxter polynomial of degree ``m``.

    With ``Q(u) = prod_j (u-u_j)(u+u_j+1) = P(u(u+1))`` the eigenvalue obeys
    ``Lambda(w) P(z0) - abar lam1 P(z-) - dbar lam2 P(z+) = rho phit lam1 lam2``
    where ``z0 = w(w+1)``, ``z- = (w-1)w``, ``z+ = (w+1)(w+2)``.  Returns the
    powers ``z0^k`` and ``abar lam1 z-^k + dbar lam2 z+^k`` for ``k = 0..m``,
    and the right-hand side (zero for diagonal couplings).
    """
    lam1, lam2 = vacuum_eigenvalues(w, cs, bp)
    powers = np.arange(m + 1)
    own = (w * (w + 1)) ** powers
    down = kn.alpha_bar(w, bp) * lam1 * ((w - 1) * w) ** powers
    up = kn.delta_bar(w, bp) * lam2 * ((w + 1) * (w + 2)) ** powers
    rhs = 0j if bp.diagonal_mode else bp.rho * kn.tilde_phi(w, bp.p) * lam1 * lam2
    return own, down + up, rhs


def _tq_seeds(basis, nodes, m, cs, bp):
    """One root set per branch from the linear T-Q system at ``nodes``.

    The monic Baxter polynomial ``P`` of degree ``m`` in ``z = u(u+1)`` solves
    a linear least-squares system per branch; its zeros give the roots through
    ``u = (-1 + sqrt(1+4z))/2`` (either branch of the root is the same set up
    to the reflection ``u -> -u-1``).
    """
    terms = [_tq_terms(w, m, cs, bp) for w in nodes]
    own = np.array([t[0] for t in terms])
    shifted = np.array([t[1] for t in terms])
    rhs = np.array([t[2] for t in terms])
    eigs = np.array([basis.values(w) for w in nodes])
    seeds = []
    for br in range(basis.size):
        rows = eigs[:, br, None] * own - shifted
        a, b = rows[:, :m], rhs - rows[:, m]
        scale = np.maximum(np.abs(a).max(axis=1, initial=0.0), np.abs(b))
        coef = np.linalg.lstsq(a / scale[:, None], b / scale, rcond=None)[0]
        zs = np.roots(np.concatenate(([1.0], coef[::-1])))
        seeds.append(tuple(complex(u) for u in (-1 + np.sqrt(1 + 4 * zs)) / 2))
    return seeds


def _polish(seed, cs, bp):
    """Newton-polish a T-Q seed on the Bethe system.

    Some sets (a root pair with ``u_j + u_k`` near zero) bottom out in double
    precision just above the 1e-12 stop; those are polished in extended
    precision and rounded back, and the caller's double gates decide.
    """
    try:
        return refine_roots(seed, cs, bp, tol=1e-12)
    except ConvergenceError:
        pass
    with workdps():
        lifted = refine_roots(lift_roots(seed), *lift_problem(cs, bp), tol=1e-30)
    return tuple(complex(r) for r in lifted)


def _verify_branch(roots, targets, points, cs, bp):
    """Worst relative gap between the eigenvalue expression and ``targets``."""
    value = dressed_value if bp.diagonal_mode else lambda_total
    worst = 0.0
    for w, target in zip(points, targets):
        lam = value(w, roots, cs, bp)
        worst = max(worst, abs(lam - target) / (1.0 + abs(target)))
    return worst


def _solve_branches(cs, bp, m, rng, tol, sector=None):
    """Certified root sets with ``m`` roots for every branch of the family."""
    basis = transfer_branch_basis(cs, bp, rng=rng, sector=sector)
    check_points = draw_spectral_points(rng, 5, cs=cs, bp=bp)
    nodes = draw_spectral_points(rng, m + 2, cs=cs, bp=bp)
    targets = np.array([basis.values(w) for w in check_points])
    seeds = _tq_seeds(basis, nodes, m, cs, bp) if m else [()] * basis.size

    found = []
    for br, seed in enumerate(seeds):
        try:
            roots = _polish(seed, cs, bp)
        except (ConvergenceError, PoleError, ZeroDivisionError):
            continue
        if not _set_is_generic(roots):
            continue
        worst = _verify_branch(roots, targets[:, br], check_points, cs, bp)
        if worst > 1e-8:
            continue
        sol = _package(roots, cs, bp, tol, branch=br, eig_res=worst)
        if sol.on_shell:
            found.append(sol)
    return found


def solve_bethe(
    cs: ChainSpec,
    bp: BoundaryParams,
    rng=None,
    tol: float = 1e-10,
):
    """Find Bethe root sets for every transfer-matrix branch.

    Each branch's eigenvalue, sampled at ``sites + 2`` spectral points, fixes
    its Baxter polynomial through the inhomogeneous T-Q relation (one linear
    least-squares solve); the polynomial's zeros are Newton-polished on the
    Bethe system.  A set is returned only if its scaled residuals are below
    ``tol`` and the eigenvalue expression matches its branch to 1e-8 at five
    fresh spectral points.  ``rng`` draws the eigenbasis reference point, the
    nodes and the check points, so equal seeds give equal output.
    """
    if bp.diagonal_mode:
        raise ParameterError("use solve_bethe_diagonal for diagonal couplings")
    rng = rng or np.random.default_rng()
    return _solve_branches(cs, bp, cs.sites, rng, tol)


def solve_bethe_diagonal(
    cs: ChainSpec,
    bp: BoundaryParams,
    magnons: int,
    rng=None,
    tol: float = 1e-10,
):
    """Root sets of the dressed (diagonal) Bethe system in one magnon sector.

    The same T-Q solve and certification as :func:`solve_bethe`, restricted
    to the transfer matrix on the ``magnons`` sector, with the inhomogeneous
    term absent; the empty sector returns the vacuum with no roots.
    """
    if not bp.diagonal_mode:
        raise ParameterError("diagonal solver needs diagonal couplings")
    if not 0 <= magnons <= cs.sites:
        raise ParameterError("magnon number out of range")
    rng = rng or np.random.default_rng()
    sector = [
        idx for idx in range(1 << cs.sites) if bin(idx).count("1") == magnons
    ]
    return _solve_branches(cs, bp, magnons, rng, tol, sector=sector)
