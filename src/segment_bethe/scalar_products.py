"""Scalar products of Bethe states: brute force and determinant formulas.

Conventions for the determinant formulas: one root set is on shell (solves
the Bethe system), the other is free.  Matrices are indexed so that row ``i``
differentiates/evaluates against the ``i``-th member of one set and column
``j`` against the ``j``-th member of the other; see each builder's docstring.

The formulas are evaluated through the generic scalar layer, so passing
``precision="extended"`` reruns the same code on 60-digit
:class:`~segment_bethe.precision.DecimalComplex` scalars.
"""

from __future__ import annotations

import math
import warnings

from . import kernels as kn
from .bethe import (
    det_small,
    eigenvalue_parts,
    lambda_gradient_rows,
    lambda_total_derivative,
    refine_roots,
    residual_jacobian,
    root_terms,
    vacuum_eigenvalues,
)
from .errors import ConditioningWarning, ParameterError
from .linalg import pair_residual
from .params import BoundaryParams, ChainSpec
from .precision import (
    lift,
    lift_problem,
    lift_roots,
    validate_precision,
    workdps,
    working_precision,
)
from .vectors import BRA, KET, PLAIN, States, build_dual_psi, build_psi, w0_scalar

__all__ = [
    "scalar_product_direct",
    "cauchy_matrix",
    "cauchy_det_factorized",
    "slavnov_jacobians",
    "slavnov_modified",
    "gaudin_matrix",
    "gaudin_diagonal_derivative",
    "gaudin_korepin_norm",
    "norm_from_slavnov_limit",
    "n1_identities",
    "PROXIMITY_THRESHOLD",
]

PROXIMITY_THRESHOLD = 1e-3

# First shift of the free set in the coincident-set norm limit.
LIMIT_EPS = 1e-8


def scalar_product_direct(bra_roots, ket_roots, cs: ChainSpec, bp: BoundaryParams):
    """Brute-force scalar product of two Bethe states (bilinear pairing)."""
    bra = build_dual_psi(bra_roots, cs, bp)
    ket = build_psi(ket_roots, cs, bp)
    return complex(bra @ ket)


def _warn_if_close(first, second):
    dmin = math.inf
    for a in first:
        for b in second:
            dmin = min(dmin, abs(a - b), abs(a + b + 1))
    if dmin < PROXIMITY_THRESHOLD:
        loss = max(0.0, 2 * math.log10(1.0 / max(dmin, 1e-300)))
        warnings.warn(
            ConditioningWarning(
                f"root sets approach a determinant pole (distance {dmin:.2e}); "
                f"roughly {loss:.0f} digits lost in double precision"
            ),
            stacklevel=3,
        )


def _v_kernel(a, b):
    return 2 * (a + 1) * (2 * b + 1) / kn.Q(a, b)


def cauchy_matrix(free, onshell):
    """Matrix with entries 2(free_i + 1)(2 onshell_j + 1) / Q(free_i, onshell_j)."""
    return [[_v_kernel(a, b) for b in onshell] for a in free]


def cauchy_det_factorized(free, onshell):
    """Closed product form of the cauchy_matrix determinant."""
    mm = len(free)
    out = 1
    for i in range(mm):
        out = out * 2 * (free[i] + 1) * (2 * onshell[i] + 1)
    for i in range(mm):
        for j in range(i + 1, mm):
            out = out * kn.Q(onshell[j], onshell[i]) * kn.Q(free[i], free[j])
    den = 1
    for a in free:
        for b in onshell:
            den = den * kn.Q(a, b)
    return out / den


def slavnov_jacobians(free_sets, onshell, cs: ChainSpec, bp: BoundaryParams):
    """The Slavnov Jacobian of each free set against one on-shell set.

    Row ``i`` differentiates in ``onshell[i]``, column ``j`` evaluates the
    eigenvalue at ``free[j]``; every column of every set comes from one
    :func:`~segment_bethe.bethe.lambda_gradient_rows` evaluation.
    """
    onshell = tuple(onshell)
    points = [v for free in free_sets for v in free]
    columns = lambda_gradient_rows(points, onshell, cs, bp)
    out, start = [], 0
    for free in free_sets:
        block = columns[start : start + len(free)]
        start += len(free)
        out.append([[col[i] for col in block] for i in range(len(onshell))])
    return out


def _slavnov_ratios(free_sets, onshell, cs: ChainSpec, bp: BoundaryParams):
    """``det J / det V`` of each free set against one on-shell set.

    ``J`` is the set's :func:`slavnov_jacobians` entry and ``V`` its
    :func:`cauchy_matrix`; every determinant formula reads these ratios.
    """
    jacs = slavnov_jacobians(free_sets, onshell, cs, bp)
    return [
        det_small(jac) / det_small(cauchy_matrix(free, onshell))
        for free, jac in zip(free_sets, jacs)
    ]


def _slavnov_prefactor(nn, bp):
    """``((rho-2) / (2 (rho-1)^2))^nn``; ``(-1)^nn`` for diagonal couplings."""
    rho = bp.rho
    return ((rho - 2) / (2 * (rho - 1) * (rho - 1))) ** nn


def slavnov_modified(
    onshell_roots,
    free_roots,
    cs: ChainSpec,
    bp: BoundaryParams,
    precision: str = "double",
):
    """Determinant formula for the scalar product of an on-shell and a free set.

    ``onshell_roots`` solves the Bethe system; the formula differentiates the
    eigenvalue in them and evaluates at the free roots.  One value serves
    both placements: the on-shell set as the bra and as the ket.  Diagonal
    couplings are its ``rho = 0`` case: the prefactor is ``(-1)^m`` and
    ``w0`` the closed product
    :func:`~segment_bethe.vectors.diagonal_w0_product`, which gives the
    usual diagonal-boundary determinant.
    """
    validate_precision(precision)
    if len(onshell_roots) != len(free_roots):
        raise ParameterError("scalar product needs equally sized root sets")
    _warn_if_close(onshell_roots, free_roots)
    nn = len(onshell_roots)
    if nn == 0:
        return 1.0 + 0j

    with working_precision(precision):
        cs_l, bp_l = lift_problem(cs, bp, precision)
        on = lift_roots(onshell_roots, precision)
        free = lift_roots(free_roots, precision)

        (ratio,) = _slavnov_ratios([free], on, cs_l, bp_l)
        return _slavnov_prefactor(nn, bp_l) * w0_scalar(on, cs_l, bp_l) * ratio


# ---------------------------------------------------------------------------
# Norm: Gaudin-Korepin determinant.


def _gaudin_diag_explicit(t, q_minus, q_plus, rho):
    """Closed-form diagonal entry at the root of ``t`` (its :class:`RootTerms`).

    ``q_minus``/``q_plus`` hold ``Q(-u_i, u_k)``/``Q(u_i+1, u_k)`` over the
    other roots.
    """
    ui = t.u
    dtp_rel = t.dtp / t.tp
    q_m = 1
    q_p = 1
    sum_m = 0
    sum_p = 0
    for qm, qp in zip(q_minus, q_plus):
        q_m = q_m * qm
        q_p = q_p * qp
        sum_m = sum_m + 1 / qm
        sum_p = sum_p + 1 / qp
    term1 = (
        -t.pm
        * t.ab
        * t.lam1
        * q_m
        * ((2 * ui - 1) * sum_m + (1 / ui - dtp_rel + t.dab / t.ab))
    )
    term2 = (
        t.pu
        * t.db
        * t.lam2
        * q_p
        * ((2 * ui + 3) * sum_p + (1 / (ui + 1) - dtp_rel + t.ddb / t.db))
    )
    term3 = -t.dlam1 * (t.pm * t.ab * q_m - rho * t.tp * t.lam2 / (2 * ui + 1))
    term4 = t.dlam2 * (t.pu * t.db * q_p + rho * t.tp * t.lam1 / (2 * ui + 1))
    return term1 + term2 + term3 + term4


def gaudin_matrix(roots, cs: ChainSpec, bp: BoundaryParams):
    """Norm determinant matrix on an on-shell set.

    The diagonal is the closed form; :func:`gaudin_diagonal_derivative`
    gives it by a second route.  Off-diagonal entries depend on (i, j) only
    through the excluded pair.  Every entry reads one per-root table
    (:func:`root_terms`) and the pair products ``Q(-u_j, u_k)``,
    ``Q(u_j+1, u_k)``, computed once.
    """
    roots = tuple(roots)
    mm = len(roots)
    if bp.diagonal_mode:
        raise ParameterError("norm matrix applies to generic couplings")
    terms = [root_terms(u, cs, bp) for u in roots]
    q_minus = [[kn.Q(-uj, uk) for uk in roots] for uj in roots]
    q_plus = [[kn.Q(uj + 1, uk) for uk in roots] for uj in roots]
    rows = []
    for i in range(mm):
        others = [k for k in range(mm) if k != i]
        row = []
        for j in range(mm):
            if i == j:
                row.append(
                    _gaudin_diag_explicit(
                        terms[i],
                        [q_minus[i][k] for k in others],
                        [q_plus[i][k] for k in others],
                        bp.rho,
                    )
                )
            else:
                t = terms[j]
                qm = 1
                qp = 1
                for k in range(mm):
                    if k not in (i, j):
                        qm = qm * q_minus[j][k]
                        qp = qp * q_plus[j][k]
                row.append((2 * t.u + 1) * (t.c1 * qm - t.c2 * qp))
        rows.append(row)
    return rows


def gaudin_diagonal_derivative(roots, cs: ChainSpec, bp: BoundaryParams):
    """The norm matrix's diagonal by the derivative route.

    Entry ``i`` is ``prod_{k != i} Q(u_i, u_k)`` times the ``i``-th diagonal
    entry of the Bethe-system Jacobian (:func:`residual_jacobian`).
    """
    roots = tuple(roots)
    if bp.diagonal_mode:
        raise ParameterError("norm matrix applies to generic couplings")
    jac = residual_jacobian(roots, cs, bp)
    return [
        kn.Q_product(u, roots[:i] + roots[i + 1 :]) * jac[i][i]
        for i, u in enumerate(roots)
    ]


def gaudin_korepin_norm(
    roots,
    cs: ChainSpec,
    bp: BoundaryParams,
    precision: str = "double",
):
    """Square norm of an on-shell Bethe state from the Gaudin-Korepin formula."""
    validate_precision(precision)
    if bp.diagonal_mode:
        raise ParameterError("norm formula applies to generic couplings")
    roots = tuple(roots)
    nn = len(roots)
    if nn == 0:
        return 1.0 + 0j
    with working_precision(precision):
        cs_l, bp_l = lift_problem(cs, bp, precision)
        roots_l = lift_roots(roots, precision)
        gm = gaudin_matrix(roots_l, cs_l, bp_l)
        w0 = w0_scalar(roots_l, cs_l, bp_l)
        pref = _slavnov_prefactor(nn, bp_l)
        den = 1
        for u in roots_l:
            den = den * 2 * (u + 1)
        for i in range(nn):
            for j in range(i + 1, nn):
                den = (
                    den * kn.Q(roots_l[j], roots_l[i]) * kn.Q(roots_l[i], roots_l[j])
                )
        # w0 / den first: at N = 7, w0 * det(gm) alone can overflow a double
        # although the norm fits in one.
        return pref * (w0 / den) * det_small(gm)


def norm_from_slavnov_limit(roots, cs: ChainSpec, bp: BoundaryParams):
    """Norm as the coincident-set limit of the determinant scalar product.

    Shifts the free set off the on-shell one by ``LIMIT_EPS``, then by half
    and a quarter of it, along the all-ones direction, and extrapolates the
    three evaluations to zero (Neville).  It always runs at ``DEFAULT_DPS``
    digits, after a 60-digit refine of the on-shell set: the Jacobian entries
    blow up like 1/eps^2, so doubles lose the limit long before it
    stabilises.
    """
    with workdps():
        cs_l, bp_l = lift_problem(cs, bp)
        on = refine_roots(lift_roots(roots), cs_l, bp_l, tol=1e-40)
        steps = [lift(LIMIT_EPS) * (0.5**j) for j in range(3)]
        # Only the free set moves with the step: w0 and the prefactor belong
        # to the on-shell set and are computed once.
        scale = _slavnov_prefactor(len(on), bp_l) * w0_scalar(on, cs_l, bp_l)
        frees = [tuple(u + e for u in on) for e in steps]
        table = [scale * r for r in _slavnov_ratios(frees, on, cs_l, bp_l)]
        # Polynomial extrapolation to 0 in the step parameter (Neville).
        for level in range(1, len(steps)):
            for i in range(len(steps) - level):
                table[i] = (
                    steps[i + level] * table[i] - steps[i] * table[i + 1]
                ) / (steps[i + level] - steps[i])
        return complex(table[0])


# ---------------------------------------------------------------------------
# One-root identities.


def _s_diag_formula(u1, v1, cs, bp):
    l1u, l2u = vacuum_eigenvalues(u1, cs, bp)
    l1v, l2v = vacuum_eigenvalues(v1, cs, bp)
    return (
        (kn.s(u1, v1) + kn.x(u1, v1)) * l1u * l1v
        + kn.y(u1, v1) * l2u * l1v
        + kn.r(u1, v1) * l1u * l2v
        + kn.q(u1, v1) * l1v * l2u
        + kn.w(u1, v1) * l2u * l2v
    )


def n1_identities(u1, v1, cs: ChainSpec, bp: BoundaryParams, onshell_root) -> dict:
    """Closed-form single-root scalar products and their cross-checks.

    Returns named residuals, among them the reduction of the mixed form to
    the one-root determinant formula with the ket root ``onshell_root`` on
    shell.
    """
    if cs.sites != 1:
        raise ParameterError("single-root identities need a one-site chain")
    if bp.diagonal_mode:
        raise ParameterError("single-root identities need generic couplings")
    u1, v1, wv = complex(u1), complex(v1), complex(onshell_root)
    rho = bp.rho
    pref = (rho - 2) / (2 * (rho - 1) ** 2)

    def s_mixed(a, b, w0a, w0b):
        """Mixed closed form, its plain-basis product and its two tails."""
        sd = _s_diag_formula(a, b, cs, bp)
        tail_a = eigenvalue_parts(a, (b,), cs, bp)[1] * w0b / (2 * (a + 1))
        tail_b = eigenvalue_parts(b, (a,), cs, bp)[1] * w0a / (2 * (b + 1))
        return pref * ((rho - 1) * sd + tail_a + tail_b), sd, tail_a + tail_b

    direct = scalar_product_direct((u1,), (v1,), cs, bp)
    w0u, w0v = w0_scalar((u1,), cs, bp), w0_scalar((v1,), cs, bp)
    good, sd, tails = s_mixed(u1, v1, w0u, w0v)
    s1 = ((rho - 2) / (2 * (rho - 1))) ** 2 * sd + (
        rho * (rho - 2) / (2 * (rho - 1)) ** 2
    ) * w0u * w0v

    l1u, l2u = vacuum_eigenvalues(u1, cs, bp)
    l1v, l2v = vacuum_eigenvalues(v1, cs, bp)
    pmu = kn.phi(-u1 - 1)
    pmv = kn.phi(-v1 - 1)
    s2 = (
        sd
        - (rho / (2 * (rho - 1) ** 2)) * tails
        + (rho / (2 * (rho - 1)))
        * (
            pmv
            * l1v
            * (
                ((u1 + v1 - 1) / (u1 + v1 + 1)) * pmu * l1u
                - ((u1 - v1 + 2) / (u1 - v1)) * l2u
            )
            - l2v
            * (
                ((u1 - v1 - 2) / (u1 - v1)) * pmu * l1u
                - ((u1 + v1 + 3) / (u1 + v1 + 1)) * l2u
            )
        )
    )

    values = {"direct": direct, "mixed": good, "plain_basis": s1, "compact": s2}
    scale = max(abs(v) for v in values.values())
    four_way = max(
        abs(a - b) for a in values.values() for b in values.values()
    ) / max(scale, 1e-300)
    out = {"four_way": four_way, "values": values}

    # Brute-force plain product <0| c(u1) b(v1) |0>: plain bra times plain ket.
    st = States(cs, bp)
    sd_matrix = complex(st.state(BRA, PLAIN, (u1,)) @ st.state(KET, PLAIN, (v1,)))
    out["plain_product"] = pair_residual(sd_matrix, sd)

    w0w = w0_scalar((wv,), cs, bp)
    dlam = lambda_total_derivative(u1, (wv,), 0, cs, bp)
    det_form = pref * w0w * dlam / _v_kernel(u1, wv)
    mixed_on = s_mixed(u1, wv, w0u, w0w)[0]
    direct_on = scalar_product_direct((u1,), (wv,), cs, bp)
    slav = slavnov_modified((wv,), (u1,), cs, bp)
    scale = max(abs(det_form), abs(mixed_on), abs(direct_on), abs(slav))
    scale = max(scale, 1e-300)
    out["prescription"] = abs(det_form - mixed_on) / scale
    out["determinant_direct"] = abs(det_form - direct_on) / scale
    out["determinant_general"] = abs(det_form - slav) / scale
    return out
