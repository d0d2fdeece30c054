"""Workloads of the benchmark: how each op's input is drawn, run and checked.

Every op gets a fresh problem derived from ``(workload seed, op index)``, so
a run is reproducible from its seed and re-running op ``i`` repeats exactly
the same work.  The checkers never compare against stored output: they
rebuild what they need (the ``2^N`` transfer matrix, the residuals of the
Bethe system) or hold the program's records to its pinned tolerances.

An op's verdict is ``"ok"``, ``"failed"`` (it raised, or the program itself
reports that it did not finish: missing branches, a record with
``pass: false``) or ``"wrong"`` (the program claims success but a check here
disagrees).  Both non-``ok`` verdicts count as failed ops; ``wrong`` also
makes the run incorrect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import segment_bethe as sb
from segment_bethe.bethe import bethe_residuals_scaled, lambda_total
from segment_bethe.boundary import k_minus, k_plus, r_matrix
from segment_bethe.params import (
    draw_boundary_params,
    draw_chain_spec,
    draw_spectral_points,
)

# Entropy tags: timed ops and warm-up ops never share a problem.
TIMED, WARMUP = 0, 1
WARMUP_SEED = 0

# Chain length of every workload.
SITES = 2

BETHE_RESIDUAL_TOL = 1e-10
EIGENVALUE_TOL = 1e-8
CHECK_POINTS = 3

# Pinned tolerances of the records each report must carry (the program's
# DEFAULT_TOLERANCES at N <= 3).  A record may tighten its tolerance, never
# loosen it.
ALGEBRA = {
    "ybe": 1e-12,
    "r-unitarity": 1e-12,
    "reflection": 1e-12,
    "dual-reflection": 1e-12,
    "gl2-invariance": 1e-12,
    "kplus-diagonalization": 1e-12,
}
EXCHANGE = {
    f"exchange-{family}-{rel}": 1e-11
    for family in ("plain", "modified")
    for rel in ("bb", "cc", "ab", "ca", "db", "cd", "cb")
} | {
    "transfer-trace-vs-modified": 1e-11,
    "transfer-commutation": 1e-10,
    "hamiltonian-commutation": 1e-10,
}
SPECTRUM = {
    "spectrum-completeness": 0.5,
    "spectrum-eigenvalue-agreement": 1e-8,
    "bethe-onshell-residual": 1e-10,
    "root-sets-distinct": 0.5,
}
OFFSHELL = {
    "offshell-action-right": 1e-9,
    "offshell-action-left": 1e-9,
    "central-relation-right": 1e-9,
    "central-relation-left": 1e-9,
    "multiple-actions": 1e-10,
    "cb-sweep": 1e-9,
    "c-action": 1e-9,
    "expansion-right": 1e-10,
    "expansion-left": 1e-10,
    "w0-routes": 1e-10,
}
SLAVNOV = {
    "slavnov-onshell-bra": 1e-8,
    "slavnov-onshell-ket": 1e-8,
    "cauchy-factorization": 1e-10,
    "slavnov-diagonal": 1e-8,
    "w0-diagonal-product": 1e-10,
}
NORM = {
    "norm-vs-direct": 1e-8,
    "gaudin-diagonal-routes": 1e-10,
    "norm-limit-consistency": 1e-6,
}
N1 = {
    "n1-four-way": 1e-11,
    "n1-plain-product": 1e-11,
    "n1-prescription": 1e-11,
    "n1-determinant-direct": 1e-10,
    "n1-determinant-general": 1e-11,
    "n1-norm-limit": 1e-6,
}
ALL_RECORDS = ALGEBRA | EXCHANGE | SPECTRUM | OFFSHELL | SLAVNOV | NORM | N1


def _rng(seed: int, index: int, tag: int, *extra: int) -> np.random.Generator:
    return np.random.default_rng([seed, index, tag, *extra])


# ---------------------------------------------------------------------------
# Brute-force transfer matrix, built here from the R- and K-matrices alone.


def _embed_aux(op4: np.ndarray, site: int, sites: int) -> np.ndarray:
    """``op4`` acting on (auxiliary, chain site ``site``) of ``1 + sites`` factors."""
    dim = 2 ** (sites + 1)
    eye = np.eye(dim, dtype=complex).reshape((2,) * (sites + 1) + (dim,))
    out = np.tensordot(op4.reshape(2, 2, 2, 2), eye, axes=([2, 3], [0, site]))
    return np.moveaxis(out, 1, site).reshape(dim, dim)


def transfer_matrix_bruteforce(u, cs, bp) -> np.ndarray:
    """``t(u) = tr_0 K+(u) T(u) K-(u) T^(u)`` on the ``2^N`` chain space."""
    n = cs.sites
    half = 2**n
    bulk = np.eye(2 * half, dtype=complex)
    for i, theta in enumerate(cs.thetas):
        bulk = bulk @ _embed_aux(r_matrix(u - theta), 1 + i, n)
    hat = np.eye(2 * half, dtype=complex)
    for i in reversed(range(n)):
        hat = hat @ _embed_aux(r_matrix(u + cs.thetas[i]), 1 + i, n)
    eye = np.eye(half, dtype=complex)
    full = np.kron(k_plus(u, bp), eye) @ bulk @ np.kron(k_minus(u, bp), eye) @ hat
    return full[:half, :half] + full[half:, half:]


def _match_multisets(got, want) -> float:
    """Largest distance after greedily pairing closest elements."""
    got, want = list(got), list(want)
    if len(got) != len(want):
        return math.inf
    pairs = sorted(
        (abs(g - w), i, j) for i, g in enumerate(got) for j, w in enumerate(want)
    )
    used_g, used_w, worst = set(), set(), 0.0
    for dist, i, j in pairs:
        if i in used_g or j in used_w:
            continue
        used_g.add(i)
        used_w.add(j)
        worst = max(worst, dist)
    return worst


def _same_root_set(a, b) -> bool:
    """Equal up to order and the reflection u -> -u-1, i.e. in (2u+1)^2."""
    return _match_multisets(
        [(2 * u + 1) ** 2 for u in a], [(2 * u + 1) ** 2 for u in b]
    ) < 1e-6


# ---------------------------------------------------------------------------
# spectrum: one solve_bethe per op.


@dataclass(frozen=True)
class SpectrumProblem:
    cs: Any
    bp: Any
    seed: int
    index: int
    tag: int


def make_spectrum(seed: int, index: int, tag: int = TIMED) -> SpectrumProblem:
    rng = _rng(seed, index, tag)
    bp = draw_boundary_params(rng)
    cs = draw_chain_spec(rng, SITES)
    return SpectrumProblem(cs, bp, seed, index, tag)


def op_spectrum(problem: SpectrumProblem):
    rng = _rng(problem.seed, problem.index, problem.tag, 1)
    return sb.solve_bethe(problem.cs, problem.bp, rng=rng)


def check_spectrum(problem: SpectrumProblem, solutions) -> tuple[str, str]:
    cs, bp = problem.cs, problem.bp
    want = 2**cs.sites
    if len(solutions) != want:
        return "failed", f"{len(solutions)} of {want} branches"
    root_sets = [s.roots for s in solutions]
    for roots in root_sets:
        raw, scales = bethe_residuals_scaled(roots, cs, bp)
        worst = max((abs(r) / s for r, s in zip(raw, scales)), default=0.0)
        if not worst <= BETHE_RESIDUAL_TOL:
            return "wrong", f"scaled Bethe residual {worst:.3e}"
    for i in range(len(root_sets)):
        for j in range(i):
            if _same_root_set(root_sets[i], root_sets[j]):
                return "wrong", f"branches {j} and {i} share a root set"
    points = draw_spectral_points(
        _rng(problem.seed, problem.index, problem.tag, 2), CHECK_POINTS, cs=cs, bp=bp
    )
    for u in points:
        eigs = np.linalg.eigvals(transfer_matrix_bruteforce(u, cs, bp))
        lams = [complex(lambda_total(u, roots, cs, bp)) for roots in root_sets]
        scale = max(1.0, float(np.abs(eigs).max()))
        worst = _match_multisets(lams, eigs) / scale
        if not worst <= EIGENVALUE_TOL:
            return "wrong", f"branch eigenvalues off the spectrum by {worst:.3e}"
    return "ok", ""


# ---------------------------------------------------------------------------
# certify: one segment_bethe.run("all") per op.


def make_certify(seed: int, index: int, tag: int = TIMED):
    return sb.RunConfig(
        sites=SITES,
        seed=int(_rng(seed, index, tag).integers(2**63)),
        draws=1,
        precision=("double", "extended")[index % 2],
    )


def op_certify(config):
    return sb.run("all", config)


def check_report(report, expected: dict) -> tuple[str, str]:
    """Every expected record present, passing, at its pinned tolerance."""
    records = {c.name: c for c in report.checks}
    failed = sorted(name for name, c in records.items() if not c.passed)
    if failed:
        return "failed", f"records failed: {', '.join(failed)}"
    missing = sorted(set(expected) - set(records))
    if missing:
        return "wrong", f"records missing: {', '.join(missing)}"
    for name, c in records.items():
        pinned = expected.get(name, c.tolerance)
        if not c.tolerance <= pinned:
            return "wrong", f"{name}: tolerance {c.tolerance:g} above {pinned:g}"
        if not c.residual <= c.tolerance:
            return "wrong", f"{name}: residual {c.residual:.3e} marked passing"
    return "ok", ""


def check_certify(config, report) -> tuple[str, str]:
    return check_report(report, ALL_RECORDS)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """``round_ops`` ops form one round; a run attempts whole rounds only.
    Peak RSS is read once ``rss_ops`` ops are done, so that it measures a
    fixed amount of work however fast the ops are."""

    name: str
    make: Callable
    op: Callable
    check: Callable
    round_ops: int
    rss_ops: int


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "spectrum-n2",
            make_spectrum,
            op_spectrum,
            check_spectrum,
            round_ops=1,
            rss_ops=100,
        ),
        Workload(
            "certify-n2",
            make_certify,
            op_certify,
            check_certify,
            round_ops=2,
            rss_ops=30,
        ),
    )
}
