"""Reproducible verification runs: configuration, named checks, reports.

Every subcommand draws its random data from a dedicated PCG64 stream keyed by
(seed, stream id), so a check produces the same residuals whether it runs on
its own or as part of ``all``.  One check = one record; the report payload
(everything except wall times) is byte-stable for a fixed seed and version.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from ._version import REPORT_SCHEMA, __version__
from .bethe import (
    ROOT_MATCH_TOL,
    det_small,
    lambda_table,
    normalize_root_set,
    refine_roots,
    solve_bethe,
    solve_bethe_diagonal,
)
from .boundary import (
    check_dual_reflection,
    check_gl2_invariance,
    check_kplus_diagonalization,
    check_reflection,
    check_unitarity,
    check_ybe,
)
from .double_row import (
    check_exchange_relations,
    hamiltonian,
    transfer_forms,
    transfer_matrices,
)
from .errors import ConvergenceError, ParameterError
from .linalg import check_bytes, pair_residual, relative_residual
from .params import (
    BoundaryParams,
    ChainSpec,
    draw_boundary_params,
    draw_chain_spec,
    draw_spectral_point,
    draw_spectral_points,
)
from .precision import lift_roots, validate_precision, working_precision
from .scalar_products import (
    cauchy_det_factorized,
    cauchy_matrix,
    gaudin_diagonal_derivative,
    gaudin_korepin_norm,
    gaudin_matrix,
    n1_identities,
    norm_from_slavnov_limit,
    scalar_product_direct,
    slavnov_modified,
)
from .vectors import (
    States,
    check_c_action,
    check_cb_sweep,
    check_expansion,
    check_multiple_actions,
    check_offshell_action,
    diagonal_w0_product,
    offshell_strings,
    w0_scalar,
)

# Every record a suite folds: its name -> (paper anchor, default tolerance).
# ``RunConfig.tolerance`` lowers ``slavnov-onshell-*`` to 1e-6 from four
# sites on, and a config override replaces the default.
RECORDS = {
    "ybe": ("yang-baxter", 1e-12),
    "r-unitarity": ("r-unitarity", 1e-12),
    "reflection": ("boundary-reflection", 1e-12),
    "dual-reflection": ("dual-boundary-reflection", 1e-12),
    "gl2-invariance": ("gl2-invariance", 1e-12),
    "kplus-diagonalization": ("twist-diagonalization", 1e-12),
    "exchange-plain-bb": ("fundamental-exchange-bb", 1e-11),
    "exchange-plain-cc": ("fundamental-exchange-cc", 1e-11),
    "exchange-plain-ab": ("fundamental-exchange-ab", 1e-11),
    "exchange-plain-ca": ("fundamental-exchange-ca", 1e-11),
    "exchange-plain-db": ("fundamental-exchange-db", 1e-11),
    "exchange-plain-cd": ("fundamental-exchange-cd", 1e-11),
    "exchange-plain-cb": ("fundamental-exchange-cb", 1e-11),
    "exchange-modified-bb": ("fundamental-exchange-bb", 1e-11),
    "exchange-modified-cc": ("fundamental-exchange-cc", 1e-11),
    "exchange-modified-ab": ("fundamental-exchange-ab", 1e-11),
    "exchange-modified-ca": ("fundamental-exchange-ca", 1e-11),
    "exchange-modified-db": ("fundamental-exchange-db", 1e-11),
    "exchange-modified-cd": ("fundamental-exchange-cd", 1e-11),
    "exchange-modified-cb": ("fundamental-exchange-cb", 1e-11),
    "transfer-trace-vs-modified": ("transfer-trace-decomposition", 1e-11),
    "transfer-commutation": ("commuting-transfer-family", 1e-10),
    "hamiltonian-commutation": ("hamiltonian-from-transfer", 1e-10),
    "spectrum-completeness": ("spectrum-completeness", 0.5),
    "spectrum-eigenvalue-agreement": (
        "eigenvalue-expression-vs-diagonalization", 1e-8
    ),
    "bethe-onshell-residual": ("bethe-system-residual", 1e-10),
    "root-sets-distinct": ("root-set-dedup", 0.5),
    "offshell-action-right": ("offshell-transfer-action", 1e-9),
    "offshell-action-left": ("offshell-transfer-action", 1e-9),
    "central-relation-right": ("inhomogeneous-central-relation", 1e-9),
    "central-relation-left": ("inhomogeneous-central-relation", 1e-9),
    "multiple-actions": ("operator-commutation-sweep", 1e-10),
    "cb-sweep": ("cb-kernel-sweep", 1e-9),
    "c-action": ("annihilation-action-expansion", 1e-9),
    "expansion-right": ("modified-state-expansion", 1e-10),
    "expansion-left": ("modified-state-expansion", 1e-10),
    "w0-routes": ("w0-coefficient-routes", 1e-10),
    "slavnov-onshell-bra": ("modified-slavnov-determinant", 1e-8),
    "slavnov-onshell-ket": ("modified-slavnov-determinant", 1e-8),
    "cauchy-factorization": ("cauchy-determinant-factorization", 1e-10),
    "slavnov-diagonal": ("diagonal-slavnov-determinant", 1e-8),
    "w0-diagonal-product": ("w0-diagonal-product", 1e-10),
    "norm-vs-direct": ("gaudin-korepin-norm", 1e-8),
    "gaudin-diagonal-routes": ("gaudin-diagonal-routes", 1e-10),
    "norm-limit-consistency": ("slavnov-coincident-limit", 1e-6),
    "n1-four-way": ("single-root-identities", 1e-11),
    "n1-plain-product": ("single-root-identities", 1e-11),
    "n1-prescription": ("determinant-prescription", 1e-11),
    "n1-determinant-direct": ("determinant-prescription", 1e-10),
    "n1-determinant-general": ("determinant-prescription", 1e-11),
    "n1-norm-limit": ("slavnov-coincident-limit", 1e-6),
}

_STREAMS = {
    "algebra": 0,
    "exchange": 1,
    "spectrum": 2,
    "offshell": 3,
    "slavnov": 4,
    "norm": 5,
    "n1": 6,
}


def _stream(config: "RunConfig", name: str) -> np.random.Generator:
    """Per-suite PCG64 generator; (seed, stream id) is the full entropy."""
    return np.random.default_rng([config.seed, _STREAMS[name]])


def _covers(key: str, name: str) -> bool:
    """Whether override ``key`` is the record ``name`` or prefixes it at a
    ``-`` boundary."""
    return name == key or name.startswith(key + "-")


@dataclass(frozen=True)
class RunConfig:
    """Everything a verification run depends on.

    Boundary couplings are either fully drawn from the seed (the default) or
    pinned by giving ``p`` and ``q`` together, with ``xi_plus``/``xi_minus``
    optional (both absent means diagonal couplings).  Pinned couplings are
    built into one ``BoundaryParams`` here, so a degenerate set is refused
    with the config.  ``thetas`` is the string ``"random"`` or an explicit
    generic tuple of length ``sites``.  Pinned couplings and thetas must be
    finite, and ``sites``, ``seed`` and ``draws`` integers.
    A ``tolerances`` key must name a record of ``RECORDS`` or prefix one at
    a ``-`` boundary, and its value be a finite positive real number.
    """

    sites: int = 2
    seed: int = 0
    draws: int = 20
    precision: str = "double"
    p: complex | None = None
    q: complex | None = None
    xi_plus: complex | None = None
    xi_minus: complex | None = None
    thetas: tuple | str = "random"
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        # Counts are Python or numpy integers; a bool or a float, even an
        # integral one, is refused rather than read as a count.
        for name in ("sites", "seed", "draws"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ParameterError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.sites < 1:
            raise ParameterError("sites must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ParameterError("seed must fit in 64 bits")
        if self.draws < 1:
            raise ParameterError("draws must be at least 1")
        validate_precision(self.precision)
        if (self.p is None) != (self.q is None):
            raise ParameterError("p and q must be given together")
        if self.p is None and (
            self.xi_plus is not None or self.xi_minus is not None
        ):
            raise ParameterError("xi couplings need p and q as well")
        for name in ("p", "q", "xi_plus", "xi_minus"):
            value = getattr(self, name)
            if value is not None and not cmath.isfinite(value):
                raise ParameterError(f"{name} must be finite")
        pinned = None
        if self.p is not None:
            pinned = BoundaryParams(
                self.p, self.q, self.xi_plus or 0j, self.xi_minus or 0j
            )
        object.__setattr__(self, "_pinned", pinned)
        if self.thetas != "random":
            thetas = tuple(complex(t) for t in self.thetas)
            if not all(map(cmath.isfinite, thetas)):
                raise ParameterError("thetas must be finite")
            if len(thetas) != self.sites:
                raise ParameterError("thetas must match the site count")
            if not ChainSpec(self.sites, thetas).is_generic():
                raise ParameterError("explicit thetas must be generic")
            object.__setattr__(self, "thetas", thetas)
        for name, tol in self.tolerances.items():
            if not any(_covers(name, record) for record in RECORDS):
                raise ParameterError(f"unknown tolerance override {name!r}")
            real = isinstance(tol, numbers.Real) and not isinstance(tol, bool)
            if not (real and math.isfinite(tol) and tol > 0):
                raise ParameterError(f"tolerance {name!r} must be finite and positive")

    def boundary(self, rng) -> BoundaryParams:
        if self._pinned is not None:
            return self._pinned
        return draw_boundary_params(rng)

    def chain(self, rng, sites: int | None = None) -> ChainSpec:
        n = self.sites if sites is None else sites
        # Every suite holds 2^N-square complex matrices, so one must fit
        # before the thetas are drawn (a rejection loop quadratic in N).
        # Past 64 sites one 2^64-square block is priced, which no byte limit
        # admits, so 4**N is never formed.
        k = min(n, 64)
        check_bytes(16 << 2 * k, f"{n}-site chain: a 2^{k}-square matrix")
        if self.thetas == "random" or n != self.sites:
            return draw_chain_spec(rng, n)
        return ChainSpec(n, self.thetas)

    def tolerance(self, name: str) -> float:
        """The longest override that covers the record ``name``, else its
        default in ``RECORDS``."""
        keys = [key for key in self.tolerances if _covers(key, name)]
        if keys:
            return float(self.tolerances[max(keys, key=len)])
        if name.startswith("slavnov-onshell-") and self.sites >= 4:
            return 1e-6
        return RECORDS[name][1]

    def echo(self) -> dict:
        boundary: dict | str = "random"
        if self.p is not None:
            boundary = {
                "p": _jsonable(self.p),
                "q": _jsonable(self.q),
                "xi_plus": _jsonable(self.xi_plus or 0j),
                "xi_minus": _jsonable(self.xi_minus or 0j),
            }
        return {
            "sites": self.sites,
            "seed": int(self.seed),
            "draws": self.draws,
            "precision": self.precision,
            "boundary": boundary,
            "thetas": _jsonable(self.thetas),
            "tolerances": {
                k: float(v) for k, v in sorted(self.tolerances.items())
            },
        }


def _jsonable(value):
    if value is None or isinstance(value, (str, bool)):
        return value
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__}")


@dataclass(frozen=True)
class CheckRecord:
    """One named check: its worst residual over the draws and its cost.

    ``wall_time`` is the seconds the suite spent since its previous record
    was folded, summed over the draws.  Shared set-up is charged to the
    first record folded after it (the spectrum solve to
    ``spectrum-completeness``, each draw's ``solve_bethe`` to
    ``slavnov-onshell-bra`` or ``norm-vs-direct``), so no second is counted
    twice and a suite's records sum to at most its run time.
    """

    name: str
    anchor: str
    residual: float
    tolerance: float
    passed: bool
    wall_time: float

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {
            "name": self.name,
            "anchor": self.anchor,
            "residual": float(self.residual),
            "tolerance": float(self.tolerance),
            "pass": bool(self.passed),
        }
        if include_timing:
            out["wall_time"] = float(self.wall_time)
        return out


@dataclass
class VerificationReport:
    command: str
    config: dict
    checks: list[CheckRecord] = field(default_factory=list)
    details: dict = field(default_factory=dict)
    version: str = __version__

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self, include_timing: bool = True) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "version": self.version,
            "command": self.command,
            "config": self.config,
            "checks": [c.to_dict(include_timing) for c in self.checks],
            "all_pass": self.all_passed,
            "details": self.details,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def canonical_payload(self) -> bytes:
        """Serialization used for determinism comparisons: no wall times."""
        return json.dumps(
            self.to_dict(include_timing=False),
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")


def _worst(residuals) -> float:
    """The largest residual, ``0.0`` for none, and NaN once any is NaN: the
    builtin ``max`` drops a NaN that does not come first."""
    worst = 0.0
    for residual in map(float, residuals):
        if residual > worst or math.isnan(residual):
            worst = residual
    return worst


class _Recorder:
    """One suite's records, made only by :meth:`fold` and timed only here."""

    def __init__(self, config: RunConfig, command: str):
        self.config = config
        self._report = VerificationReport(command=command, config=config.echo())
        # name -> [worst residual, tolerance, wall time]
        self._folds: dict[str, list] = {}
        self._lap = time.perf_counter()

    def fold(self, name, residual):
        """Keep the worst ``residual`` seen under the record ``name`` and
        charge the record the suite time since the previous fold."""
        now = time.perf_counter()
        lap, self._lap = now - self._lap, now
        residual = float(residual)
        entry = self._folds.get(name)
        if entry is None:
            self._folds[name] = [residual, self.config.tolerance(name), lap]
        else:
            entry[0] = _worst((entry[0], residual))
            entry[2] += lap

    def detail(self, key, value):
        self._report.details[key] = _jsonable(value)

    @property
    def report(self) -> VerificationReport:
        """The report, its records in first-fold order."""
        self._report.checks = [
            CheckRecord(name, RECORDS[name][0], worst, tol, worst <= tol, wall)
            for name, (worst, tol, wall) in self._folds.items()
        ]
        return self._report


# ---------------------------------------------------------------------------
# check-algebra: R- and K-matrix identities.


def run_check_algebra(config: RunConfig) -> VerificationReport:
    rec = _Recorder(config, "check-algebra")
    rng = _stream(config, "algebra")
    bp = config.boundary(rng)
    us = draw_spectral_points(rng, 10, bp=bp)
    vs = draw_spectral_points(rng, 10, avoid=us, bp=bp)
    ms = []
    while len(ms) < 10:
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        if abs(np.linalg.det(m)) > 0.2:
            ms.append(m)

    rec.fold("ybe", check_ybe(us, vs).max())
    rec.fold("r-unitarity", check_unitarity(us).max())
    rec.fold("reflection", check_reflection(us, vs, bp).max())
    rec.fold("dual-reflection", check_dual_reflection(us, vs, bp).max())
    rec.fold("gl2-invariance", check_gl2_invariance(us, ms).max())
    if not bp.diagonal_mode:
        rec.fold("kplus-diagonalization", check_kplus_diagonalization(us, bp).max())
    return rec.report


# ---------------------------------------------------------------------------
# exchange: quadratic operator relations plus transfer-matrix consistency.


def run_exchange(config: RunConfig) -> VerificationReport:
    rec = _Recorder(config, "exchange")
    rng = _stream(config, "exchange")
    bp = config.boundary(rng)
    cs = config.chain(rng)

    for _ in range(config.draws):
        u = draw_spectral_point(rng, cs=cs, bp=bp)
        v = draw_spectral_point(rng, (u,), cs=cs, bp=bp)
        for key, res in check_exchange_relations(u, v, cs, bp).items():
            rec.fold("exchange-" + key.replace(":", "-"), res)

    points = draw_spectral_points(rng, 5, cs=cs, bp=bp)
    partners = draw_spectral_points(rng, 5, avoid=points, cs=cs, bp=bp)
    # One build serves the commutators and the two forms' gate at the
    # first five points.
    t, forms = transfer_forms(points + partners, cs, bp)
    if forms is not None:
        rec.fold("transfer-trace-vs-modified", forms[: len(points)].max())
    rec.fold(
        "transfer-commutation",
        _worst(
            _commutator_residual(t[k], t[len(points) + k])
            for k in range(len(points))
        ),
    )

    cs0 = ChainSpec.homogeneous(cs.sites)
    ham = hamiltonian(cs0, bp)
    rec.fold(
        "hamiltonian-commutation",
        _worst(
            _commutator_residual(ham, t0)
            for t0 in transfer_matrices(points, cs0, bp)
        ),
    )
    return rec.report


def _commutator_residual(a, b) -> float:
    lhs = a @ b
    rhs = b @ a
    return relative_residual(lhs - rhs, lhs, rhs)


# ---------------------------------------------------------------------------
# spectrum: brute-force diagonalization vs Bethe root sets.


def run_spectrum(config: RunConfig) -> VerificationReport:
    rec = _Recorder(config, "spectrum")
    rng = _stream(config, "spectrum")
    bp = config.boundary(rng)
    cs = config.chain(rng)

    solve = solve_bethe_diagonal if bp.diagonal_mode else solve_bethe
    solutions = solve(cs, bp, rng=rng)

    rec.fold("spectrum-completeness", 2**cs.sites - len(solutions))
    rec.fold(
        "spectrum-eigenvalue-agreement",
        _worst(s.eigenvalue_residual for s in solutions),
    )
    rec.fold(
        "bethe-onshell-residual",
        _worst(r for s in solutions for r in s.residuals_scaled),
    )
    # Matching pairs of nonempty sets, each set normalised once.
    by_size = {}
    for sol in solutions:
        if sol.roots:
            by_size.setdefault(len(sol.roots), []).append(
                normalize_root_set(sol.roots)
            )
    duplicates = 0
    for sets in map(np.array, by_size.values()):
        for i in range(len(sets) - 1):
            close = np.abs(sets[i + 1:] - sets[i]) <= ROOT_MATCH_TOL
            duplicates += int(close.all(axis=1).sum())
    rec.fold("root-sets-distinct", duplicates)

    probe = draw_spectral_point(rng, cs=cs, bp=bp)
    # Every branch's eigenvalue at the probe, one evaluation per root count.
    at_probe = {}
    for size in {len(sol.roots) for sol in solutions}:
        picked = [k for k, sol in enumerate(solutions) if len(sol.roots) == size]
        stack = np.array([solutions[k].roots for k in picked], dtype=complex)
        values = lambda_table([probe], stack.reshape(len(picked), size), cs, bp)[0]
        at_probe.update(zip(picked, values.tolist()))
    table = [
        {
            "branch": idx,
            "magnons": len(sol.roots),
            "roots": list(sol.roots),
            "bethe_residual": max(sol.residuals_scaled, default=0.0),
            "eigenvalue_residual": sol.eigenvalue_residual,
            "eigenvalue_at_probe": at_probe[idx],
            "on_shell": sol.on_shell,
        }
        for idx, sol in enumerate(solutions)
    ]
    rec.detail("probe_point", probe)
    rec.detail("branches", table)
    rec.detail("csv", _roots_csv(solutions))
    return rec.report


def _roots_csv(solutions) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "branch",
            "root_index",
            "root_re",
            "root_im",
            "bethe_residual",
            "eigenvalue_residual",
        ]
    )
    for idx, sol in enumerate(solutions):
        eig = repr(float(sol.eigenvalue_residual))
        if not sol.roots:
            writer.writerow([idx, "", "", "", "", eig])
        for j, root in enumerate(sol.roots):
            writer.writerow(
                [
                    idx,
                    j,
                    repr(float(root.real)),
                    repr(float(root.imag)),
                    repr(float(sol.residuals_scaled[j])),
                    eig,
                ]
            )
    return buf.getvalue()


# ---------------------------------------------------------------------------
# offshell: transfer action, central relation, C-action, expansion.


def run_offshell(config: RunConfig) -> VerificationReport:
    rec = _Recorder(config, "offshell")
    rng = _stream(config, "offshell")
    bp = config.boundary(rng)
    cs = config.chain(rng)

    for _ in range(config.draws):
        roots = tuple(draw_spectral_points(rng, cs.sites, cs=cs, bp=bp))
        u = draw_spectral_point(rng, roots, cs=cs, bp=bp)
        # The dense sweeps first, so that the byte limit refuses their
        # entries before any state is built and frees them before the
        # draw's strings are built, all in one build.
        sweeps = check_multiple_actions(u, roots, cs, bp)
        states = States(cs, bp)
        states.build(offshell_strings(u, roots, bp))
        off = check_offshell_action(u, roots, states, cs, bp)
        for side in ("right", "left"):
            rec.fold(f"offshell-action-{side}", off[side])
        for side in ("right", "left"):
            rec.fold(f"central-relation-{side}", off[f"central_{side}"])
        partial = (off["partial_right"], off["partial_left"])
        rec.fold("multiple-actions", _worst([*sweeps.values(), *partial]))
        rec.fold("cb-sweep", check_cb_sweep(u, roots, states, cs, bp))
        rec.fold("c-action", check_c_action(u, roots, states, cs, bp))
        expansion = check_expansion(roots, states, cs, bp)
        for side in ("right", "left"):
            rec.fold(f"expansion-{side}", expansion[side])
        rec.fold("w0-routes", expansion["w0_routes"])
    return rec.report


# ---------------------------------------------------------------------------
# slavnov: determinant formula vs direct contraction, plus diagonal limit.


def run_slavnov(config: RunConfig) -> VerificationReport:
    rec = _Recorder(config, "slavnov")
    rng = _stream(config, "slavnov")
    sites = config.sites
    # Worst log10 of the 2-norm condition number of the double Cauchy matrix.
    log10_cond = -math.inf

    for d in range(config.draws):
        bp = config.boundary(rng)
        cs = config.chain(rng)
        on = _require_roots(solve_bethe(cs, bp, rng=rng, branch=d))[0].roots
        # ``avoid`` keeps the free roots 1e-3 from the on-shell roots and
        # their reflections, the distance below which the formula warns.
        free = tuple(draw_spectral_points(rng, sites, avoid=on, cs=cs, bp=bp))
        # One formula value against both placements of the on-shell set.
        formula = slavnov_modified(on, free, cs, bp, precision=config.precision)
        for side, bra, ket in (("bra", on, free), ("ket", free, on)):
            rec.fold(
                f"slavnov-onshell-{side}",
                pair_residual(formula, scalar_product_direct(bra, ket, cs, bp)),
            )
        with working_precision(config.precision):
            free_w = lift_roots(free, config.precision)
            on_w = lift_roots(on, config.precision)
            cauchy = pair_residual(
                det_small(cauchy_matrix(free_w, on_w)),
                cauchy_det_factorized(free_w, on_w),
            )
        rec.fold("cauchy-factorization", cauchy)
        cond = np.linalg.cond(np.array(cauchy_matrix(free, on)))
        log10_cond = max(log10_cond, math.log10(cond))
    rec.detail("log10_cond_cauchy", log10_cond)

    if sites <= 3:
        # The diagonal limit of the last draw's chain and couplings.
        # One set per magnon sector, the empty one first.
        bp_diag = BoundaryParams(bp.p, bp.q)
        sols = solve_bethe_diagonal(cs, bp_diag, rng=rng, branch=0)
        if len(sols) != sites + 1:
            raise ConvergenceError("the diagonal solver missed a magnon sector")
        for sol in sols[1:]:
            on = sol.roots
            free = tuple(
                draw_spectral_points(rng, len(on), avoid=on, cs=cs, bp=bp_diag)
            )
            rec.fold(
                "slavnov-diagonal",
                pair_residual(
                    slavnov_modified(on, free, cs, bp_diag),
                    scalar_product_direct(free, on, cs, bp_diag),
                ),
            )
        rec.fold(
            "w0-diagonal-product",
            pair_residual(
                diagonal_w0_product(on, cs, bp_diag),
                w0_scalar(on, cs, bp_diag),
            ),
        )
    return rec.report


def _require_roots(solutions):
    """The solver's certified sets; none at all aborts the suite (exit 3)."""
    if not solutions:
        raise ConvergenceError("the Bethe solver certified no root set")
    return solutions


# ---------------------------------------------------------------------------
# norm: Gaudin-Korepin determinant vs the direct self-product.


def run_norm(config: RunConfig) -> VerificationReport:
    rec = _Recorder(config, "norm")
    rng = _stream(config, "norm")

    for d in range(config.draws):
        bp = config.boundary(rng)
        cs = config.chain(rng)
        on = _require_roots(solve_bethe(cs, bp, rng=rng, branch=d))[0].roots
        formula = gaudin_korepin_norm(on, cs, bp, precision=config.precision)
        rec.fold(
            "norm-vs-direct",
            pair_residual(formula, scalar_product_direct(on, on, cs, bp)),
        )
        explicit = gaudin_matrix(on, cs, bp)
        derivative = gaudin_diagonal_derivative(on, cs, bp)
        rec.fold(
            "gaudin-diagonal-routes",
            _worst(
                pair_residual(explicit[i][i], value)
                for i, value in enumerate(derivative)
            ),
        )
        if d == 0:
            rec.fold(
                "norm-limit-consistency",
                pair_residual(norm_from_slavnov_limit(on, cs, bp), formula),
            )
    return rec.report


# ---------------------------------------------------------------------------
# n1: closed-form one-root identities and the determinant prescription.


def run_n1(config: RunConfig) -> VerificationReport:
    rec = _Recorder(config, "n1")
    rng = _stream(config, "n1")
    bp = config.boundary(rng)
    cs = config.chain(rng, sites=1)

    solutions = _require_roots(solve_bethe(cs, bp, rng=rng))
    # The prescription residual scales with the root's Bethe residual, and
    # its tolerance sits at 1e-11, so polish beyond the solver default: the
    # sets the draws read and the first one, which the norm limit reads.
    read = {d % len(solutions) for d in range(config.draws)} | {0}
    polished = {
        k: refine_roots(solutions[k].roots, cs, bp, tol=1e-14)
        for k in sorted(read)
    }
    for d in range(config.draws):
        u1 = draw_spectral_point(rng, cs=cs, bp=bp)
        v1 = draw_spectral_point(rng, (u1,), cs=cs, bp=bp)
        root = polished[d % len(solutions)][0]
        out = n1_identities(u1, v1, cs, bp, onshell_root=root)
        for key in (
            "four_way",
            "plain_product",
            "prescription",
            "determinant_direct",
            "determinant_general",
        ):
            rec.fold("n1-" + key.replace("_", "-"), out[key])

    on = polished[0]
    rec.fold(
        "n1-norm-limit",
        pair_residual(
            norm_from_slavnov_limit(on, cs, bp),
            gaudin_korepin_norm(on, cs, bp),
        ),
    )
    return rec.report


# ---------------------------------------------------------------------------
# all: every other suite in registry order, one merged report.


def run_all(config: RunConfig) -> VerificationReport:
    merged = VerificationReport(command="all", config=config.echo())
    for name, suite in COMMANDS.items():
        if name == "all":
            continue
        part = suite(config)
        merged.checks.extend(part.checks)
        if part.details:
            merged.details[name] = part.details
    return merged


COMMANDS = {
    "check-algebra": run_check_algebra,
    "exchange": run_exchange,
    "spectrum": run_spectrum,
    "offshell": run_offshell,
    "slavnov": run_slavnov,
    "norm": run_norm,
    "n1": run_n1,
    "all": run_all,
}


# Commands whose suites need off-diagonal boundary couplings.
OFF_DIAGONAL_COMMANDS = frozenset({"offshell", "slavnov", "norm", "n1", "all"})
# Commands whose suites build the Hamiltonian, which needs p, q nonzero.
HAMILTONIAN_COMMANDS = frozenset({"exchange", "all"})


def check_command(command: str, config: RunConfig) -> None:
    """Refuse a command that ``config`` cannot serve, before any suite runs."""
    if command not in COMMANDS:
        raise ParameterError(f"unknown subcommand {command!r}")
    pinned = config._pinned
    if pinned is None:
        return
    if pinned.diagonal_mode and command in OFF_DIAGONAL_COMMANDS:
        need = "off-diagonal boundary couplings"
    elif 0 in (pinned.p, pinned.q) and command in HAMILTONIAN_COMMANDS:
        need = "nonzero boundary couplings p, q"
    else:
        return
    raise ParameterError(f"the {command} command needs {need}")


def run(command: str, config: RunConfig) -> VerificationReport:
    check_command(command, config)
    return COMMANDS[command](config)
