"""Run configuration, report records, and the check registry."""

import json
import math
import time
import warnings

import numpy as np
import pytest

from test_double_row import _Allocation, _allocation

import segment_bethe.double_row as dr
from segment_bethe import harness, linalg, vectors
from segment_bethe.bethe import BetheRoots, root_sets_match, solve_bethe
from segment_bethe.errors import DimensionError, ParameterError
from segment_bethe.params import draw_spectral_points
from segment_bethe.scalar_products import slavnov_modified
from segment_bethe.harness import (
    COMMANDS,
    RECORDS,
    CheckRecord,
    RunConfig,
    VerificationReport,
    _jsonable,
    run,
    run_all,
    run_check_algebra,
    run_spectrum,
)


def test_config_defaults():
    cfg = RunConfig()
    assert cfg.sites == 2
    assert cfg.seed == 0
    assert cfg.draws == 20
    assert cfg.precision == "double"
    assert cfg.thetas == "random"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"sites": 0},
        {"draws": 0},
        {"seed": -1},
        {"seed": 2**64},
        {"precision": "quad"},
        {"p": 1.0 + 0j},
        {"q": 1.0 + 0j},
        {"xi_plus": 0.5 + 0j},
        {"thetas": (0.1, 0.2, 0.3)},
        {"thetas": (0.5, 0.1)},
        {"thetas": (0.1, 0.1)},
        {"tolerances": {"made-up-check": 1e-6}},
        # An override key must name a record or prefix one at a "-".
        {"tolerances": {"exchange-bogus": 1e-6}},
        {"tolerances": {"slavnov-n4": 1e-6}},
        {"tolerances": {"ybe-typo": 1e-6}},
        {"tolerances": {"exchange-mod": 1e-6}},
        {"tolerances": {"n1-": 1e-6}},
        {"tolerances": {"ybe": 0.0}},
        {"tolerances": {"ybe": -1e-3}},
        {"seed": 1.5},
        {"sites": 2.0},
        {"draws": 2.5},
        {"seed": True},
        {"draws": np.True_},
        {"sites": "2"},
        # A tolerance is a finite positive real number, not a bool or a string.
        {"tolerances": {"ybe": True}},
        {"tolerances": {"ybe": "1e-3"}},
        {"tolerances": {"ybe": float("inf")}},
        {"tolerances": {"ybe": "abc"}},
        {"tolerances": {"ybe": None}},
    ],
)
def test_config_rejects(kwargs):
    with pytest.raises(ParameterError):
        RunConfig(**kwargs)


def test_config_reads_numpy_integer_counts_as_int():
    cfg = RunConfig(sites=np.int64(2), seed=np.uint64(7), draws=np.int32(3))
    assert (cfg.sites, cfg.seed, cfg.draws) == (2, 7, 3)
    assert all(type(v) is int for v in (cfg.sites, cfg.seed, cfg.draws))


def test_config_accepts_pinned_boundary():
    cfg = RunConfig(p=2.0 + 0.1j, q=1.5 - 0.2j, xi_plus=0.4, xi_minus=-0.3)
    bp = cfg.boundary(None)
    assert bp.p == 2.0 + 0.1j
    assert not bp.diagonal_mode


def test_config_pinned_diagonal():
    cfg = RunConfig(p=2.0 + 0.1j, q=1.5 - 0.2j)
    assert cfg.boundary(None).diagonal_mode


def test_explicit_thetas_used_by_chain():
    cfg = RunConfig(sites=2, thetas=(0.1, 0.25))
    cs = cfg.chain(None)
    assert cs.thetas == (0.1 + 0j, 0.25 + 0j)
    assert cfg.chain(None, sites=2).thetas == cs.thetas


def test_tolerance_lookup():
    cfg = RunConfig()
    assert cfg.tolerance("ybe") == 1e-12
    # Every record has its own default; nothing falls back to a family key.
    assert cfg.tolerance("exchange-modified-cb") == 1e-11
    assert cfg.tolerance("slavnov-onshell-bra") == 1e-8
    assert RunConfig(sites=4).tolerance("slavnov-onshell-ket") == 1e-6
    assert all(cfg.tolerance(name) == tol for name, (_, tol) in RECORDS.items())
    with pytest.raises(KeyError):
        cfg.tolerance("unregistered")


def test_tolerance_override_precedence():
    cfg = RunConfig(
        tolerances={
            "exchange": 1e-9,
            "exchange-modified": 1e-8,
            "exchange-modified-cb": 1e-7,
        }
    )
    assert cfg.tolerance("exchange-modified-cb") == 1e-7
    assert cfg.tolerance("exchange-modified-bb") == 1e-8
    assert cfg.tolerance("exchange-plain-bb") == 1e-9
    assert cfg.tolerance("ybe") == 1e-12


def test_exact_override_reaches_every_record_of_all():
    pinned = {name: 0.5 ** (k + 1) for k, name in enumerate(ALL_RECORD_NAMES)}
    report = run("all", RunConfig(sites=2, seed=0, draws=1, tolerances=pinned))
    assert {c.name: c.tolerance for c in report.checks} == pinned


def test_slavnov_onshell_overrides_reach_four_sites():
    # From four sites on the on-shell records default to 1e-6; a family key
    # and an exact name both override that default.
    def tolerances(**kwargs):
        report = run("slavnov", RunConfig(sites=4, seed=0, draws=1, **kwargs))
        return {c.name: c.tolerance for c in report.checks}

    default = tolerances()
    assert default["slavnov-onshell-bra"] == default["slavnov-onshell-ket"] == 1e-6
    pinned = tolerances(
        tolerances={"slavnov-onshell": 1e-3, "slavnov-onshell-bra": 1e-4}
    )
    assert pinned["slavnov-onshell-bra"] == 1e-4
    assert pinned["slavnov-onshell-ket"] == 1e-3
    assert pinned["cauchy-factorization"] == default["cauchy-factorization"]


def test_record_table_lists_exactly_the_folded_names():
    # Generic couplings at one to three sites, and the suites that take a
    # diagonal pin, fold every name in the table and no other.
    folded = set()
    for sites in (1, 2, 3):
        reports = [run("all", RunConfig(sites=sites, seed=0, draws=1))]
        diagonal = RunConfig(sites=sites, seed=0, draws=1, p=1.5 + 0.2j, q=2 - 0.1j)
        for command in ("spectrum", "exchange", "check-algebra"):
            reports.append(run(command, diagonal))
        folded |= {c.name for report in reports for c in report.checks}
    assert folded == set(RECORDS)


def test_echo_round_trips_through_json():
    cfg = RunConfig(
        sites=3,
        seed=7,
        p=1.0 + 2.0j,
        q=2.0 - 1.0j,
        xi_plus=0.3 + 0.1j,
        xi_minus=-0.2j,
        thetas=(0.1, 0.2, 0.31),
        tolerances={"ybe": 1e-11},
    )
    echoed = json.loads(json.dumps(cfg.echo()))
    assert echoed["sites"] == 3
    assert echoed["boundary"]["p"] == [1.0, 2.0]
    assert echoed["thetas"] == [[0.1, 0.0], [0.2, 0.0], [0.31, 0.0]]
    assert echoed["tolerances"] == {"ybe": 1e-11}


def test_jsonable_values():
    assert _jsonable(1 + 2j) == [1.0, 2.0]
    assert _jsonable((1, "a", None)) == [1, "a", None]
    assert _jsonable({"k": 0.5}) == {"k": 0.5}
    assert _jsonable(True) is True
    with pytest.raises(TypeError):
        _jsonable(object())


def test_check_record_dict():
    rec = CheckRecord("ybe", "r-matrix", 1e-13, 1e-12, True, 0.01)
    out = rec.to_dict()
    assert out["pass"] is True
    assert out["wall_time"] == 0.01
    assert "wall_time" not in rec.to_dict(include_timing=False)


def test_report_canonical_payload_drops_timing():
    report = VerificationReport(command="x", config={})
    report.checks.append(CheckRecord("a", "b", 0.0, 1.0, True, 123.0))
    payload = report.canonical_payload()
    assert b"wall_time" not in payload
    assert b"123.0" not in payload
    assert json.loads(payload)["all_pass"] is True


def test_check_algebra_report_deterministic():
    cfg = RunConfig(seed=5, draws=4)
    first = run_check_algebra(cfg)
    second = run_check_algebra(cfg)
    assert first.all_passed
    assert first.canonical_payload() == second.canonical_payload()
    names = [c.name for c in first.checks]
    assert names == [
        "ybe",
        "r-unitarity",
        "reflection",
        "dual-reflection",
        "gl2-invariance",
        "kplus-diagonalization",
    ]


ALL_RECORD_NAMES = [
    "ybe",
    "r-unitarity",
    "reflection",
    "dual-reflection",
    "gl2-invariance",
    "kplus-diagonalization",
    "exchange-plain-bb",
    "exchange-plain-cc",
    "exchange-plain-ab",
    "exchange-plain-ca",
    "exchange-plain-db",
    "exchange-plain-cd",
    "exchange-plain-cb",
    "exchange-modified-bb",
    "exchange-modified-cc",
    "exchange-modified-ab",
    "exchange-modified-ca",
    "exchange-modified-db",
    "exchange-modified-cd",
    "exchange-modified-cb",
    "transfer-trace-vs-modified",
    "transfer-commutation",
    "hamiltonian-commutation",
    "spectrum-completeness",
    "spectrum-eigenvalue-agreement",
    "bethe-onshell-residual",
    "root-sets-distinct",
    "offshell-action-right",
    "offshell-action-left",
    "central-relation-right",
    "central-relation-left",
    "multiple-actions",
    "cb-sweep",
    "c-action",
    "expansion-right",
    "expansion-left",
    "w0-routes",
    "slavnov-onshell-bra",
    "slavnov-onshell-ket",
    "cauchy-factorization",
    "slavnov-diagonal",
    "w0-diagonal-product",
    "norm-vs-direct",
    "gaudin-diagonal-routes",
    "norm-limit-consistency",
    "n1-four-way",
    "n1-plain-product",
    "n1-prescription",
    "n1-determinant-direct",
    "n1-determinant-general",
    "n1-norm-limit",
]


@pytest.mark.parametrize("sites", [1, 2, 3])
def test_run_all_record_names_and_order(sites):
    report = run("all", RunConfig(sites=sites, seed=0, draws=2))
    assert [c.name for c in report.checks] == ALL_RECORD_NAMES


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_wall_times_sum_to_at_most_the_run(command):
    # Each record is charged the suite time since the previous one, so no
    # second is counted twice.
    start = time.perf_counter()
    report = run(command, RunConfig(sites=2, seed=1, draws=3))
    elapsed = time.perf_counter() - start
    times = [c.wall_time for c in report.checks]
    assert times and min(times) >= 0
    assert sum(times) <= elapsed


SUITES_IN_ALL = (
    "check-algebra",
    "exchange",
    "spectrum",
    "offshell",
    "slavnov",
    "norm",
    "n1",
)


@pytest.mark.parametrize("precision", ["double", "extended"])
@pytest.mark.parametrize("sites", [1, 2])
def test_suites_give_the_same_records_alone_and_inside_all(sites, precision):
    # Each suite draws from its own stream, so it reports the same records
    # and details on its own as inside `all`.
    cfg = RunConfig(sites=sites, seed=0, draws=2, precision=precision)
    merged = run("all", cfg)
    alone = [run(name, cfg) for name in SUITES_IN_ALL]
    assert [c.to_dict(include_timing=False) for r in alone for c in r.checks] == [
        c.to_dict(include_timing=False) for c in merged.checks
    ]
    for name, report in zip(SUITES_IN_ALL, alone):
        assert report.details == merged.details.get(name, {})


def test_norm_is_finite_at_seven_sites():
    # At N = 7, seed 0, w0 * det(G) overflows a double although the norm
    # (about 3e205) fits in one; the formula divides before it multiplies.
    report = run("norm", RunConfig(sites=7, seed=0, draws=1))
    records = {c.name: c for c in report.checks}
    for name in ("norm-vs-direct", "norm-limit-consistency"):
        assert math.isfinite(records[name].residual)
        assert records[name].passed


def test_norm_runs_at_six_sites_at_default_settings():
    # The direct norm of this draw's state runs through the vector form of
    # the construction gate: two ``act`` calls here leave c_bar psi and
    # b_bar psi at about 1e-4 of their largest term, where a 2e-12 gap
    # between the routes is rounding.
    report = run("norm", RunConfig(sites=6, seed=0, draws=1))
    assert [c.name for c in report.checks] == [
        "norm-vs-direct",
        "gaudin-diagonal-routes",
        "norm-limit-consistency",
    ]
    assert report.all_passed


def _stacks_of(count_raw_blocks, command, **kwargs):
    """Sizes of the ``_raw_blocks`` stacks that one run builds, in order."""
    sizes = count_raw_blocks()
    run(command, RunConfig(**kwargs))
    return sizes


def test_offshell_beyond_the_byte_limit_is_refused_before_any_build(
    monkeypatch,
):
    # The first large allocation of an off-shell draw is the raw block of
    # its t(u), charged 8 * 4^(N+1) * 16 bytes: at 1 GiB, N = 10 (512 MiB)
    # reaches it and N = 11 (2 GiB) is refused before it.  A limit one byte
    # short of the N = 3 charge refuses N = 3 the same way.
    monkeypatch.setattr(dr, "identity", _allocation)
    with pytest.raises(_Allocation):
        run("offshell", RunConfig(sites=10, seed=0, draws=1))
    with pytest.raises(DimensionError, match="double-row build of 1 point"):
        run("offshell", RunConfig(sites=11, seed=0, draws=1))
    monkeypatch.setattr(linalg, "MAX_BYTES", 8 * 4**4 * 16 - 1)
    with pytest.raises(DimensionError, match="double-row build of 1 point"):
        run("offshell", RunConfig(sites=3, seed=0, draws=1))


@pytest.mark.parametrize("sites", [2, 3])
def test_offshell_builds_one_table_per_draw(count_raw_blocks, sites):
    # No operator table: each draw builds one raw block, its one-point t(u);
    # the states and the dense entries of the sweeps come from ``act``.
    sizes = _stacks_of(count_raw_blocks, "offshell", sites=sites, seed=0, draws=2)
    assert sizes == [1, 1]


@pytest.mark.parametrize("sites", [2, 3])
def test_offshell_builds_each_string_once_per_draw(monkeypatch, sites):
    # Each (side, family, prefix, point) of the state memo is one state of
    # one act call, never two: ket and bra each, the modified strings at the
    # roots, at the roots with u for one root and at roots + (u,), and the
    # plain strings of the cb sweep and of the expansion's subsets (one
    # stacked call per root).  Besides them, each point of the sweeps is one
    # call on the identity.
    calls, applied = [], []
    real = vectors.act

    def counted(u, states, cs, bp, dual=False):
        calls.append(len(states))
        if not np.array_equal(states, np.eye(2**sites)):
            applied.extend((dual, complex(u), state.tobytes()) for state in states)
        return real(u, states, cs, bp, dual=dual)

    monkeypatch.setattr(vectors, "act", counted)
    run("offshell", RunConfig(sites=sites, seed=0, draws=2))
    calls_per_draw, states_per_draw = {2: (20, 18), 3: (42, 42)}[sites]
    assert calls.count(2**sites) == 2 * (sites + 1)
    assert len(calls) == 2 * calls_per_draw
    assert len(applied) == 2 * states_per_draw
    for draw in (applied[:states_per_draw], applied[states_per_draw:]):
        assert len(set(draw)) == len(draw)


def test_offshell_assembles_t_once_per_draw(monkeypatch):
    # The whole action, its dressed part and the central relation read one
    # t(u) per draw.
    calls = []
    real = dr._transfer_blocks

    def counted(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(dr, "_transfer_blocks", counted)
    run("offshell", RunConfig(sites=2, seed=0, draws=2))
    assert len(calls) == 2


def test_huge_chain_is_refused_before_its_thetas_are_drawn(monkeypatch):
    # Drawing generic thetas is quadratic in N, so an absurd chain must be
    # refused by its byte count first, without forming 4**N.
    def no_draw(*args):
        raise AssertionError("draw_chain_spec called")

    monkeypatch.setattr(harness, "draw_chain_spec", no_draw)
    with pytest.raises(DimensionError, match="100000-site chain"):
        run("exchange", RunConfig(sites=10**5))
    with pytest.raises(DimensionError, match=f"{10**18}-site chain"):
        run("exchange", RunConfig(sites=10**18))


@pytest.mark.parametrize("sites", [2, 3])
def test_slavnov_builds_one_table_per_draw_and_sector(count_raw_blocks, sites):
    # No operator table: the only raw blocks are each solve's stack of N + 8
    # points, one per draw and one for the diagonal limit; the direct
    # products' states come from ``act``.
    sizes = _stacks_of(count_raw_blocks, "slavnov", sites=sites, seed=0, draws=2)
    assert sizes == [sites + 8] * 3


def test_norm_and_n1_build_one_table_per_draw(count_raw_blocks):
    # No operator table: norm builds only inside each draw's solve, n1 only
    # inside its one solve at N = 1.
    norm = _stacks_of(count_raw_blocks, "norm", sites=2, seed=0, draws=2)
    assert norm == [10, 10]
    assert _stacks_of(count_raw_blocks, "n1", seed=0, draws=2) == [9]


def test_run_all_namespaces_details():
    cfg = RunConfig(sites=1, seed=3, draws=2)
    report = run_all(cfg)
    assert report.command == "all"
    assert report.all_passed
    assert set(report.details) <= {
        "check-algebra",
        "exchange",
        "spectrum",
        "offshell",
        "slavnov",
        "norm",
        "n1",
    }
    assert "spectrum" in report.details
    # Fixed registry order: algebra checks first, single-site identities last.
    names = [c.name for c in report.checks]
    assert names[0] == "ybe"
    assert names[-1].startswith("n1-")


def test_diagonal_pin_rejected_where_generic_needed():
    cfg = RunConfig(sites=1, p=2.0 + 0.1j, q=1.5 - 0.2j)
    for command in sorted(harness.OFF_DIAGONAL_COMMANDS):
        with pytest.raises(ParameterError, match=f"the {command} command"):
            run(command, cfg)


@pytest.mark.parametrize("sites", [1, 2, 3])
def test_pinned_diagonal_spectrum_is_complete(sites):
    # One diagonal solve finds the 2^N branches of all magnon sectors.
    for seed in range(6):
        cfg = RunConfig(sites=sites, seed=seed, p=1.5 + 0.2j, q=2 - 0.1j)
        report = run("spectrum", cfg)
        by = {c.name: c for c in report.checks}
        assert by["spectrum-completeness"].residual == 0
        assert report.all_passed
        sizes = [row["magnons"] for row in report.details["branches"]]
        assert sizes == sorted(sizes)


def test_slavnov_evaluates_the_formula_once_per_draw(monkeypatch):
    # One value per draw serves both placements; the diagonal limit adds one
    # per nonempty magnon sector.
    calls = []
    real = harness.slavnov_modified

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "slavnov_modified", counted)
    report = run("slavnov", RunConfig(sites=2, seed=3, draws=3))
    assert report.all_passed
    assert calls == [2, 2, 2, 1, 2]


def test_run_dispatch():
    with pytest.raises(ParameterError):
        run("fourier", RunConfig())
    report = run("check-algebra", RunConfig(draws=2))
    assert report.command == "check-algebra"


def test_spectrum_complete_n3_seed_1007():
    # A root pair with u_j + u_k near zero stalls the double-precision polish
    # just above its 1e-12 stop; its best iterate passes the 1e-10 gate.
    report = run_spectrum(RunConfig(sites=3, seed=1007))
    record = next(c for c in report.checks if c.name == "spectrum-completeness")
    assert record.residual == 0
    assert report.all_passed


def test_root_sets_distinct_counts_matching_pairs(monkeypatch):
    # Matches up to reflection, order and 1e-7, a miss at 1e-5, and sets of
    # another size: the record counts what the pairwise loop counts.
    rng = np.random.default_rng(5)
    points = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    base = [tuple(complex(u) for u in row) for row in points]
    (a0, a1), (b0, b1), (c0, c1) = base
    sets = base + [
        (-a0 - 1, a1 + 1e-7),
        (b1, b0),
        (c0 + 1e-5, c1),
        (a0,),
        (-a0 - 1,),
        base[0],
    ]
    solutions = [
        BetheRoots(s, (0.0,) * len(s), True, branch=k, eigenvalue_residual=0.0)
        for k, s in enumerate(sets)
    ]
    monkeypatch.setattr(harness, "solve_bethe", lambda *a, **k: solutions)
    report = run_spectrum(RunConfig(sites=2, seed=0))
    record = next(c for c in report.checks if c.name == "root-sets-distinct")
    loop = sum(
        len(a) == len(b) and root_sets_match(a, b)
        for i, a in enumerate(sets)
        for b in sets[i + 1 :]
    )
    assert record.residual == loop == 5


EXCHANGE_STACKS = [2, 5, 10, 5]


def test_exchange_builds_nothing_per_point(count_raw_blocks):
    # The exchange pair, the five points of the two transfer forms, the ten
    # of the commutators and the five of the Hamiltonian check, each one
    # stack.
    sizes = _stacks_of(count_raw_blocks, "exchange", sites=2, seed=0, draws=1)
    assert sizes == EXCHANGE_STACKS


def test_all_builds_no_per_point_transfer_matrix_on_solve_or_exchange(count_raw_blocks):
    # Every build of `all` at N = 2 is a stack: the exchange suite's and one
    # per solve (N + 8 points; 9 for n1's one site), besides the one-point
    # t(u) of the off-shell draw.
    sizes = _stacks_of(count_raw_blocks, "all", sites=2, seed=0, draws=1)
    assert sizes == EXCHANGE_STACKS + [10, 1, 10, 10, 10, 9]


def test_cauchy_factorization_honours_extended_precision():
    # In double this draw's Cauchy determinant loses seven digits (1.5e-7,
    # over the 1e-10 gate); in the working precision both sides agree.
    report = run(
        "slavnov", RunConfig(sites=5, seed=7, draws=1, precision="extended")
    )
    record = next(c for c in report.checks if c.name == "cauchy-factorization")
    assert record.passed
    assert record.residual <= 1e-20


def test_slavnov_reports_cauchy_conditioning():
    # The on-shell roots of this draw sit far outside the free points' disc,
    # so the double Cauchy matrix has a condition number near 2.6e10.
    report = run("slavnov", RunConfig(sites=5, seed=7, draws=1))
    assert report.details["log10_cond_cauchy"] == pytest.approx(10.41, abs=0.05)
    assert b"log10_cond_cauchy" in report.canonical_payload()


def _nan_on_calls(func, calls):
    """``func``, returning NaN instead of its value on the given calls."""
    count = [0]

    def patched(*args, **kwargs):
        count[0] += 1
        out = func(*args, **kwargs)
        return math.nan if count[0] in calls else out

    return patched


def _failed(report):
    return {c.name for c in report.checks if not c.passed}


def test_nan_residual_on_a_later_draw_fails_its_record(monkeypatch):
    # The builtin max drops a NaN that does not come first: the second
    # draw's NaN must still be the record's worst, and fail the run.
    monkeypatch.setattr(
        harness, "check_cb_sweep", _nan_on_calls(harness.check_cb_sweep, {2})
    )
    report = run("offshell", RunConfig(sites=2, seed=0, draws=2))
    record = next(c for c in report.checks if c.name == "cb-sweep")
    assert math.isnan(record.residual) and not record.passed
    assert _failed(report) == {"cb-sweep"}
    assert report.to_dict()["all_pass"] is False


def test_nan_in_a_pre_reduced_residual_fails_its_record(monkeypatch):
    real = harness.check_multiple_actions

    def patched(*args, **kwargs):
        out = real(*args, **kwargs)
        out[list(out)[1]] = math.nan
        return out

    monkeypatch.setattr(harness, "check_multiple_actions", patched)
    report = run("offshell", RunConfig(sites=2, seed=0, draws=2))
    record = next(c for c in report.checks if c.name == "multiple-actions")
    assert math.isnan(record.residual) and not record.passed
    assert _failed(report) == {"multiple-actions"}
    assert not report.all_passed


def test_nan_commutator_fails_both_commutation_records(monkeypatch):
    # Five points per record: the second of each reduction is NaN.
    monkeypatch.setattr(
        harness,
        "_commutator_residual",
        _nan_on_calls(harness._commutator_residual, {2, 7}),
    )
    report = run("exchange", RunConfig(sites=1, seed=0, draws=1))
    assert _failed(report) == {"transfer-commutation", "hamiltonian-commutation"}


def test_fold_keeps_nan_once_seen():
    rec = harness._Recorder(RunConfig(), "check-algebra")
    for residual in (1e-16, math.nan, 2e-16):
        rec.fold("ybe", residual)
    rec.fold("r-unitarity", 3e-16)
    rec.fold("r-unitarity", 1e-16)
    ybe, unitarity = rec.report.checks
    assert math.isnan(ybe.residual) and not ybe.passed
    assert unitarity.residual == 3e-16 and unitarity.passed


def test_worst_reduction():
    assert harness._worst([]) == 0.0
    assert harness._worst(iter([2e-16, 5e-16, 1e-16])) == 5e-16
    assert math.isnan(harness._worst([1e-16, math.nan, 2e-16]))


@pytest.mark.parametrize("sites", [1, 2, 3, 4])
def test_slavnov_free_draws_never_warn(sites):
    # The slavnov suite draws each free set with ``avoid`` set to the
    # on-shell roots, which rejects the very distances, at the same 1e-3,
    # on which the formula warns: none of 50 such sets per chain length
    # (200 in all) makes it warn.
    for seed in range(5):
        config = RunConfig(sites=sites, seed=seed)
        rng = harness._stream(config, "slavnov")
        bp, cs = config.boundary(rng), config.chain(rng)
        on = solve_bethe(cs, bp, rng=rng, branch=seed)[0].roots
        for _ in range(10):
            free = tuple(draw_spectral_points(rng, sites, avoid=on, cs=cs, bp=bp))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                slavnov_modified(on, free, cs, bp)
