"""Tests of the benchmark's own checkers, counting and tracing.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import segment_bethe as sb  # noqa: E402
import workloads  # noqa: E402


def _corrupted(name: str, corrupt):
    """The named workload with ``corrupt`` applied to each op's output."""
    wl = workloads.WORKLOADS[name]
    return dataclasses.replace(wl, op=lambda problem: corrupt(wl.op(problem)))


def _one_round(wl) -> run.Loop:
    loop = run.Loop(wl, seed=5)
    loop.run_until(0.0)
    return loop


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_intact_ops_pass(name):
    loop = _one_round(workloads.WORKLOADS[name])
    assert (loop.failed, loop.wrong, loop.notes) == (set(), set(), [])


def test_nudged_root_is_a_wrong_op():
    def nudge(solutions):
        first = solutions[0]
        roots = (first.roots[0] + 1e-6,) + first.roots[1:]
        return [dataclasses.replace(first, roots=roots)] + solutions[1:]

    loop = _one_round(_corrupted("spectrum-n2", nudge))
    assert (len(loop.failed), len(loop.wrong)) == (1, 1)
    assert "Bethe residual" in loop.notes[0]


def test_dropped_branch_is_a_failed_op():
    loop = _one_round(_corrupted("spectrum-n2", lambda solutions: solutions[1:]))
    assert (len(loop.failed), len(loop.wrong)) == (1, 0)
    assert "3 of 4 branches" in loop.notes[0]


def test_report_with_a_failed_record_is_a_failed_op():
    def fail_one(report):
        record = dataclasses.replace(report.checks[3], passed=False)
        report.checks[3] = record
        return report

    wl = _corrupted("certify-n2", fail_one)
    loop = run.Loop(wl, seed=5)
    loop.one(0)
    assert (len(loop.failed), len(loop.wrong)) == (1, 0)


def test_missing_or_loosened_record_is_a_wrong_op():
    report = sb.run("offshell", sb.RunConfig(sites=2, seed=5, draws=1))
    assert workloads.check_report(report, workloads.OFFSHELL) == ("ok", "")
    checks = list(report.checks)

    report.checks[:] = checks[1:]
    verdict, why = workloads.check_report(report, workloads.OFFSHELL)
    assert verdict == "wrong" and checks[0].name in why

    report.checks[:] = [dataclasses.replace(checks[0], tolerance=1.0)] + checks[1:]
    verdict, why = workloads.check_report(report, workloads.OFFSHELL)
    assert verdict == "wrong" and "tolerance" in why


def test_scaled_w0_is_a_failed_op(monkeypatch):
    w_coefficients = sb.vectors.w_coefficients

    def scaled(roots, cs, bp):
        out = w_coefficients(roots, cs, bp)
        return dataclasses.replace(out, w0=1.01 * out.w0)

    monkeypatch.setattr(sb.vectors, "w_coefficients", scaled)
    loop = run.Loop(workloads.WORKLOADS["certify-n2"], seed=5)
    loop.one(0)
    assert (len(loop.failed), len(loop.wrong)) == (1, 0)
    assert "w0-routes" in loop.notes[0]


def test_bruteforce_transfer_matrix_matches_package():
    rng = np.random.default_rng(3)
    bp = sb.draw_boundary_params(rng)
    cs = sb.draw_chain_spec(rng, 3)
    for u in sb.draw_spectral_points(rng, 3, cs=cs, bp=bp):
        mine = workloads.transfer_matrix_bruteforce(u, cs, bp)
        theirs = sb.transfer_matrix(u, cs, bp).matrix
        assert np.abs(mine - theirs).max() <= 1e-12 * np.abs(theirs).max()


def test_tracer_rebinds_by_name_and_restores():
    harness, bethe = sb.harness, sb.bethe
    originals = (
        harness.solve_bethe,
        bethe.transfer_matrix,
        harness.COMMANDS["offshell"],
        sb.BoundaryParams.__dict__["rho"],
    )
    tracer = layers.Tracer(sites=2)
    tracer.install()
    try:
        assert harness.solve_bethe is not originals[0]
        assert harness.solve_bethe is bethe.solve_bethe is sb.solve_bethe
        assert bethe.transfer_matrix is not originals[1]
        assert bethe.transfer_matrix is sys.modules[
            "segment_bethe.double_row"
        ].transfer_matrix
        assert harness.COMMANDS["offshell"] is harness.run_offshell
        report = sb.run("offshell", sb.RunConfig(sites=2, seed=1, draws=1))
        assert report.all_passed
    finally:
        tracer.restore()
    assert (
        harness.solve_bethe,
        bethe.transfer_matrix,
        harness.COMMANDS["offshell"],
        sb.BoundaryParams.__dict__["rho"],
    ) == originals
    figures = tracer.metrics(ops=1)
    assert figures["harness.run_offshell.self_s"] > 0
    assert figures["params.rho.evals"] > 0
    assert figures["linalg.embed_two_site.calls"] > 0


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.LAYER_METRICS


@pytest.mark.parametrize("trace, attempted", [(0, run.SETUP_REPEATS), (1, 1)])
def test_result_line(trace, attempted, tmp_path, monkeypatch, capsys):
    """A zero-second run does one round per slice; a traced problem counts once."""
    monkeypatch.chdir(tmp_path)
    argv = ["--workload", "spectrum-n2", "--seed", "3", "--seconds", "0"]
    assert run.main(argv + ["--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    units = dict(layers.LAYER_METRICS) if trace else run.END_TO_END
    assert (result["correct"], result["attempted"], result["failed"]) == (
        True,
        attempted,
        0,
    )
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
