"""Command line behavior: config ingestion, exit codes, report emission."""

import argparse
import json
import math

import numpy as np
import pytest

from segment_bethe import cli, harness, linalg
from segment_bethe.cli import build_config, load_config_file, main
from segment_bethe.errors import ParameterError


def _namespace(**kwargs):
    base = {"config": None, "sites": None, "seed": None, "draws": None, "precision": None}
    base.update(kwargs)
    return argparse.Namespace(**base)


def _write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_config_file_parsing(tmp_path):
    path = _write_config(
        tmp_path,
        {
            "sites": 3,
            "seed": 9,
            "draws": 4.0,
            "p": [1.0, 2.0],
            "q": 1.5,
            "xi_plus": [0.3, -0.1],
            "xi_minus": [-0.2, 0.4],
            "thetas": [[0.1, 0.0], [0.2, 0.0], [0.35, 0.0]],
            "tolerance.ybe": 1e-11,
        },
    )
    fields = load_config_file(path)
    assert fields["sites"] == 3
    assert fields["draws"] == 4 and type(fields["draws"]) is int
    assert fields["p"] == 1.0 + 2.0j
    assert fields["q"] == 1.5 + 0j
    assert fields["thetas"] == (0.1 + 0j, 0.2 + 0j, 0.35 + 0j)
    assert fields["tolerances"] == {"ybe": 1e-11}


@pytest.mark.parametrize(
    "payload",
    [
        {"volume": 3},
        {"p": True},
        {"p": [1.0]},
        {"p": [True, 1.0]},
        {"p": "one"},
        {"thetas": 0.3},
        {"tolerance.ybe": True},
        {"tolerance.ybe": "1e-3"},
        [1, 2, 3],
    ],
)
def test_config_file_rejects(tmp_path, payload):
    path = _write_config(tmp_path, payload)
    with pytest.raises((ParameterError, ValueError)):
        load_config_file(path)


def test_precision_priority(tmp_path, monkeypatch):
    # The flag, then the config file, then the default; the environment
    # takes no part.
    monkeypatch.setenv("SEGMENT_BETHE_PRECISION", "extended")
    file_path = _write_config(tmp_path, {"precision": "extended"})
    assert build_config(_namespace(config=file_path)).precision == "extended"
    assert (
        build_config(_namespace(config=file_path, precision="double")).precision
        == "double"
    )
    assert build_config(_namespace(precision="extended")).precision == "extended"
    assert build_config(_namespace()).precision == "double"


def test_flags_override_config_file(tmp_path):
    path = _write_config(tmp_path, {"sites": 4, "seed": 1, "draws": 9})
    cfg = build_config(_namespace(config=path, sites=2, seed=7))
    assert cfg.sites == 2
    assert cfg.seed == 7
    assert cfg.draws == 9


def test_exit_zero_and_stdout_report(capsys):
    code = main(["check-algebra", "--draws", "2", "--seed", "1"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_pass"] is True
    assert report["command"] == "check-algebra"
    assert report["config"]["draws"] == 2


def test_exit_one_on_failed_check(tmp_path, capsys):
    path = _write_config(tmp_path, {"tolerance.ybe": 1e-30})
    code = main(["check-algebra", "--draws", "1", "--config", path])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["all_pass"] is False
    failed = [c for c in report["checks"] if not c["pass"]]
    assert [c["name"] for c in failed] == ["ybe"]


def test_exact_record_override_fails_that_record(tmp_path, capsys):
    # An override keyed by one record's name reaches that record.
    path = _write_config(tmp_path, {"tolerance.exchange-modified-cb": 1e-300})
    code = main(["exchange", "--sites", "2", "--draws", "1", "--config", path])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    assert failed == ["exchange-modified-cb"]


def test_exit_two_on_override_that_names_no_record(tmp_path, capsys):
    path = _write_config(tmp_path, {"tolerance.ybe-typo": 1e-11})
    assert main(["check-algebra", "--draws", "1", "--config", path]) == 2
    assert "unknown tolerance override 'ybe-typo'" in capsys.readouterr().err


def test_exit_two_on_bad_config(tmp_path, capsys):
    path = _write_config(tmp_path, {"volume": 3})
    assert main(["check-algebra", "--config", path]) == 2
    assert main(["check-algebra", "--config", str(tmp_path / "absent.json")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err


@pytest.mark.parametrize("value", [2.7, True])
@pytest.mark.parametrize("key", ["sites", "seed", "draws"])
def test_exit_two_on_non_integer_count(tmp_path, capsys, key, value):
    # Neither rounded (2.7 -> 2) nor read as 1.
    path = _write_config(tmp_path, {key: value})
    assert main(["check-algebra", "--config", path]) == 2
    assert f"{key} must be an integer" in capsys.readouterr().err


def test_exit_two_on_bad_precision_value(tmp_path, capsys):
    path = _write_config(tmp_path, {"precision": "quad"})
    assert main(["check-algebra", "--config", path]) == 2
    assert "config error" in capsys.readouterr().err


def test_argparse_rejects_unknown_subcommand():
    with pytest.raises(SystemExit) as info:
        main(["fourier"])
    assert info.value.code == 2


def test_solve_bethe_is_not_a_command(capsys):
    # `spectrum --out roots.csv` writes the root table; `solve-bethe` is not
    # a subcommand.
    with pytest.raises(SystemExit) as info:
        main(["solve-bethe", "--sites", "1"])
    assert info.value.code == 2
    assert "invalid choice: 'solve-bethe'" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(harness.OFF_DIAGONAL_COMMANDS))
def test_exit_two_when_command_needs_off_diagonal_couplings(
    monkeypatch, tmp_path, capsys, command
):
    # A pinned diagonal boundary cannot feed the suites that need general
    # couplings: a config error, refused before any suite runs.
    ran = []
    for name, suite in harness.COMMANDS.items():
        monkeypatch.setitem(
            harness.COMMANDS, name, lambda c, s=suite, n=name: ran.append(n) or s(c)
        )
    path = _write_config(tmp_path, {"p": 1.5, "q": 2})
    assert main([command, "--sites", "2", "--draws", "1", "--config", path]) == 2
    err = capsys.readouterr().err
    assert f"config error: the {command} command needs off-diagonal" in err
    assert ran == []


@pytest.mark.parametrize(
    "couplings",
    [
        {"p": 0, "q": 1.5, "xi_plus": 0.3, "xi_minus": 0.4},
        {"p": 1.5, "q": 0, "xi_plus": 0.3, "xi_minus": 0.4},
        {"p": 0, "q": 1.5},
    ],
)
@pytest.mark.parametrize("command", sorted(harness.HAMILTONIAN_COMMANDS))
def test_exit_two_when_the_hamiltonian_has_a_zero_coupling(
    monkeypatch, tmp_path, capsys, command, couplings
):
    # The Hamiltonian divides by p and q, so a pinned zero is a config
    # error refused before any suite runs, not a failed run (exit 3) at the
    # exchange suite's Hamiltonian check.
    ran = []
    for name, suite in harness.COMMANDS.items():
        monkeypatch.setitem(
            harness.COMMANDS, name, lambda c, s=suite, n=name: ran.append(n) or s(c)
        )
    path = _write_config(tmp_path, couplings)
    assert main([command, "--sites", "2", "--draws", "1", "--config", path]) == 2
    err = capsys.readouterr().err
    assert f"config error: the {command} command needs" in err
    assert ran == []


def test_a_zero_coupling_serves_the_commands_without_a_hamiltonian(tmp_path, capsys):
    path = _write_config(tmp_path, {"p": 0, "q": 1.5, "xi_plus": 0.3, "xi_minus": 0.4})
    assert main(["spectrum", "--sites", "2", "--draws", "1", "--config", path]) == 0
    assert json.loads(capsys.readouterr().out)["all_pass"] is True


@pytest.mark.parametrize(
    "command", ["spectrum", "exchange", "check-algebra"]
)
def test_pinned_diagonal_couplings_serve_the_other_commands(
    tmp_path, capsys, command
):
    path = _write_config(tmp_path, {"p": 1.5, "q": 2})
    assert main([command, "--sites", "2", "--draws", "1", "--config", path]) == 0


@pytest.mark.parametrize(
    "payload",
    [
        {"p": 1e308, "q": 2, "xi_plus": 0.5, "xi_minus": 0.7},
        {"p": 1.5, "q": 2, "xi_plus": 1e200, "xi_minus": 1e200},
        {"p": 1.5, "q": 2, "xi_plus": 0.5, "xi_minus": 0.7, "thetas": [1e200]},
    ],
)
def test_exit_three_when_couplings_overflow(tmp_path, capsys, payload):
    # Finite couplings whose operators overflow to NaN trip a construction
    # gate: an aborted run, not a failed check and not a traceback.
    path = _write_config(tmp_path, payload)
    with np.errstate(all="ignore"):
        code = main(["all", "--sites", "1", "--draws", "1", "--config", path])
    assert code == 3
    assert "construction routes disagree (nan)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"p": 1.5, "q": 2, "xi_plus": 1, "xi_minus": -1}, "rho too close to 1"),
        ({"p": 1.5, "q": 2, "xi_plus": 1}, "both vanish or both be nonzero"),
        ({"p": [1.5, float("nan")], "q": 2}, "p must be finite"),
        ({"p": 1.5, "q": 2, "xi_plus": 0.5, "xi_minus": 1e400}, "xi_minus"),
        ({"p": 1.5, "q": 2, "thetas": [float("nan")]}, "thetas must be finite"),
    ],
)
def test_exit_two_on_bad_pinned_couplings(tmp_path, capsys, payload, message):
    path = _write_config(tmp_path, payload)
    assert main(["all", "--sites", "1", "--draws", "1", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err


@pytest.mark.parametrize("command", list(harness.COMMANDS))
def test_exit_two_when_tiny_couplings_round_rho_to_zero(tmp_path, capsys, command):
    # xi_plus * xi_minus is lost against 1 in 1 - sqrt(1 + xi_plus xi_minus),
    # so rho is exactly 0 and the similarity transform is singular: refused
    # as a config error before any suite runs.
    path = _write_config(
        tmp_path, {"p": 1.5, "q": 2, "xi_plus": 1e-9, "xi_minus": 1e-9}
    )
    code = main([command, "--sites", "2", "--draws", "1", "--config", path])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "similarity transform is singular" in err


def test_out_writes_report_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["check-algebra", "--draws", "2", "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    written = json.loads(out.read_text(encoding="utf-8"))
    assert written == json.loads(capsys.readouterr().out)


def test_exit_two_on_unwritable_out(monkeypatch, tmp_path, capsys):
    # An --out path the report cannot be written to (a missing folder, or a
    # folder itself) is a configuration fault, refused before any suite runs.
    def refuse(*args, **kwargs):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(cli, "run", refuse)
    for out in (tmp_path / "missing" / "x.json", tmp_path):
        assert main(["n1", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error: cannot write the report to" in captured.err


def test_solve_bethe_csv_out(tmp_path, capsys):
    out = tmp_path / "roots.csv"
    code = main(["spectrum", "--sites", "1", "--seed", "2", "--out", str(out)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    text = out.read_text(encoding="utf-8")
    assert text == report["details"]["csv"]
    header, *rows = text.strip().splitlines()
    assert header.startswith("branch,")
    assert len(rows) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["n1", "--seed", "4", "--draws", "2"],
        ["all", "--sites", "1"],
        # A draw on which the double-precision polish stalls above its stop.
        ["spectrum", "--sites", "4", "--seed", "0"],
    ],
    ids=["n1", "all-sites-1", "spectrum-sites-4"],
)
def test_stdout_deterministic_up_to_timing(capsys, argv):
    def run_once():
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        for check in report["checks"]:
            check.pop("wall_time")
        return report

    assert run_once() == run_once()


@pytest.mark.parametrize("command", ["slavnov", "norm", "n1"])
def test_exit_three_when_solver_finds_nothing(monkeypatch, capsys, command):
    monkeypatch.setattr(harness, "solve_bethe", lambda *a, **k: [])
    code = main([command, "--sites", "1", "--draws", "1", "--seed", "5"])
    assert code == 3
    assert "run failed" in capsys.readouterr().err


# Each command's first large request at N = 3, its charge in bytes and its
# name: the off-shell draw's sweep entries, 64 (N + 1) 4^N bytes at its
# N + 1 points; the first solve's double-row stack of N + 8 points and the
# exchange pair that `all` builds after check-algebra, each charged
# 8 * 4^(N+1) * 16 bytes per point.  Each is the largest request a run
# makes up to it.
FIRST_BUILD = {
    "offshell": (64 * 4 * 4**3, "sweep entries at 4 point(s)"),
    "slavnov": (11 * 8 * 4**4 * 16, "double-row build of 11 point(s)"),
    "norm": (11 * 8 * 4**4 * 16, "double-row build of 11 point(s)"),
    "all": (2 * 8 * 4**4 * 16, "double-row build of 2 point(s)"),
}


@pytest.mark.parametrize("command", sorted(FIRST_BUILD))
def test_exit_two_beyond_the_cache_budget(monkeypatch, capsys, command):
    # A build over the byte limit is a configuration fault, refused before
    # its blocks are allocated; the limit sits one byte below the first one.
    charge, request = FIRST_BUILD[command]
    monkeypatch.setattr(linalg, "MAX_BYTES", charge - 1)
    assert main([command, "--sites", "3", "--draws", "1"]) == 2
    out, err = capsys.readouterr()
    assert f"config error: {request}" in err
    assert out == ""


def test_exit_two_on_a_non_finite_tolerance(tmp_path, capsys):
    # JSON's Infinity reads as a float; a record could never fail under it.
    path = _write_config(tmp_path, {"tolerance.ybe": math.inf})
    assert "Infinity" in open(path).read()
    assert main(["check-algebra", "--config", path]) == 2
    out, err = capsys.readouterr()
    assert "config error: tolerance 'ybe' must be finite and positive" in err
    assert out == ""


def test_exit_two_on_the_removed_direct_cap_key(tmp_path, capsys):
    path = _write_config(tmp_path, {"direct_cap": 5})
    assert main(["norm", "--config", path]) == 2
    assert "unknown config key 'direct_cap'" in capsys.readouterr().err


def test_exit_two_on_a_huge_chain(capsys):
    # Refused by its byte count before any theta is drawn, not left to run.
    assert main(["spectrum", "--sites", "100000", "--draws", "1"]) == 2
    assert "config error: 100000-site chain" in capsys.readouterr().err


def test_exit_two_on_dimension_error(monkeypatch, capsys):
    # An operator beyond the byte limit is a configuration fault.
    monkeypatch.setattr(linalg, "MAX_BYTES", 4)
    code = main(["spectrum", "--sites", "2", "--seed", "8128"])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("thetas", [[0, 1], [0.3, 0.7], [0.3, 1.3], [-0.3, -0.7]])
def test_exit_two_on_thetas_whose_sum_or_difference_is_one(tmp_path, capsys, thetas):
    # theta_i +- theta_j = +-1 degenerates the spectrum, and the solver
    # missed branches there on most seeds: refused as a config error.
    path = _write_config(tmp_path, {"thetas": thetas})
    assert main(["spectrum", "--sites", "2", "--config", path]) == 2
    out, err = capsys.readouterr()
    assert "config error: explicit thetas must be generic" in err
    assert out == ""


def test_thetas_clear_of_the_degenerate_loci_still_run(tmp_path, capsys):
    path = _write_config(tmp_path, {"thetas": [0.3, 0.6]})
    assert main(["spectrum", "--sites", "2", "--config", path]) == 0
    assert json.loads(capsys.readouterr().out)["all_pass"]


def test_exit_two_when_the_bethe_state_memo_crosses_the_limit(monkeypatch, capsys):
    # The off-shell draw at N = 2, seed 0 keeps 18 nodes of 9 * 16 * 4
    # bytes.  One byte less is above every other charge of the run (act
    # calls shrink to fit it), so only the memo's charge can refuse it.
    monkeypatch.setattr(linalg, "MAX_BYTES", 18 * 9 * 16 * 4 - 1)
    assert main(["offshell", "--sites", "2", "--seed", "0", "--draws", "1"]) == 2
    out, err = capsys.readouterr()
    assert "config error: Bethe-state memo of 18 nodes" in err
    assert out == ""
