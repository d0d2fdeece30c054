"""The payload script writes each grid cell's canonical payload as one line."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from segment_bethe.harness import RunConfig, run

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "payloads.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("payloads", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_payload_line_is_the_canonical_payload():
    payloads = _load_script()
    assert len(payloads.GRID) == len(set(payloads.GRID)) == 60
    assert payloads.GRID[0] == (1, 0, "double")
    line = payloads.payload_line("all", 1, 0, "double")
    assert "\n" not in line
    expected = run("all", RunConfig(sites=1, seed=0, draws=2)).canonical_payload()
    assert line.encode("utf-8") == expected


DIFF_SCRIPT = SCRIPT.with_name("payload_diff.py")


def _payload(cell, residuals):
    """A two-record payload line; a record passes at residual <= 1e-10."""
    checks = [
        {"name": k, "anchor": "a", "residual": r, "tolerance": 1e-10}
        for k, r in residuals.items()
    ]
    for check in checks:
        check["pass"] = check["residual"] <= 1e-10
    config = {"sites": 1, "seed": cell, "precision": "double"}
    return json.dumps({"checks": checks, "config": config, "details": {}})


def _diff(tmp_path, old, new):
    paths = []
    for name, lines in (("old", old), ("new", new)):
        path = tmp_path / f"{name}.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(str(path))
    done = subprocess.run(
        [sys.executable, str(DIFF_SCRIPT), *paths], capture_output=True, text=True
    )
    return done.returncode, done.stdout, done.stderr


def test_payload_diff_reports_moves_and_flips(tmp_path):
    same = _payload(0, {"x": 1e-16, "y": 2e-11})
    old = [same, _payload(1, {"x": 3e-16, "y": 1e-12})]
    new = [same, _payload(1, {"x": 5e-16, "y": 2e-10})]
    code, out, _ = _diff(tmp_path, old, new)
    assert code == 1
    assert "  x: 1 cells, largest move 2e-16, worst 3e-16 -> 5e-16" in out
    assert "  y: 1 cells, largest move 1.99e-10, worst 2e-11 -> 2e-10" in out
    assert "pass-flag flips: 1\n  y (sites=1 seed=1 double): pass True -> False" in out
    assert "record changes: 0" in out and "details differ: 0" in out

    code, out, _ = _diff(tmp_path, old, old)
    assert code == 0 and "residuals moved:\npass-flag flips: 0" in out

    code, _, err = _diff(tmp_path, old, new[:1])
    assert code == 2 and "line counts differ" in err


def test_payload_diff_says_when_the_files_are_byte_identical(tmp_path):
    lines = [_payload(0, {"x": 1e-16}), _payload(1, {"x": 3e-16})]
    code, out, _ = _diff(tmp_path, lines, lines)
    assert code == 0 and out.splitlines()[0] == "cells: 2, byte-identical"
    # Equal payloads in other bytes are not byte-identical.
    spaced = [line.replace(": ", ":  ") for line in lines]
    code, out, _ = _diff(tmp_path, lines, spaced)
    assert code == 0 and out.splitlines()[0] == "cells: 2"
    assert "residuals moved:\npass-flag flips: 0" in out
