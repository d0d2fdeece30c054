"""The payload script writes each grid cell's canonical payload as one line."""

import importlib.util
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
    line = payloads.payload_line(1, 0, "double")
    assert "\n" not in line
    expected = run("all", RunConfig(sites=1, seed=0, draws=2)).canonical_payload()
    assert line.encode("utf-8") == expected
