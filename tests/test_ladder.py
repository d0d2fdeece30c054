"""The ladder script climbs N, records each cell and stops at the byte limit."""

import importlib.util
import json
from pathlib import Path

import numpy as np

from segment_bethe import linalg

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "ladder.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("ladder", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ladder_to_two_sites_writes_every_cell(monkeypatch, tmp_path, capsys):
    ladder = _load_script()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(ladder, "MAX_SITES", 2)
    ladder.main()
    result = json.loads((tmp_path / "BENCH_ladder.json").read_text(encoding="utf-8"))
    assert result["max_bytes"] == linalg.MAX_BYTES
    assert result["certified"] == {"double": 2, "extended": 2}
    assert result["stopped"] == {"double": "max sites 2", "extended": "max sites 2"}
    cells = result["cells"]
    assert len(cells) == 2 * 2 * 6
    for cell in cells:
        assert cell["failed"] == [] and cell["wall_s"] > 0
        assert cell["ratios"] and max(cell["ratios"].values()) <= 1
        assert cell["peak_rss_mib"] > 0
    out = capsys.readouterr().out
    assert "certified N: {'double': 2, 'extended': 2}" in out
    rung = [c for c in cells if c["sites"] == 2 and c["precision"] == "double"]
    worst = max(c["peak_rss_mib"] for c in rung)
    assert "N=2 double: 6 seeds, 0 failed, " in out
    assert f"peak RSS {worst:.1f} MiB" in out


def test_a_dimension_error_ends_that_precisions_ladder(monkeypatch):
    # run("all") at N = 1 charges at most 20480 bytes and at N = 2 a
    # double-row build of 10 points, 81920 bytes: the limit in force, not
    # one in the script, ends the climb at N = 2 in both precisions.
    ladder = _load_script()
    monkeypatch.setattr(linalg, "MAX_BYTES", 20480)
    result = ladder.climb()
    assert result["max_bytes"] == 20480
    assert result["certified"] == {"double": 1, "extended": 1}
    assert {c["sites"] for c in result["cells"]} == {1}
    for reason in result["stopped"].values():
        assert reason.startswith("DimensionError at N = 2: double-row build")


def test_the_budget_stops_new_cells(monkeypatch):
    ladder = _load_script()
    monkeypatch.setattr(ladder, "BUDGET_S", -1)
    result = ladder.climb()
    assert result["cells"] == [] and result["certified"] == {"double": 0, "extended": 0}
    assert set(result["stopped"].values()) == {"budget at N = 1"}


def test_each_cell_reports_its_own_peak_rss(monkeypatch):
    # A cell that touches 64 MiB (seed 1 here) peaks at least that far
    # above the next one (seed 0): each runs in its own child process, and
    # the ladder process itself runs none.
    ladder = _load_script()

    def cell(sites, seed, precision):
        np.ones(seed * (8 << 20)).sum()
        return {}

    monkeypatch.setattr(ladder, "cell", cell)
    big, small = (ladder.isolated_cell(1, seed, "double") for seed in (1, 0))
    assert big["peak_rss_mib"] - small["peak_rss_mib"] >= 60
