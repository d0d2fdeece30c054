"""Canonical payloads of ``run`` on a fixed grid, one JSON line each.

    python3 tools/payloads.py > payloads.jsonl
    python3 tools/payloads.py large > payloads-large.jsonl

The default grid runs ``all`` on sites 1-3 x seeds 0-9 x double/extended
precision, two draws each.  The ``large`` grid runs ``all`` on sites 4-6 x
seeds 0-2 in double precision, then ``offshell`` at 7 sites, seeds 0-2, one
draw each: the Bethe states are costliest there, and the levels of a
draw's state build widest.  A line is the run's ``canonical_payload()``:
every record's residual, tolerance and pass flag and every detail, but no
wall time, so the same code gives the same lines.  The package is imported
from this checkout's ``src``, so two checkouts' outputs compare with
``diff`` or ``tools/payload_diff.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
GRID = [
    (sites, seed, precision)
    for sites in (1, 2, 3)
    for seed in range(10)
    for precision in ("double", "extended")
]
LARGE_GRID = [(sites, seed, "double") for sites in (4, 5, 6) for seed in range(3)]
OFFSHELL_GRID = [(7, seed, "double") for seed in range(3)]
# Each grid: its (command, cells, draws) parts, in output order.
GRIDS = {
    "default": [("all", GRID, 2)],
    "large": [("all", LARGE_GRID, 1), ("offshell", OFFSHELL_GRID, 1)],
}


def payload_line(
    command: str, sites: int, seed: int, precision: str, draws: int = 2
) -> str:
    """The canonical payload of ``run(command)`` on one grid cell, as one line."""
    from segment_bethe import RunConfig, run

    config = RunConfig(sites=sites, seed=seed, draws=draws, precision=precision)
    return run(command, config).canonical_payload().decode("utf-8")


def main() -> None:
    sys.path.insert(0, str(SRC))
    import segment_bethe

    if Path(segment_bethe.__file__).resolve().parent != SRC / "segment_bethe":
        raise SystemExit(f"payloads.py: imported {segment_bethe.__file__}")
    names = sys.argv[1:] or ["default"]
    if len(names) != 1 or names[0] not in GRIDS:
        raise SystemExit(f"usage: payloads.py [{'|'.join(GRIDS)}]")
    for command, grid, draws in GRIDS[names[0]]:
        for cell in grid:
            print(payload_line(command, *cell, draws=draws), flush=True)


if __name__ == "__main__":
    main()
