"""Canonical payloads of ``run("all")`` on a fixed grid, one JSON line each.

    python3 tools/payloads.py > payloads.jsonl

The grid is sites 1-3 x seeds 0-9 x double/extended precision, two draws
each.  A line is the run's ``canonical_payload()``: every record's residual,
tolerance and pass flag and every detail, but no wall time, so the same
code gives the same lines.  The package is imported from this checkout's
``src``, so two checkouts' outputs compare with ``diff``.
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


def payload_line(sites: int, seed: int, precision: str) -> str:
    """The canonical payload of ``run("all")`` on one grid cell, as one line."""
    from segment_bethe import RunConfig, run

    config = RunConfig(sites=sites, seed=seed, draws=2, precision=precision)
    return run("all", config).canonical_payload().decode("utf-8")


def main() -> None:
    sys.path.insert(0, str(SRC))
    import segment_bethe

    if Path(segment_bethe.__file__).resolve().parent != SRC / "segment_bethe":
        raise SystemExit(f"payloads.py: imported {segment_bethe.__file__}")
    for cell in GRID:
        print(payload_line(*cell), flush=True)


if __name__ == "__main__":
    main()
