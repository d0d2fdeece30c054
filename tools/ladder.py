"""Climb the chain length until a run stops fitting the byte limit or time.

    python3 tools/ladder.py

For N = 1, 2, ... and each precision, runs
``run("all", RunConfig(sites=N, seed=s, draws=1, precision=p))`` on seeds
0-5, one cell per run.  A precision's ladder ends at its first
``DimensionError`` (the package's ``linalg.MAX_BYTES``, read at the run, is
written out with the results) or at ``MAX_SITES``; no new cell starts once
``BUDGET_S`` seconds have passed.  A cell records its wall time, its failed
records, every record's residual over its tolerance and its peak RSS.  Each
cell runs in a child process forked from the ladder, which reports its own
``getrusage(RUSAGE_SELF).ru_maxrss``; a child inherits the ladder's pages,
so its peak includes the imported package and numpy (about 36 MiB at
N = 1 on Linux x86-64) but no other cell's memory.  A precision's certified
N is the largest N up to which every cell passed.  The results go to
``BENCH_ladder.json`` in the working directory and a one-line summary per
rung, with its largest peak RSS, to stdout.  The package is imported from
this checkout's ``src``.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SEEDS = range(6)
PRECISIONS = ("double", "extended")
MAX_SITES = 8
BUDGET_S = 1800.0


def _ratio(residual: float, tolerance: float):
    """``residual / tolerance``, or its text when it is not finite (JSON)."""
    ratio = residual / tolerance
    return ratio if math.isfinite(ratio) else str(ratio)


def cell(sites: int, seed: int, precision: str) -> dict:
    """One ``run("all")``: its wall time, failed records and ratios."""
    from segment_bethe import RunConfig, run

    start = time.perf_counter()
    config = RunConfig(sites=sites, seed=seed, draws=1, precision=precision)
    report = run("all", config)
    return {
        "sites": sites,
        "seed": seed,
        "precision": precision,
        "wall_s": time.perf_counter() - start,
        "failed": [c.name for c in report.checks if not c.passed],
        "ratios": {c.name: _ratio(c.residual, c.tolerance) for c in report.checks},
    }


def _send_cell(conn, sites: int, seed: int, precision: str) -> None:
    """Send :func:`cell` with this process's peak RSS in MiB, or its error."""
    try:
        out = cell(sites, seed, precision)
        out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    except Exception as exc:  # re-raised by the ladder process
        out = exc
    conn.send(out)


def isolated_cell(sites: int, seed: int, precision: str) -> dict:
    """:func:`cell` in a new forked child, with the child's peak RSS; an
    error the cell raises is raised here."""
    # Fork, not spawn: a spawned child's ru_maxrss counts the ladder's pages
    # as well (Linux keeps the peak from before the exec), and it imports
    # the package again, 0.32 s a cell against 0.07 s.  The ladder runs no
    # thread of its own; OpenBLAS's pool handles the fork.
    fork = multiprocessing.get_context("fork")
    receive, send = fork.Pipe(duplex=False)
    child = fork.Process(target=_send_cell, args=(send, sites, seed, precision))
    child.start()
    send.close()
    out = receive.recv()
    child.join()
    if isinstance(out, Exception):
        raise out
    return out


def climb() -> dict:
    """The ladder from N = 1 to ``MAX_SITES``, within ``BUDGET_S`` seconds,
    each rung's summary printed as it ends."""
    from segment_bethe import DimensionError, linalg

    start = time.perf_counter()
    cells, stopped = [], {}
    certified = dict.fromkeys(PRECISIONS, 0)
    for sites in range(1, MAX_SITES + 1):
        for precision in PRECISIONS:
            if precision in stopped:
                continue
            rung = []
            for seed in SEEDS:
                if time.perf_counter() - start > BUDGET_S:
                    stopped.setdefault(precision, f"budget at N = {sites}")
                    break
                try:
                    rung.append(isolated_cell(sites, seed, precision))
                except DimensionError as exc:
                    stopped[precision] = f"DimensionError at N = {sites}: {exc}"
                    break
            cells += rung
            whole = len(rung) == len(SEEDS)
            if whole and certified[precision] == sites - 1:
                if not any(c["failed"] for c in rung):
                    certified[precision] = sites
            if rung:
                failed = sum(bool(c["failed"]) for c in rung)
                wall = sum(c["wall_s"] for c in rung)
                rss = max(c["peak_rss_mib"] for c in rung)
                print(
                    f"N={sites} {precision}: {len(rung)} seeds, {failed} failed, "
                    f"{wall:.1f} s, peak RSS {rss:.1f} MiB",
                    flush=True,
                )
    for precision in PRECISIONS:
        stopped.setdefault(precision, f"max sites {MAX_SITES}")
    return {
        "max_bytes": linalg.MAX_BYTES,
        "budget_s": BUDGET_S,
        "wall_s": time.perf_counter() - start,
        "certified": certified,
        "stopped": stopped,
        "cells": cells,
    }


def main() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import segment_bethe

    if Path(segment_bethe.__file__).resolve().parent != SRC / "segment_bethe":
        raise SystemExit(f"ladder.py: imported {segment_bethe.__file__}")
    result = climb()
    out = Path("BENCH_ladder.json")
    out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(f"certified N: {result['certified']}; {result['wall_s']:.1f} s")


if __name__ == "__main__":
    main()
