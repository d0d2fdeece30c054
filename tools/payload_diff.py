"""Compare two outputs of ``tools/payloads.py``, cell by cell.

    python3 tools/payload_diff.py OLD NEW

Line ``k`` of each file is the canonical payload of the same grid cell.
Files of different line counts are refused (exit 2).  The report's first
line counts the cells and says whether the files are byte-identical, so a
claim that a change moves nothing is one command per grid.  It lists:

- for each record whose residual moved: the number of cells it moved in,
  the largest absolute move and the worst residual on each side;
- pass-flag flips, by record and cell;
- records added, removed, or with a changed anchor or tolerance;
- cells whose ``details`` differ.

Exit status: 1 on any flip or record change, else 0.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path


def _cell(payload: dict, line: int) -> str:
    config = payload.get("config", {})
    if {"sites", "seed", "precision"} <= config.keys():
        return f"sites={config['sites']} seed={config['seed']} {config['precision']}"
    return f"line {line}"


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def _worst(a: float, b: float) -> float:
    return a if a >= b or math.isnan(a) else b


def compare(old_lines, new_lines):
    """``(text lines, exit status)`` of the comparison of two payload files."""
    moved = {}  # name -> [cells moved, largest move]
    worst = {}  # name -> [worst old, worst new] over every cell
    flips, changes, details = [], [], []
    for line, (old_text, new_text) in enumerate(zip(old_lines, new_lines), 1):
        old, new = json.loads(old_text), json.loads(new_text)
        cell = _cell(new, line)
        old_checks = {c["name"]: c for c in old["checks"]}
        new_checks = {c["name"]: c for c in new["checks"]}
        for name in old_checks.keys() - new_checks.keys():
            changes.append(f"removed {name} ({cell})")
        for name in new_checks.keys() - old_checks.keys():
            changes.append(f"added {name} ({cell})")
        for name in old_checks.keys() & new_checks.keys():
            a, b = old_checks[name], new_checks[name]
            for key in ("anchor", "tolerance"):
                if a[key] != b[key]:
                    changes.append(
                        f"{key} of {name} ({cell}): {a[key]!r} -> {b[key]!r}"
                    )
            if a["pass"] != b["pass"]:
                flips.append(f"{name} ({cell}): pass {a['pass']} -> {b['pass']}")
            ra, rb = float(a["residual"]), float(b["residual"])
            sides = worst.setdefault(name, [-math.inf, -math.inf])
            sides[:] = _worst(sides[0], ra), _worst(sides[1], rb)
            if not _same(ra, rb):
                entry = moved.setdefault(name, [0, 0.0])
                move = abs(rb - ra)
                entry[0] += 1
                entry[1] = _worst(entry[1], math.inf if math.isnan(move) else move)
        if old.get("details") != new.get("details"):
            details.append(cell)

    out = [f"cells: {len(old_lines)}", "residuals moved:"]
    for name in sorted(moved):
        (cells, move), (worst_old, worst_new) = moved[name], worst[name]
        out.append(
            f"  {name}: {cells} cells, largest move {move:.3g}, "
            f"worst {worst_old:.3g} -> {worst_new:.3g}"
        )
    for title, items in (
        ("pass-flag flips", flips),
        ("record changes", sorted(changes)),
        ("details differ", details),
    ):
        out.append(f"{title}: {len(items)}")
        out.extend(f"  {item}" for item in items)
    return out, 1 if flips or changes else 0


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: payload_diff.py OLD NEW", file=sys.stderr)
        return 2
    blobs = [Path(path).read_bytes() for path in args]
    texts = [blob.decode("utf-8").splitlines() for blob in blobs]
    if len(texts[0]) != len(texts[1]):
        print(
            f"payload_diff.py: line counts differ ({len(texts[0])} vs "
            f"{len(texts[1])})",
            file=sys.stderr,
        )
        return 2
    lines, status = compare(*texts)
    if blobs[0] == blobs[1]:
        lines[0] += ", byte-identical"
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
