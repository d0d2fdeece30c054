"""Regenerate the reference figures of bench/README.md.

    python3 bench/reference.py

Runs ``bench/run.py`` once per workload of ``BENCHMARK.json`` and seed 1 to
10 untraced, one after the other, for ``run_seconds`` each, then one traced
run per workload on seed 1.  Prints, per
workload and end-to-end metric, the median and quartiles over the seeds and
the quartile spread as a share of the median, then the traced figures.  All
of it is also written to ``BENCH_reference.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    out: dict = {"seconds": seconds, "seeds": SEEDS, "workloads": {}}
    print("| workload | metric | unit | median | q1 | q3 | spread | bound |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    for workload in workloads:
        runs = [_run(workload, seed, seconds, 0) for seed in SEEDS]
        entry = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "metrics": {},
        }
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            entry["metrics"][name] = {
                "unit": unit, "values": values, "median": med,
                "q1": q1, "q3": q3, "spread": spread,
            }
            print(
                f"| {workload} | {name} | {unit} | {med:.4g} | {q1:.4g} | {q3:.4g}"
                f" | {spread:.3f} | {bounds.get(name, '')} |"
            )
        print(
            f"<!-- {workload}: attempted {entry['attempted']}, failed {entry['failed']},"
            f" correct {entry['correct']} -->"
        )
        out["workloads"][workload] = entry
        sys.stdout.flush()

    for workload in workloads:
        traced = _run(workload, SEEDS[0], seconds, 1)
        out["workloads"][workload]["trace"] = traced
        print(f"\n### traced {workload}, seed {SEEDS[0]}, {traced['attempted']} problems\n")
        print("| metric | value | unit |\n| --- | --- | --- |")
        for name, m in traced["metrics"].items():
            if m["value"]:
                print(f"| `{name}` | {m['value']:.4g} | {m['unit']} |")
    (ROOT / "BENCH_reference.json").write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
