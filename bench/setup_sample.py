"""One cold set-up of a workload, for ``setup_s``.

    python3 bench/setup_sample.py spectrum-n2

Imports segment_bethe from this checkout's ``src``, draws the workload's first
warm-up problem and runs it once, and prints the seconds all of that took.
``run.py`` runs this in several fresh processes and reports their median.
"""

from __future__ import annotations

import sys
import time

import run


def main(name: str) -> int:
    start = time.perf_counter()
    run.load_package()
    from workloads import WARMUP, WARMUP_SEED, WORKLOADS

    workload = WORKLOADS[name]
    workload.op(workload.make(WARMUP_SEED, 0, WARMUP))
    print(time.perf_counter() - start)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
