"""Benchmark of segment_bethe through its public API.

    python3 bench/run.py --workload spectrum-n2 --seed 1 --seconds 40 --trace 0

Runs one workload in this single-threaded process: set-up (import, warm-up
op), then ops on fresh seeded problems until ``--seconds`` have passed,
attempting whole rounds only.  Each op's output is checked outside the timed
region.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs
every problem twice, untraced and traced, and reports the per-layer metrics
of ``layers.py`` together with the tracing overhead.  The last line of
standard output is the JSON result; the same figures go to
``BENCH_<workload>_seed<seed>[_trace].json`` in the working directory.
"""

from __future__ import annotations

import os

# BLAS and OpenMP pools would compete with the one Python thread for the
# cores and make timings depend on the machine's load; pin them to one thread.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# Cold set-ups timed, each in a fresh process and spread over the run;
# setup_s is their median.
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MiB",
}


def load_package() -> None:
    """Import segment_bethe from this checkout's ``src``; put ``bench`` on the path."""
    if not (SRC / "segment_bethe" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no segment_bethe sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import segment_bethe

    if Path(segment_bethe.__file__).resolve().parent != SRC / "segment_bethe":
        raise SystemExit(f"run.py: imported segment_bethe from {segment_bethe.__file__}")
    sys.path.insert(0, str(HERE))


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Loop:
    """Runs ops in whole rounds and keeps the figures of the timed ones."""

    def __init__(self, workload, seed: int, tracer=None):
        self.wl = workload
        self.seed = seed
        self.tracer = tracer
        self.op_times: list[float] = []
        self.round_times: list[float] = []
        self.wall = 0.0
        # Indices of the failed ops, and of those among them that were wrong.
        self.failed: set[int] = set()
        self.wrong: set[int] = set()
        self.rss_at = None
        self.notes: list[str] = []

    def one(self, index: int) -> None:
        wl = self.wl
        problem = wl.make(self.seed, index)
        if self.tracer is not None:
            self.tracer.install()
        start = time.perf_counter()
        try:
            out = wl.op(problem)
        except Exception as exc:  # an op that raises is a failed op
            verdict, why = "failed", f"{type(exc).__name__}: {exc}"
        else:
            verdict = None
        finally:
            self.op_times.append(time.perf_counter() - start)
            if self.tracer is not None:
                self.tracer.restore()
        if verdict is None:
            verdict, why = wl.check(problem, out)
        if verdict != "ok":
            self.failed.add(index)
            if verdict == "wrong":
                self.wrong.add(index)
            if len(self.notes) < 10:
                self.notes.append(f"op {index} {verdict}: {why}")
        if len(self.op_times) == wl.rss_ops:
            self.rss_at = _peak_rss_mib()

    def run_until(self, seconds: float) -> None:
        """Whole rounds, at least one, until the loop has run ``seconds`` of
        wall time over all its calls."""
        start = time.perf_counter() - self.wall
        while True:
            for _ in range(self.wl.round_ops):
                self.one(self.ops)
            self.round_times.append(
                statistics.fmean(self.op_times[-self.wl.round_ops :])
            )
            self.wall = time.perf_counter() - start
            if self.wall >= seconds:
                return

    @property
    def ops(self) -> int:
        return len(self.op_times)

    @property
    def busy(self) -> float:
        return sum(self.op_times)


def _setup_sample(name: str) -> float:
    """Seconds of one cold set-up, timed in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_sample.py"), name],
        capture_output=True,
        text=True,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def _untraced_run(wl, seed: int, seconds: float):
    """The timed loop in slices, with a cold set-up timed before each.

    The machine's speed wanders over seconds; set-ups timed back to back
    would all land in one slow or fast spell, as the loop's ops do not.
    """
    loop = Loop(wl, seed)
    setups = []
    for k in range(1, SETUP_REPEATS + 1):
        setups.append(_setup_sample(wl.name))
        loop.run_until(seconds * k / SETUP_REPEATS)
    return loop, statistics.median(setups)


def _traced_run(wl, seed: int, seconds: float):
    """Each problem untraced and traced, from cold caches, for ``seconds``.

    The two runs of a problem follow each other, untraced first in even
    rounds and traced first in odd ones, so that drift in the machine's speed
    hits both sides alike.
    """
    import layers
    from workloads import SITES

    tracer = layers.Tracer(SITES)
    plain, traced = Loop(wl, seed), Loop(wl, seed, tracer)
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        order = (plain, traced) if (index // wl.round_ops) % 2 == 0 else (traced, plain)
        for _ in range(wl.round_ops):
            for loop in order:
                layers.clear_caches()
                loop.one(index)
            index += 1
    untraced_rate = plain.ops / plain.busy
    traced_rate = traced.ops / traced.busy
    figures = tracer.metrics(traced.ops) | {
        "trace.untraced_ops_per_s": untraced_rate,
        "trace.traced_ops_per_s": traced_rate,
        "trace.overhead_pct": 100.0 * (untraced_rate / traced_rate - 1.0),
    }
    return (plain, traced), figures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_package()
    import layers
    from workloads import WARMUP, WARMUP_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    wl.op(wl.make(WARMUP_SEED, 0, WARMUP))

    if args.trace:
        loops, figures = _traced_run(wl, args.seed, args.seconds)
        units = dict(layers.LAYER_METRICS)
    else:
        loop, setup_s = _untraced_run(wl, args.seed, args.seconds)
        loops = (loop,)
        figures = {
            "setup_s": setup_s,
            "ops_per_s": loop.ops / loop.busy,
            # Per round, so that certify's double/extended mix has one mode.
            "op_p50_ms": 1000.0 * statistics.median(loop.round_times),
            "peak_rss_mb": loop.rss_at if loop.rss_at is not None else _peak_rss_mib(),
        }
        units = END_TO_END

    # Counted over distinct problems: the traced run does each one twice.
    attempted = loops[0].ops
    failed = set().union(*(lp.failed for lp in loops))
    for lp in loops:
        for note in lp.notes:
            print(note, file=sys.stderr)
    result = {
        "correct": not any(lp.wrong for lp in loops),
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {
            name: {"value": float(figures[name]), "unit": units[name]} for name in units
        },
    }
    label = f"{args.workload}_seed{args.seed}" + ("_trace" if args.trace else "")
    Path(f"BENCH_{label}.json").write_text(
        json.dumps(
            {"workload": args.workload, "seed": args.seed, "seconds": args.seconds}
            | result,
            indent=2,
        )
        + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
