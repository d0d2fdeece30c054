"""The benchmark's by-name contract with the package.

``bench/layers.py`` traces the package by rebinding functions it names as
``(module, function)`` pairs and reads the statistics of the builders it
names in ``CACHED`` that expose ``cache_info``.  A refactor that renames or unwraps one of
them breaks ``bench/run.py --trace 1`` without failing any package test;
these tests catch that here, and run one traced op as ``--trace 1`` does.
"""

import importlib
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import workloads  # noqa: E402

PACKAGE = "segment_bethe"
CACHED_BUILDERS = ("double_row", "modified_entries", "transfer_matrix")


def _traced_names():
    for table in (layers.TIMED, layers.COUNTED):
        for module, funcs in table.items():
            for func in funcs:
                yield module, func


@pytest.mark.parametrize("module, func", sorted(set(_traced_names())))
def test_traced_names_resolve(module, func):
    target = getattr(importlib.import_module(f"{PACKAGE}.{module}"), func, None)
    assert callable(target), f"{module}.{func}"


@pytest.mark.parametrize("func", CACHED_BUILDERS)
def test_cached_builders_expose_cache_info(func, cs2, bp, rng):
    # The tracer reads ``cache_info`` of exactly the builders that expose it
    # (the one-point reads are uncached, so it reads none) and still times each
    # as a span: one traced call gives a positive self time and finite
    # hit/miss figures.
    from segment_bethe.params import draw_spectral_point

    assert func in layers.CACHED and func in layers.TIMED["double_row"]
    builder = getattr(importlib.import_module(f"{PACKAGE}.double_row"), func)
    tracer = layers.Tracer(2)
    assert (func in tracer._caches) == hasattr(builder, "cache_info")
    u = draw_spectral_point(rng, cs=cs2, bp=bp)
    tracer.install()
    try:
        traced = getattr(importlib.import_module(f"{PACKAGE}.double_row"), func)
        assert traced is not builder
        traced(u, cs2, bp)
    finally:
        tracer.restore()
    assert getattr(importlib.import_module(f"{PACKAGE}.double_row"), func) is builder
    figures = tracer.metrics(1)
    assert figures[f"double_row.{func}.self_s"] > 0
    for kind in ("hits", "misses"):
        assert math.isfinite(figures[f"double_row.{func}.{kind}"])


def test_traced_certify_op_fills_every_layer_metric():
    # One certify-n2 op under the tracer, as ``bench/run.py --trace 1`` runs
    # it: every layer metric must come out a finite number.
    wl = workloads.WORKLOADS["certify-n2"]
    problem = wl.make(1, 0)
    tracer = layers.Tracer(2)
    tracer.install()
    try:
        report = wl.op(problem)
    finally:
        tracer.restore()
    assert wl.check(problem, report) == ("ok", "")
    figures = tracer.metrics(1)
    names = [name for name, _ in layers.LAYER_METRICS if not name.startswith("trace.")]
    assert sorted(figures) == sorted(names)
    assert all(math.isfinite(figures[name]) for name in names)
    assert figures["harness.run_offshell.self_s"] > 0


def _bindings():
    """Every module attribute and module-level dict entry of the package."""
    out = {}
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, dict):
                for key, entry in value.items():
                    out[(name, attr, key)] = entry
    return out


def test_tracer_install_and_restore_leave_originals():
    assert workloads.WORKLOADS
    params = importlib.import_module(f"{PACKAGE}.params")
    before = _bindings()
    rho = params.BoundaryParams.__dict__["rho"]
    tracer = layers.Tracer(sites=2)
    tracer.install()
    try:
        rebound = [key for key, value in _bindings().items() if before[key] is not value]
        assert rebound, "the tracer rebound nothing"
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert params.BoundaryParams.__dict__["rho"] is rho


@pytest.mark.parametrize("name, count", [("spectrum-n2", 20), ("certify-n2", 2)])
def test_workload_ops_pass_the_benchmark_checks(name, count):
    # The benchmark's own make, op and check functions: a solver change the
    # benchmark would judge "wrong" or "failed" fails here.  The certify ops
    # alternate double and extended precision, so two cover both.
    wl = workloads.WORKLOADS[name]
    for index in range(count):
        problem = wl.make(1, index)
        verdict, why = wl.check(problem, wl.op(problem))
        assert verdict == "ok", f"{name} op {index}: {verdict}: {why}"
