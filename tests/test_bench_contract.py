"""The benchmark's by-name contract with the package.

``bench/layers.py`` traces the package by rebinding functions it names as
``(module, function)`` pairs and reads the operator caches' statistics.  A
refactor that renames or unwraps one of them breaks ``bench/run.py --trace 1``
without failing any package test; these tests catch that here.
"""

import importlib
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
def test_cached_builders_expose_cache_info(func):
    builder = getattr(importlib.import_module(f"{PACKAGE}.double_row"), func)
    assert hasattr(builder, "cache_info") and hasattr(builder, "cache_clear")


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
