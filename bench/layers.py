"""Per-layer counters and self times for the benchmark's traced run.

Nothing under ``src/`` is edited: ``Tracer.install`` wraps public functions
of the ``segment_bethe`` modules from here and rebinds each wrapper wherever
the original is referenced by name (every module namespace that imported it,
and module-level registries such as ``harness.COMMANDS``).  ``restore`` puts
every original back, so untraced work runs unwrapped.  Cache figures are
counted only while the wrappers are installed.

A timed call is a span; its self time is its duration minus the durations of
the timed calls it made.  Counted calls only bump a counter (they sit in
inner loops, where a timer would cost more than the work), so their time
stays in the enclosing span.
"""

from __future__ import annotations

import functools
import sys
import time

# Functions whose calls are spans: (module, function).
TIMED = {
    "bethe": (
        "solve_bethe",
        "solve_bethe_diagonal",
        "transfer_branch_basis",
        "refine_roots",
    ),
    "double_row": ("transfer_matrix", "double_row", "modified_entries"),
    "linalg": ("embed_two_site",),
    "vectors": (
        "build_psi",
        "build_dual_psi",
        "w_coefficients",
        "w0_scalar",
        "check_offshell_action",
        "check_multiple_actions",
        "check_expansion",
    ),
    "scalar_products": (
        "scalar_product_direct",
        "slavnov_modified",
        "gaudin_korepin_norm",
        "norm_from_slavnov_limit",
    ),
    "params": ("draw_spectral_points",),
    "harness": (
        "run_check_algebra",
        "run_exchange",
        "run_spectrum",
        "run_offshell",
        "run_slavnov",
        "run_norm",
        "run_n1",
    ),
}
COUNTED = {
    "bethe": ("lambda_total", "lambda_total_derivative", "residual_jacobian"),
    "kernels": ("f_product", "h_product", "Q_product"),
}
CACHED = (
    "bulk_monodromy",
    "hat_monodromy",
    "double_row",
    "modified_entries",
    "transfer_matrix",
)

PER_OP = "count/op"
SELF = "s/op"
LAYER_METRICS = (
    [
        ("bethe.solve_bethe.self_s", SELF),
        ("bethe.solve_bethe.calls", PER_OP),
        ("bethe.solve_bethe_diagonal.self_s", SELF),
        ("bethe.transfer_branch_basis.self_s", SELF),
        ("bethe.refine_roots.self_s", SELF),
        ("bethe.refine_roots.calls", PER_OP),
        ("bethe.lambda_total.calls", PER_OP),
        ("bethe.lambda_total_derivative.calls", PER_OP),
        ("bethe.residual_jacobian.calls", PER_OP),
        ("bethe.branches_returned", PER_OP),
        ("double_row.transfer_matrix.self_s", SELF),
        ("double_row.double_row.self_s", SELF),
        ("double_row.modified_entries.self_s", SELF),
    ]
    + [(f"double_row.{f}.{k}", PER_OP) for f in CACHED for k in ("hits", "misses")]
    + [
        ("double_row.cache_mib", "MiB"),
        ("linalg.embed_two_site.calls", PER_OP),
        ("linalg.embed_two_site.self_s", SELF),
        ("vectors.build_psi.calls", PER_OP),
        ("vectors.build_psi.self_s", SELF),
        ("vectors.build_dual_psi.calls", PER_OP),
        ("vectors.build_dual_psi.self_s", SELF),
        ("vectors.w_coefficients.self_s", SELF),
        ("vectors.w0_scalar.calls", PER_OP),
        ("vectors.w0_scalar.self_s", SELF),
        ("vectors.check_offshell_action.self_s", SELF),
        ("vectors.check_multiple_actions.self_s", SELF),
        ("vectors.check_expansion.self_s", SELF),
        ("kernels.f_product.calls", PER_OP),
        ("kernels.h_product.calls", PER_OP),
        ("kernels.Q_product.calls", PER_OP),
        ("scalar_products.scalar_product_direct.calls", PER_OP),
        ("scalar_products.scalar_product_direct.self_s", SELF),
        ("scalar_products.slavnov_modified.double.self_s", SELF),
        ("scalar_products.slavnov_modified.extended.self_s", SELF),
        ("scalar_products.gaudin_korepin_norm.self_s", SELF),
        ("scalar_products.norm_from_slavnov_limit.self_s", SELF),
        ("params.rho.evals", PER_OP),
        ("params.draw_spectral_points.self_s", SELF),
    ]
    + [(f"harness.{f}.self_s", SELF) for f in TIMED["harness"]]
    + [
        ("trace.untraced_ops_per_s", "1/s"),
        ("trace.traced_ops_per_s", "1/s"),
        ("trace.overhead_pct", "%"),
    ]
)

PACKAGE = "segment_bethe"


def _span_name(module: str, func: str, kwargs) -> str:
    if func == "slavnov_modified":
        return f"{module}.{func}.{kwargs.get('precision', 'double')}"
    return f"{module}.{func}"


class Tracer:
    """Installs wrappers around the package's layers and aggregates spans."""

    def __init__(self, sites: int):
        self.sites = sites
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.branches = 0
        self._stack: list[float] = []
        self._undo: list = []
        # The cache objects themselves, before wrappers take their names.
        module = sys.modules[PACKAGE + ".double_row"]
        self._caches = {
            f: c
            for f in CACHED
            if hasattr(c := getattr(module, f, None), "cache_info")
        }
        self._cache_start: dict = {}
        self.cache_counts = {f: {"hits": 0, "misses": 0} for f in self._caches}
        self.held_mib: list[float] = []

    # -- wrappers -----------------------------------------------------------

    def _timed(self, module: str, func: str, orig):
        stack, self_s, calls = self._stack, self.self_s, self.calls

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            name = _span_name(module, func, kwargs)
            start = time.perf_counter()
            stack.append(0.0)
            try:
                out = orig(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self_s[name] = self_s.get(name, 0.0) + elapsed - children
                calls[name] = calls.get(name, 0) + 1
            if func in ("solve_bethe", "solve_bethe_diagonal"):
                self.branches += len(out)
            return out

        return wrapper

    def _counted(self, name: str, orig):
        calls = self.calls

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return orig(*args, **kwargs)

        return wrapper

    # -- install / restore --------------------------------------------------

    def _modules(self):
        return [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def _rebind(self, orig, wrapper) -> None:
        """Point every by-name reference to ``orig`` at ``wrapper``."""
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, wrapper)
                    self._undo.append((setattr, module, attr, orig))
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        if entry is orig:
                            value[key] = wrapper
                            self._undo.append(
                                (dict.__setitem__, value, key, orig)
                            )

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        self._cache_start = {f: c.cache_info() for f, c in self._caches.items()}
        mod = {m.__name__.rsplit(".", 1)[-1]: m for m in self._modules()}
        for module, funcs in TIMED.items():
            for func in funcs:
                orig = getattr(mod[module], func)
                self._rebind(orig, self._timed(module, func, orig))
        for module, funcs in COUNTED.items():
            for func in funcs:
                orig = getattr(mod[module], func)
                self._rebind(orig, self._counted(f"{module}.{func}", orig))

        params_cls = mod["params"].BoundaryParams
        rho = params_cls.__dict__["rho"]
        counted_rho = self._counted("params.rho", rho.fget)
        params_cls.rho = property(counted_rho, doc=rho.__doc__)
        self._undo.append((setattr, params_cls, "rho", rho))

    def restore(self) -> None:
        while self._undo:
            setter, target, key, orig = self._undo.pop()
            setter(target, key, orig)
        for func, cache in self._caches.items():
            now, start = cache.cache_info(), self._cache_start[func]
            for kind, count in self.cache_counts[func].items():
                self.cache_counts[func][kind] = (
                    count + getattr(now, kind) - getattr(start, kind)
                )
        self.held_mib.append(self.cache_mib())

    # -- results ------------------------------------------------------------

    def metrics(self, ops: int) -> dict[str, float]:
        """Every layer metric except the ``trace.*`` overhead figures."""
        per_op = 1.0 / max(ops, 1)
        out: dict[str, float] = {}
        for name, unit in LAYER_METRICS:
            if name.startswith("trace.") or name == "double_row.cache_mib":
                continue
            key, _, kind = name.rpartition(".")
            if unit == SELF:
                out[name] = self.self_s.get(key, 0.0) * per_op
            elif kind in ("calls", "evals"):
                out[name] = self.calls.get(key, 0) * per_op
            elif kind in ("hits", "misses"):
                counts = self.cache_counts.get(key.split(".")[1])
                out[name] = counts[kind] * per_op if counts else 0.0
        out["bethe.branches_returned"] = self.branches * per_op
        out["double_row.cache_mib"] = (
            sum(self.held_mib) / len(self.held_mib) if self.held_mib else 0.0
        )
        return out

    def cache_mib(self) -> float:
        """Entries held by the operator caches times one entry's bytes.

        A monodromy or a set of four entries holds ``(2^(N+1))^2`` complex
        doubles, a transfer matrix ``(2^N)^2``.
        """
        big = 16 * 4 ** (self.sites + 1)
        held = 0
        for func, cache in self._caches.items():
            size = big if func != "transfer_matrix" else big // 4
            held += cache.cache_info().currsize * size
        return held / 2**20


def clear_caches() -> None:
    """Empty the operator caches, so a re-run of the same ops starts cold."""
    module = sys.modules[PACKAGE + ".double_row"]
    for func in CACHED:
        cache = getattr(module, func, None)
        if hasattr(cache, "cache_clear"):
            cache.cache_clear()
