"""Outside-in layer tracer for the benchmark's traced passes.

Each layer is a set of the package's public functions.  :class:`Tracer`
replaces every binding of those functions -- the defining module and
every loaded ``repro.*`` module that imported the name -- with a
wrapper that keeps a per-thread span stack, so a layer's self time is
its span time minus the time of the spans it caused.  Unit counts
(instructions, edges, spills, expansions ...) are read from the
wrapped call's arguments and results.  Nothing under ``src/`` changes;
:meth:`Tracer.uninstall` puts every original binding back.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Every layer the tracer times, in report order.
LAYERS: Tuple[str, ...] = (
    "frontend",
    "analysis",
    "core.weights",
    "core.scheduler",
    "regalloc",
    "core.optimal",
    "simulate.batch",
    "simulate.scalar",
    "simulate.stats",
    "verify",
    "service.render",
    "service.engine",
)


class LayerStats:
    """What one layer accumulated during a pass."""

    __slots__ = ("calls", "self_s", "units")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.units: Dict[str, float] = defaultdict(float)


def _program_insns(program) -> int:
    return sum(len(b.instructions) for b in program.all_blocks())


class Patches:
    """Attribute replacements that :meth:`uninstall` reverts."""

    def __init__(self) -> None:
        self._patches: List[Tuple[object, str, object]] = []

    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def patch_function(self, module_name: str, name: str, replacement) -> None:
        """Rebind ``module.name`` everywhere it was imported under
        ``repro``, so callers that bound the name at import see it too."""
        original = getattr(sys.modules[module_name], name)
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()


class Tracer(Patches):
    """Per-thread span stacks plus per-layer totals for one pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        super().__init__()
        self.clock = clock
        self.layers: Dict[str, LayerStats] = defaultdict(LayerStats)
        self.memo_lookups = 0
        self.memo_hits = 0
        self.cache_lookups = 0
        self.cache_hits = 0
        self.handler_s = 0.0
        self.batcher_wait_s = 0.0
        self.batcher_submitted = 0
        self.batcher_coalesced = 0
        self._batch_started: Dict[int, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn: Callable, units=None) -> Callable:
        """``fn`` timed as a span of ``layer``.  A call made from inside
        a span of the same layer is passed straight through, so calls
        and units count outermost entries only."""
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = tracer.clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                with tracer._lock:
                    stats = tracer.layers[layer]
                    stats.calls += 1
                    stats.self_s += elapsed - frame[1]
            if units is not None:
                counted = units(args, kwargs, result)
                with tracer._lock:
                    for key, value in counted.items():
                        stats.units[key] += value
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def trace_function(self, layer: str, module_name: str, name: str,
                       units=None) -> None:
        original = getattr(sys.modules[module_name], name)
        self.patch_function(
            module_name, name, self.wrap(layer, original, units)
        )

    def trace_method(self, layer: str, cls, name: str, units=None) -> None:
        self._set(cls, name, self.wrap(layer, cls.__dict__[name], units))

    # ------------------------------------------------------------------
    # The layer map
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer's public entry points (import them first)."""
        import importlib

        for name in (
            "repro.frontend.lowering", "repro.analysis.dependence",
            "repro.core.policy", "repro.core.pipeline",
            "repro.core.scheduler", "repro.core.optimal",
            "repro.regalloc.linear_scan", "repro.regalloc.chaitin",
            "repro.simulate.batch", "repro.simulate.simulator",
            "repro.simulate.stats", "repro.simulate.program",
            "repro.verify.oracle", "repro.experiments.common",
            "repro.experiments.cache", "repro.experiments.optimalgap",
            "repro.experiments.runner", "repro.service.server",
            "repro.service.batcher",
        ):
            importlib.import_module(name)
        modules = sys.modules

        self.trace_function(
            "frontend", "repro.frontend.lowering", "compile_minif",
            lambda a, k, r: {"insns": _program_insns(r)},
        )
        self.trace_function(
            "analysis", "repro.analysis.dependence", "build_dag",
            lambda a, k, r: {"insns": len(r), "edges": r.edge_count()},
        )
        policy_base = modules["repro.core.policy"].SchedulingPolicy
        for cls in _subclasses(policy_base):
            if "assign_weights" in cls.__dict__:
                self.trace_method(
                    "core.weights", cls, "assign_weights",
                    lambda a, k, r: {"loads": len(a[1].load_nodes())},
                )
        self.trace_method(
            "core.scheduler", modules["repro.core.scheduler"].ListScheduler,
            "schedule", lambda a, k, r: {"insns": len(a[1])},
        )
        for module_name, cls_name in (
            ("repro.regalloc.linear_scan", "LinearScanAllocator"),
            ("repro.regalloc.chaitin", "ChaitinAllocator"),
        ):
            self.trace_method(
                "regalloc", getattr(modules[module_name], cls_name),
                "allocate",
                lambda a, k, r: {
                    "insns": len(a[1].instructions),
                    "spills": r.spill_instruction_count,
                },
            )
        self.trace_function(
            "core.optimal", "repro.core.optimal", "optimize_order",
            lambda a, k, r: {
                "expanded": r.expanded, "certified": int(r.certified),
            },
        )
        self.trace_function(
            "simulate.batch", "repro.simulate.batch", "simulate_block_batch",
            lambda a, k, r: {"sim_insns": r.instructions * len(r.cycles)},
        )
        self.trace_function(
            "simulate.scalar", "repro.simulate.simulator", "simulate_block",
            lambda a, k, r: {"sim_insns": r.instructions},
        )
        self.trace_function(
            "simulate.stats", "repro.simulate.stats",
            "program_bootstrap_runtimes",
        )
        for name in ("check_compiled", "check_schedule",
                     "check_delaytrack_issue"):
            self.trace_function(
                "verify", "repro.verify.oracle", name,
                lambda a, k, r: {"violations": len(r)},
            )
        runner = modules["repro.experiments.runner"]
        for name in ("render_compile", "render_schedule", "render_explain"):
            self.trace_function("service.render", runner.__name__, name)
        self.trace_function(
            "service.render", "repro.service.schema", "cell_payload"
        )
        server = modules["repro.service.server"].SchedulingService
        self.trace_method("service.engine", server, "_evaluate_batch_sync")
        self._install_counters(modules)

    def _install_counters(self, modules) -> None:
        tracer = self
        memo_cls = modules["repro.experiments.common"].CompilationCache
        memo_get = memo_cls.get_or_compile

        def get_or_compile(memo, program, policy_key, factory):
            before = len(memo)
            result = memo_get(memo, program, policy_key, factory)
            with tracer._lock:
                tracer.memo_lookups += 1
                tracer.memo_hits += len(memo) == before
            return result

        self._set(memo_cls, "get_or_compile", get_or_compile)

        cache_cls = modules["repro.experiments.cache"].ResultCache
        cache_get = cache_cls.get

        def get(cache, spec):
            result = cache_get(cache, spec)
            with tracer._lock:
                tracer.cache_lookups += 1
                tracer.cache_hits += result is not None
            return result

        self._set(cache_cls, "get", get)

        # The daemon's coroutines interleave on one loop thread, so they
        # are timed directly rather than through the span stacks.
        server_cls = modules["repro.service.server"].SchedulingService
        timed = server_cls._timed

        async def _timed(service, kind, handler, ctx=None):
            start = tracer.clock()
            try:
                return await timed(service, kind, handler, ctx=ctx)
            finally:
                with tracer._lock:
                    tracer.handler_s += tracer.clock() - start

        self._set(server_cls, "_timed", _timed)

        batcher_cls = modules["repro.service.batcher"].SimulationBatcher
        submit = batcher_cls.submit
        run_batch = batcher_cls._run_batch

        async def submit_traced(batcher, spec, deadline_s=None):
            start = tracer.clock()
            try:
                return await submit(batcher, spec, deadline_s)
            finally:
                with tracer._lock:
                    tracer.batcher_submitted += 1
                    flushed = tracer._batch_started.pop(id(spec), None)
                    if flushed is not None:
                        tracer.batcher_wait_s += flushed - start

        async def run_batch_traced(batcher, batch):
            now = tracer.clock()
            with tracer._lock:
                tracer.batcher_coalesced += (
                    len(batch) - len({pending.key for pending in batch})
                )
                for pending in batch:
                    tracer._batch_started[id(pending.spec)] = now
            return await run_batch(batcher, batch)

        self._set(batcher_cls, "submit", submit_traced)
        self._set(batcher_cls, "_run_batch", run_batch_traced)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-data totals for one pass (JSON-safe)."""
        with self._lock:
            return {
                "layers": {
                    name: {
                        "calls": stats.calls,
                        "self_s": stats.self_s,
                        "units": dict(stats.units),
                    }
                    for name, stats in self.layers.items()
                },
                "memo": [self.memo_hits, self.memo_lookups],
                "cache": [self.cache_hits, self.cache_lookups],
                "handler_s": self.handler_s,
                "batcher_wait_s": self.batcher_wait_s,
                "batcher_submitted": self.batcher_submitted,
                "batcher_coalesced": self.batcher_coalesced,
            }


def _subclasses(cls) -> list:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


# ----------------------------------------------------------------------
# Per-layer metrics from one traced pass
# ----------------------------------------------------------------------
#: (metric, unit, better) for every per-layer metric, in report order.
PER_LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("frontend.calls", "count", "lower"),
    ("frontend.self_s", "s", "lower"),
    ("frontend.insns_per_s", "1/s", "higher"),
    ("analysis.calls", "count", "lower"),
    ("analysis.self_s", "s", "lower"),
    ("analysis.insns_per_s", "1/s", "higher"),
    ("analysis.edges", "count", "lower"),
    ("core.weights.calls", "count", "lower"),
    ("core.weights.self_s", "s", "lower"),
    ("core.weights.loads_per_s", "1/s", "higher"),
    ("core.scheduler.calls", "count", "lower"),
    ("core.scheduler.self_s", "s", "lower"),
    ("core.scheduler.insns_per_s", "1/s", "higher"),
    ("regalloc.calls", "count", "lower"),
    ("regalloc.self_s", "s", "lower"),
    ("regalloc.insns_per_s", "1/s", "higher"),
    ("regalloc.spills", "count", "lower"),
    ("core.optimal.calls", "count", "lower"),
    ("core.optimal.self_s", "s", "lower"),
    ("core.optimal.expanded", "count", "lower"),
    ("core.optimal.expanded_per_s", "1/s", "higher"),
    ("core.optimal.certified_ratio", "ratio", "higher"),
    ("simulate.batch.calls", "count", "lower"),
    ("simulate.batch.self_s", "s", "lower"),
    ("simulate.batch.sim_insns_per_s", "1/s", "higher"),
    ("simulate.scalar.calls", "count", "lower"),
    ("simulate.scalar.self_s", "s", "lower"),
    ("simulate.scalar.sim_insns_per_s", "1/s", "higher"),
    ("simulate.stats.calls", "count", "lower"),
    ("simulate.stats.self_s", "s", "lower"),
    ("verify.calls", "count", "lower"),
    ("verify.self_s", "s", "lower"),
    ("verify.violations", "count", "lower"),
    ("experiments.compile_memo_hit_ratio", "ratio", "higher"),
    ("experiments.result_cache_hit_ratio", "ratio", "higher"),
    ("service.http.self_s", "s", "lower"),
    ("service.batcher.wait_s", "s", "lower"),
    ("service.batcher.coalesced_ratio", "ratio", "higher"),
    ("service.batcher.rejected", "count", "lower"),
    ("service.render.self_s", "s", "lower"),
    ("service.engine.self_s", "s", "lower"),
    ("trace.covered_ratio", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("other.self_s", "s", "lower"),
)

#: Rate metrics: metric -> the unit count divided by the layer's self time.
_RATES = {
    "frontend.insns_per_s": "insns",
    "analysis.insns_per_s": "insns",
    "core.weights.loads_per_s": "loads",
    "core.scheduler.insns_per_s": "insns",
    "regalloc.insns_per_s": "insns",
    "core.optimal.expanded_per_s": "expanded",
    "simulate.batch.sim_insns_per_s": "sim_insns",
    "simulate.scalar.sim_insns_per_s": "sim_insns",
}
#: Count metrics: metric -> the unit count summed over the layer's calls.
_COUNTS = {
    "analysis.edges": "edges",
    "regalloc.spills": "spills",
    "core.optimal.expanded": "expanded",
    "verify.violations": "violations",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(snapshot: dict, busy_s: float, service: Optional[dict],
                  overhead_ratio: float) -> Dict[str, float]:
    """Every per-layer metric of one traced pass.

    ``busy_s`` is the time the layers can account for: the pass wall
    time, or for ``serve`` the summed client latency.  ``service``
    carries the client-side figures of a ``serve`` pass (summed
    latency, rejected and coalesced counts), ``None`` elsewhere.
    """
    layers = snapshot["layers"]

    def stat(layer: str) -> dict:
        return layers.get(layer, {"calls": 0, "self_s": 0.0, "units": {}})

    out: Dict[str, float] = {}
    for layer in LAYERS:
        st = stat(layer)
        out[f"{layer}.calls"] = st["calls"]
        out[f"{layer}.self_s"] = st["self_s"]
    for metric, unit in _RATES.items():
        layer = metric.rsplit(".", 1)[0]
        st = stat(layer)
        out[metric] = _ratio(st["units"].get(unit, 0.0), st["self_s"])
    for metric, unit in _COUNTS.items():
        layer = metric.rsplit(".", 1)[0]
        out[metric] = stat(layer)["units"].get(unit, 0.0)
    optimal = stat("core.optimal")
    out["core.optimal.certified_ratio"] = _ratio(
        optimal["units"].get("certified", 0.0), optimal["calls"]
    )
    out["experiments.compile_memo_hit_ratio"] = _ratio(*snapshot["memo"])
    out["experiments.result_cache_hit_ratio"] = _ratio(*snapshot["cache"])
    covered = sum(stat(layer)["self_s"] for layer in LAYERS)
    if service is not None:
        http = max(0.0, service["latency_s"] - snapshot["handler_s"])
        out["service.http.self_s"] = http
        out["service.batcher.wait_s"] = snapshot["batcher_wait_s"]
        out["service.batcher.coalesced_ratio"] = _ratio(
            snapshot["batcher_coalesced"], snapshot["batcher_submitted"]
        )
        out["service.batcher.rejected"] = service["rejected"]
        covered += http + snapshot["batcher_wait_s"]
    else:
        for metric in ("service.http.self_s", "service.batcher.wait_s",
                       "service.batcher.coalesced_ratio",
                       "service.batcher.rejected"):
            out[metric] = 0.0
    out["trace.covered_ratio"] = _ratio(covered, busy_s)
    out["trace.overhead_ratio"] = overhead_ratio
    out["other.self_s"] = max(0.0, busy_s - covered)
    return {name: out[name] for name, _unit, _better in PER_LAYER_METRICS}
