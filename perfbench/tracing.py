"""In-memory span tracer for the traced benchmark run.

The tracer measures each layer from outside the program:

* ``Simulator.dispatch_hook`` (a public attribute) stamps
  ``perf_counter_ns`` before every event and charges the interval up to
  the next event to the layer owning the event's handler (its module).
* Public entry points of each layer are wrapped, *only in the traced
  process*, so nested calls (a gateway handler sending on the network,
  which samples a latency, which schedules an event) open child spans.

A span's self time is its duration minus the time its child spans
cover.  Spans are kept as per-layer totals in memory; nothing is
written until a worker process hands its totals back (see
:meth:`SpanTracer.ship`).  Forked worker processes inherit the patched
classes, reset their copy of the totals on first use, and write them
to a file in the run's work directory when their unit of work ends.
"""

from __future__ import annotations

import functools
import glob
import importlib
import inspect
import json
import os
from collections import defaultdict
from time import perf_counter_ns
from typing import Callable, Dict, List, Tuple

#: Handler-module prefix -> layer name (first match wins).
LAYER_OF_MODULE: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.engine", "sim.engine"),
    ("repro.sim.network", "sim.network"),
    ("repro.sim.latency", "sim.latency"),
    ("repro.sim.rng", "sim.latency"),
    ("repro.sim.parallel", "sim.parallel"),
    ("repro.clocksync", "clocksync"),
    ("repro.traders", "traders"),
    ("repro.core.gateway", "core.gateway"),
    ("repro.core.participant", "core.participant"),
    ("repro.core.sequencer", "fairness"),
    ("repro.core.holdrelease", "fairness"),
    ("repro.core.ddp", "fairness"),
    ("repro.fairness", "fairness"),
    ("repro.core.exchange", "core.exchange"),
    ("repro.core.matching", "core.matching"),
    ("repro.core.book", "core.matching"),
    ("repro.core.portfolio", "core.portfolio"),
    ("repro.storage", "storage"),
    ("repro.core.shardrun", "core.shardrun"),
    ("repro.exp", "exp.pool"),
)

#: Layers whose self time the benchmark reports.  Time charged to any
#: other module counts as unattributed.
LAYERS: Tuple[str, ...] = (
    "sim.engine", "sim.network", "sim.latency", "clocksync", "traders",
    "core.gateway", "core.participant", "fairness", "core.exchange",
    "core.matching", "core.portfolio", "storage", "core.shardrun",
    "sim.parallel", "exp.pool", "exp.cache.key", "exp.cache.get", "exp.cache.put",
)

#: Public entry points wrapped in the traced process:
#: (module, class, method names, layer).  A class given as ``"*"``
#: means every class of the module that defines the method itself.
ENTRY_POINTS: Tuple[Tuple[str, str, Tuple[str, ...], str], ...] = (
    ("repro.sim.engine", "Simulator",
     ("schedule_at", "schedule_message", "schedule_message_bulk"), "sim.engine"),
    ("repro.sim.network", "Network", ("send", "send_many"), "sim.network"),
    ("repro.sim.network", "Host", ("deliver",), "sim.network"),
    ("repro.sim.latency", "*", ("sample",), "sim.latency"),
    ("repro.core.gateway", "Gateway", ("on_message",), "core.gateway"),
    ("repro.core.participant", "Participant", ("on_message",), "core.participant"),
    ("repro.core.exchange", "CentralExchangeServer", ("on_message",), "core.exchange"),
    ("repro.core.sequencer", "*", ("enqueue", "pop_eligible"), "fairness"),
    ("repro.core.holdrelease", "*", ("offer",), "fairness"),
    ("repro.fairness.dbo", "*", ("enqueue", "pop_eligible", "offer"), "fairness"),
    ("repro.fairness.noop", "*", ("enqueue", "pop_eligible", "offer"), "fairness"),
    ("repro.fairness.pfo", "*", ("enqueue", "pop_eligible", "offer"), "fairness"),
    ("repro.core.matching", "MatchingEngineCore",
     ("process_order", "process_cancel", "process_batch"), "core.matching"),
    ("repro.core.portfolio", "PortfolioMatrix", ("apply_trade",), "core.portfolio"),
    ("repro.storage.bigtable", "Bigtable", ("write",), "storage"),
    ("repro.traders.workload", "BulkOrderStream", ("take_until",), "traders"),
    ("repro.exp.cache", "ResultCache", ("key_for",), "exp.cache.key"),
    ("repro.exp.cache", "ResultCache", ("get",), "exp.cache.get"),
    ("repro.exp.cache", "ResultCache", ("put",), "exp.cache.put"),
)


class SpanTracer:
    """Per-layer self-time and call-count totals for one process."""

    def __init__(self, work_dir: str) -> None:
        self.work_dir = work_dir
        self.parent_pid = os.getpid()
        self._layer_cache: Dict[object, str] = {}
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.started_ns = perf_counter_ns()
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.window_busy_ns: Dict[int, int] = defaultdict(int)
        self.window_wall_ns: Dict[int, int] = {}
        self.restarts = 0
        # Frames: [layer, start_ns, child_ns, is_event_root]
        self._stack: List[list] = []
        self._root_layer = ""
        self._shipped = 0

    # ------------------------------------------------------------------
    # Span accounting
    # ------------------------------------------------------------------
    def check_pid(self) -> None:
        """Start afresh on first use inside a forked worker process."""
        if os.getpid() != self.pid:
            self._reset()

    def _enter(self, layer: str, root: bool = False) -> None:
        self._stack.append([layer, perf_counter_ns(), 0, root])

    def _exit(self) -> int:
        end = perf_counter_ns()
        layer, start, child, _ = self._stack.pop()
        duration = end - start
        self.self_ns[layer] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def _close_root(self) -> None:
        if self._stack and self._stack[-1][3]:
            self._exit()
            self._root_layer = ""

    def layer_of(self, fn) -> str:
        func = getattr(fn, "__func__", fn)
        layer = self._layer_cache.get(func)
        if layer is None:
            module = getattr(func, "__module__", None) or ""
            layer = "sim.engine" if not module else "other"
            for prefix, name in LAYER_OF_MODULE:
                if module.startswith(prefix):
                    layer = name
                    break
            self._layer_cache[func] = layer
        return layer

    def dispatch_hook(self, event) -> None:
        """Installed as ``Simulator.dispatch_hook``: one root span per event."""
        self.check_pid()
        self._close_root()
        layer = self.layer_of(event.fn)
        self.calls[f"events:{layer}"] += 1
        self._root_layer = layer
        self._enter(layer, root=True)

    def wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.check_pid()
            calls = tracer.calls
            calls[name] += 1
            stack = tracer._stack
            if not stack or stack[-1][0] != layer:
                # Outermost call into this layer (composites nest).
                calls[f"top:{layer}"] += 1
                if tracer._root_layer:
                    calls[f"top:{layer}@{tracer._root_layer}"] += 1
            tracer._enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()

        return traced

    # ------------------------------------------------------------------
    # Snapshots and worker hand-back
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, int]]:
        return {"self_ns": dict(self.self_ns), "calls": dict(self.calls)}

    def ship(self) -> None:
        """In a forked worker: write the totals gathered since the last
        hand-back to the work directory and start afresh."""
        if os.getpid() == self.parent_pid:
            return
        self._shipped += 1
        payload = {
            "pid": os.getpid(),
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "busy_ns": perf_counter_ns() - self.started_ns,
            "window_busy_ns": {str(k): v for k, v in self.window_busy_ns.items()},
        }
        path = os.path.join(self.work_dir, f"spans-{os.getpid()}-{self._shipped}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        self.self_ns.clear()
        self.calls.clear()
        self.window_busy_ns.clear()
        self.started_ns = perf_counter_ns()

    def collect_shipped(self) -> List[dict]:
        """Read and remove every worker hand-back file."""
        shipped = []
        for path in sorted(glob.glob(os.path.join(self.work_dir, "spans-*.json"))):
            with open(path, "r", encoding="utf-8") as fh:
                shipped.append(json.load(fh))
            os.unlink(path)
        return shipped


def _classes_defining(module, name: str) -> List[type]:
    found = []
    for _, cls in inspect.getmembers(module, inspect.isclass):
        if cls.__module__ == module.__name__ and name in cls.__dict__:
            found.append(cls)
    return found


def install(tracer: SpanTracer) -> List[str]:
    """Patch every entry point for ``tracer``; returns the wrapped names.

    Must run before the program builds the objects it traces, because
    some of them pre-bind methods at construction.  Entry points the
    program no longer has are skipped, so the traced run degrades to
    coarser spans instead of failing.
    """
    wrapped: List[str] = []
    for module_name, cls_name, attrs, layer in ENTRY_POINTS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        for attr in attrs:
            if cls_name == "*":
                owners = _classes_defining(module, attr)
            else:
                owner = getattr(module, cls_name, None)
                owners = [owner] if owner is not None else []
            for owner in owners:
                original = owner.__dict__.get(attr)
                if original is not None:
                    name = f"{owner.__name__}.{attr}"
                    setattr(owner, attr, tracer.wrap(original, layer, name))
                    wrapped.append(name)

    # Every Simulator gets the dispatch hook, including the ones worker
    # processes build; run() closes the last event's root span.
    from repro.sim import engine

    sim_cls = engine.Simulator
    original_init = sim_cls.__init__
    original_run = sim_cls.run

    @functools.wraps(original_init)
    def init_with_hook(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        self.dispatch_hook = tracer.dispatch_hook

    @functools.wraps(original_run)
    def traced_run(self, *args, **kwargs):
        tracer.check_pid()
        tracer.calls["Simulator.run"] += 1
        tracer._enter("sim.engine")
        try:
            return original_run(self, *args, **kwargs)
        finally:
            tracer._close_root()
            tracer._exit()

    sim_cls.__init__ = init_with_hook
    sim_cls.run = traced_run
    wrapped += ["Simulator.dispatch_hook", "Simulator.run"]

    _install_shardrun(tracer, wrapped)
    _install_exp(tracer, wrapped)
    return wrapped


def _install_shardrun(tracer: SpanTracer, wrapped: List[str]) -> None:
    try:
        from repro.core import shardrun
        from repro.sim import parallel
    except ImportError:
        return
    program = getattr(shardrun, "ShardProgram", None)
    if program is not None and "run_window" in program.__dict__:
        run_window = program.run_window

        @functools.wraps(run_window)
        def traced_window(self, index, *args, **kwargs):
            tracer.check_pid()
            tracer.calls["ShardProgram.run_window"] += 1
            tracer._enter("core.shardrun")
            try:
                return run_window(self, index, *args, **kwargs)
            finally:
                tracer.window_busy_ns[index] += tracer._exit()

        program.run_window = traced_window
        wrapped.append("ShardProgram.run_window")
        finish = program.__dict__.get("finish")
        if finish is not None:

            @functools.wraps(finish)
            def finish_and_ship(self, *args, **kwargs):
                result = finish(self, *args, **kwargs)
                tracer.ship()
                return result

            program.finish = finish_and_ship

    runner = getattr(parallel, "ConservativeShardRunner", None)
    if runner is not None and "window" in runner.__dict__:
        window = runner.window

        @functools.wraps(window)
        def traced_barrier(self, index, *args, **kwargs):
            tracer.calls["ConservativeShardRunner.window"] += 1
            tracer._enter("sim.parallel")
            try:
                return window(self, index, *args, **kwargs)
            finally:
                tracer.window_wall_ns[index] = tracer._exit()

        runner.window = traced_barrier
        wrapped.append("ConservativeShardRunner.window")
        close = runner.__dict__.get("close")
        if close is not None:

            @functools.wraps(close)
            def close_and_count(self, *args, **kwargs):
                if not getattr(self, "_perfbench_counted", False):
                    self._perfbench_counted = True
                    tracer.restarts += getattr(self, "restarts", 0)
                return close(self, *args, **kwargs)

            runner.close = close_and_count


def _install_exp(tracer: SpanTracer, wrapped: List[str]) -> None:
    try:
        from repro.core import cluster
        from repro.exp import cache, runner
    except ImportError:
        return
    # code_version_hash is imported by name into the runner; patch both.
    if hasattr(cache, "code_version_hash"):
        traced_hash = tracer.wrap(cache.code_version_hash, "exp.cache.key", "code_version_hash")
        cache.code_version_hash = traced_hash
        if hasattr(runner, "code_version_hash"):
            runner.code_version_hash = traced_hash
        wrapped.append("code_version_hash")
    if hasattr(runner, "run_parallel"):
        runner.run_parallel = tracer.wrap(runner.run_parallel, "exp.pool", "run_parallel")
        wrapped.append("run_parallel")
    # A sweep cell ends in result_payload(); a forked pool worker hands
    # its spans back there.
    cluster_cls = getattr(cluster, "CloudExCluster", None)
    payload = cluster_cls.__dict__.get("result_payload") if cluster_cls else None
    if payload is not None:

        @functools.wraps(payload)
        def payload_and_ship(self, *args, **kwargs):
            result = payload(self, *args, **kwargs)
            tracer.ship()
            return result

        cluster_cls.result_payload = payload_and_ship
