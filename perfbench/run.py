"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cluster_table1 --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` first runs
the workload untraced (counts, baseline wall time) and then traced
(per-layer self times), and prints the per-layer metrics.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every correctness check passed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

import hostref
from hostref import REF_S, SHARE, time_reference

ROOT = Path(__file__).resolve().parents[1]

#: Self-time layers reported as ``<layer>.self_s``.
SELF_TIME_LAYERS = (
    "sim.engine", "sim.network", "sim.latency", "clocksync", "traders",
    "core.gateway", "core.participant", "fairness", "core.exchange",
    "core.matching", "core.portfolio", "storage", "core.shardrun",
)


def declared_metrics(kind: str) -> List[Tuple[str, str]]:
    """(name, unit) of every ``end_to_end`` or ``per_layer`` metric
    declared in BENCHMARK.json, the one list of what a run prints."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(metric["name"], metric["unit"]) for metric in spec[kind]]


def _import_program():
    """Put the checkout's sources first on the path and import them.

    Fails loudly when the checkout holds no program, so a run outside a
    full checkout can never print a result.
    """
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}")
    if Path(repro.__file__).resolve().parent != (ROOT / "src" / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not from this checkout")


def run_reps(workload, seconds: float, tracer=None) -> list:
    """Whole rounds back to back until the next would overrun ``seconds``.

    The traced pass repeats variant 0 only: its per-layer times are
    compared with the untraced variant-0 reps.
    """
    reps = []
    width = 1 if tracer is not None else workload.variants
    started = perf_counter()
    while True:
        round_start = perf_counter()
        for variant in range(width):
            gc.collect()  # keep the previous rep's garbage out of this one
            loops = max(1, round(SHARE * (reps[-1].cells_s if reps else 0.0) / REF_S))
            ref_s = time_reference(loops)
            rep = workload.rep(variant, tracer)
            rep.ref_s = ref_s
            reps.append(rep)
        now = perf_counter()
        if now - started + (now - round_start) > seconds:
            return reps


def rounds_of(workload, reps: list) -> List[list]:
    k = workload.variants
    return [reps[i:i + k] for i in range(0, len(reps), k)]


def run_digest(workload, reps: list) -> str:
    from workloads import digest_of

    first = rounds_of(workload, reps)[0]
    return first[0].digest if len(first) == 1 else digest_of([r.digest for r in first])


def peak_rss_mb() -> float:
    """Peak RSS of this process, less the host-reference pool, plus that
    of its largest worker, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - hostref.pool_rss_kib
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def ref_loop_s(reps: list) -> float:
    """Median host reference-loop time over every loop timed in ``reps``."""
    return statistics.median(t for r in reps for t in r.ref_s)


def wall_rate(reps: list) -> float:
    return sum(r.orders for r in reps) / sum(r.work_s for r in reps)


def end_to_end(workload, reps: list) -> Dict[str, Tuple[float, int]]:
    """Every end-to-end metric as (value, sample count).

    Host rates are totals over every rep of the run and, like
    ``setup_s`` (the median over reps), are scaled to the reference
    host speed: the host's speed drifts over minutes, which the
    reference loop timed before each rep tracks.  Simulated latencies
    pool the first round's samples.
    """
    from workloads import pooled_sim

    rounds = rounds_of(workload, reps)
    slowness = ref_loop_s(reps) / REF_S  # > 1: the host ran slower than the reference
    metrics = {
        "orders_per_s": (wall_rate(reps) * slowness, len(rounds)),
        "cells_per_s": (sum(r.cells for r in reps) / sum(r.cells_s for r in reps) * slowness, len(rounds)),
        "setup_s": (statistics.median(r.setup_s for r in reps) / slowness, len(reps)),
        "peak_rss_mb": (peak_rss_mb(), 1),
    }
    metrics.update(pooled_sim(rounds[0]))
    return metrics


def layer_times(rep, jobs: int) -> Dict[str, float]:
    """Per-layer times of one traced rep (parent plus shipped workers)."""
    from tracing import LAYERS

    spans = rep.spans
    self_ns = Counter(spans["self_ns"])
    calls = Counter(spans["calls"])
    for worker in spans["shipped"]:
        self_ns.update(worker["self_ns"])
        calls.update(worker["calls"])
    out = {f"{layer}.self_s": self_ns[layer] / 1e9 for layer in SELF_TIME_LAYERS}
    out["exp.cache.key_s"] = self_ns["exp.cache.key"] / 1e9
    out["exp.cache.get_s"] = self_ns["exp.cache.get"] / 1e9
    out["exp.cache.put_s"] = self_ns["exp.cache.put"] / 1e9
    out["sim.latency.samples"] = calls["top:sim.latency"]
    out["clocksync.probes"] = calls["top:sim.latency@clocksync"]
    out["core.gateway.messages"] = calls["Gateway.on_message"]

    # Barrier waits: per window, each worker idles from the end of its
    # own shards' work until the slowest worker's reply is in.
    busy_by_worker: Dict[object, Dict[int, int]] = {}
    for worker in spans["shipped"]:
        per_window = busy_by_worker.setdefault(worker["pid"], Counter())
        per_window.update({int(k): v for k, v in worker["window_busy_ns"].items()})
    if spans["window_busy_ns"]:
        busy_by_worker["parent"] = spans["window_busy_ns"]
    walls = spans["window_wall_ns"]
    out["core.shardrun.busy_s"] = sum(sum(w.values()) for w in busy_by_worker.values()) / 1e9
    out["sim.parallel.window_wait_s"] = sum(
        max(0, wall - busy.get(index, 0))
        for index, wall in walls.items()
        for busy in busy_by_worker.values()
    ) / 1e9
    out["sim.parallel.window_p95_ms"] = (
        statistics.quantiles(walls.values(), n=20)[-1] / 1e6 if len(walls) > 1 else 0.0
    )
    out["sim.parallel.restarts"] = spans["restarts"]

    # Pool overhead: worker-seconds the pool held minus worker-seconds
    # spent inside tasks (inline pools: the pool's own self time).
    pool_ns = spans["self_ns"].get("exp.pool", 0)
    task_ns = sum(w["busy_ns"] for w in spans["shipped"]) if pool_ns else 0
    width = jobs if task_ns else 1
    out["exp.pool.overhead_s"] = max(0, width * pool_ns - task_ns) / 1e9
    named = sum(spans["self_ns"].get(layer, 0) for layer in LAYERS)
    out["obs.unattributed_s"] = max(0.0, spans["wall_s"] - named / 1e9)
    return out


def per_layer(workload, plain: list, traced: list) -> Dict[str, float]:
    """Counts from the untraced variant-0 rep, times from traced reps."""
    plain = [r for r in plain if r.variant == 0]
    metrics = {name: 0.0 for name, _ in declared_metrics("per_layer")}
    metrics.update(plain[0].counts)
    timed = [layer_times(rep, workload.jobs) for rep in traced]
    for name in timed[0]:
        metrics[name] = statistics.median(t[name] for t in timed)
    metrics["obs.trace_overhead"] = statistics.median(r.work_s for r in traced) / statistics.median(
        r.work_s for r in plain
    )
    metrics["obs.host_ref_ms"] = ref_loop_s(plain) * 1e3
    metrics["obs.orders_per_wall_s"] = wall_rate(plain)
    return metrics


def check(workload, reps: list, traced: list) -> List[str]:
    problems = [p for r in reps + traced for p in r.problems]
    by_variant: Dict[int, set] = {}
    for rep in reps:
        by_variant.setdefault(rep.variant, set()).add(rep.digest)
    for variant, digests in sorted(by_variant.items()):
        if len(digests) != 1:
            problems.append(f"reps of variant {variant} disagree: digests {sorted(digests)}")
    traced_digests = {r.digest for r in traced}
    if traced and traced_digests != by_variant[0]:
        problems.append(f"traced digest {sorted(traced_digests)} != untraced {sorted(by_variant[0])}")
    expected = workload.expected_digest()
    digest = run_digest(workload, reps)
    if expected is not None and digest != expected:
        problems.append(f"digest {digest} != recorded {expected} for seed {workload.seed}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke-test size (digests are not checked)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # A terminated run still removes its work directory and workers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    _import_program()
    import tracing
    from workloads import Workload

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as work_dir:
        workload = Workload(args.workload, args.seed, args.size, work_dir, traced=bool(args.trace))
        budget = args.seconds / 2 if args.trace else args.seconds
        reps = run_reps(workload, budget)
        traced = []
        wrapped: List[str] = []
        if args.trace:
            tracer = tracing.SpanTracer(work_dir)
            wrapped = tracing.install(tracer)
            traced = run_reps(workload, budget, tracer)
        problems = check(workload, reps, traced)

    print(f"workload {workload.name}  seed {workload.seed}  size {workload.size}  "
          f"jobs {workload.jobs}  reps {len(reps)} untraced, {len(traced)} traced")
    print(f"digest {run_digest(workload, reps)}")
    print(f"host reference loop: median {ref_loop_s(reps) * 1e3:.3f} ms over "
          f"{sum(len(r.ref_s) for r in reps)} loops (REF_S {REF_S * 1e3:.0f} ms); "
          f"unscaled {wall_rate(reps):.1f} orders/wall-s")
    if args.trace:
        shipped = sum(len(r.spans["shipped"]) for r in traced)
        source = (f"shipped back from worker processes ({shipped} hand-backs)"
                  if shipped else "inline (no worker processes)")
        print(f"worker spans: {source}; wrapped {len(wrapped)} entry points")
        values = per_layer(workload, reps, traced)
        table = [(name, unit, values[name], "") for name, unit in declared_metrics("per_layer")]
    else:
        measured = end_to_end(workload, reps)
        table = [(name, unit, *measured[name]) for name, unit in declared_metrics("end_to_end")]
    for name, unit, value, samples in table:
        print(f"  {name:34s} {value:16.6f} {unit:12s} n={samples}" if samples != "" else
              f"  {name:34s} {value:16.6f} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in reps + traced),
        "failed": sum(r.failed for r in reps + traced),
        "metrics": {name: {"value": value, "unit": unit} for name, unit, value, _ in table},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
