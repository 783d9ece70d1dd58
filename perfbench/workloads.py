"""The benchmark's four workloads, each one repetition ("rep") at a time.

A rep is a fixed amount of *simulated* work built from the seed, so
every rep of one seed produces the same simulated outputs (checked by
digest) while its host wall time is what the benchmark measures.  All
workloads are open loop: Poisson traders submit on their own schedule
whatever the exchange does.

Configs come from the program's own sources -- the §4 testbed from
``benchmarks.conftest.paper_testbed_config``, the batched kernel from
``ShardRunConfig`` and the sweep cells from ``build_fairness_spec`` --
with only the overrides named below.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import statistics
import tempfile
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from benchmarks.conftest import paper_testbed_config
from repro.chaos.invariants import VIOLATION, ChaosMonitor, check_invariants
from repro.core.cluster import CloudExCluster
from repro.core.metrics import LatencySummary
from repro.core.shardrun import ShardRunConfig, run_shardrun
from repro.exp import runner as exp_runner
from repro.exp.runner import run_sweep
from repro.fairness.study import build_fairness_spec
from repro.traders.workload import BulkOrderStream

#: The seed whose digests are recorded in EXPECTED_DIGESTS.
DEFAULT_SEED = 1

SIM_METRICS = ("sim_submit_p50_us", "sim_submit_p99_us", "sim_confirm_p50_us", "sim_confirm_p99_us")

#: Overrides of the §4 testbed (48 participants, 16 gateways, 100
#: symbols, 450 orders/s each) per cluster workload.  The churn
#: workload sends no market orders: with 40% cancels on 10 symbols a
#: market order can meet an empty side, and the exchange's designed
#: no-liquidity reject would count as a failed operation.
CLUSTER_OVERRIDES: Dict[str, Dict[str, object]] = {
    "cluster_table1": {"n_shards": 4},
    "cluster_ros_churn": {
        "n_shards": 4,
        "replication_factor": 3,
        "n_symbols": 10,
        "cancel_fraction": 0.4,
        "market_order_fraction": 0.0,
        "fairness_policy": "dbo",
        "clock_sync": "none",
    },
}

#: Simulated seconds per rep: warm-up (discarded), measured window,
#: and the drain after the traders stop.
CLUSTER_SIZES = {
    "full": {"warmup_s": 0.03, "measure_s": 0.1, "drain_s": 0.02},
    "tiny": {"warmup_s": 0.01, "measure_s": 0.02, "drain_s": 0.02},
}

#: A cluster run is a round of this many reps, one per sub-seed derived
#: from the seed: which symbols traders share is fixed per seed and
#: moves host cost per order by up to ~15%, so one round averages it.
CLUSTER_VARIANTS = 4

#: Worker processes of the two pooled workloads: untraced runs (the
#: gated end-to-end metrics) and traced runs (per-layer metrics).  With
#: two workers on two shared vCPUs, wall time swung by up to 2x between
#: minutes of the same run, so the gated metrics use the inline path,
#: whose results are byte-identical to any ``jobs`` by the program's
#: own contract; the traced run keeps the worker processes so the
#: barrier, pool and hand-back costs are still measured.
JOBS = {False: 1, True: 2}

#: ShardRunConfig overrides.  Defaults otherwise: 1M participants, 10
#: symbols, 10 shards.  No market orders: a shard's book starts empty,
#: so an early market order is rejected for no liquidity.  ``probe_s``
#: is the simulated length of the untimed inline run that observes
#: per-order simulated latencies.
SHARDRUN_SIZES = {
    "full": {"config": {"duration_s": 0.2, "market_order_fraction": 0.0}, "probe_s": 0.05},
    "tiny": {
        "config": {"n_participants": 10_000, "duration_s": 0.05, "market_order_fraction": 0.0},
        "probe_s": 0.03,
    },
}

#: The fairness-frontier cell shape (8 participants, 4 gateways, 10
#: symbols) for all four policies x ``seeds`` replicates.
SWEEP_SIZES = {
    "full": {"seeds": 4, "warmup_s": 0.05, "duration_s": 0.2, "rate": 300.0},
    "tiny": {"seeds": 1, "warmup_s": 0.02, "duration_s": 0.05, "rate": 300.0},
}

#: Digest of the simulated outputs of one full-size round at DEFAULT_SEED.
#: A change that alters any simulated result (counts, trades, simulated
#: latencies) changes the digest; a host-only speed-up must not.
EXPECTED_DIGESTS: Dict[str, str] = {
    "cluster_table1": "779963b69e11de83",
    "cluster_ros_churn": "998bbe9ba64dcf6f",
    "shardrun_1m": "1c9b1afd555fc47f",
    "sweep_cells": "692dece64f74c7a8",
}


@dataclass
class Rep:
    """What one repetition measured."""

    variant: int
    setup_s: float
    work_s: float  # host wall of the measured part
    cells_s: float  # host wall the rep's cells took (the whole rep but for the sweep)
    orders: int
    cells: int
    sim: Dict[str, Tuple[float, int]]  # metric -> (value, sample count)
    sim_ns: Optional[Tuple[List[int], List[int]]]  # raw submit, confirm samples
    counts: Dict[str, float]
    digest: str
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    spans: Optional[dict] = None  # traced reps only
    ref_s: List[float] = field(default_factory=list)  # hostref loop times just before the rep


def digest_of(doc: object) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(blob.encode("utf-8"), digest_size=8).hexdigest()


def _sim_from_ns(submit_ns: List[int], confirm_ns: List[int]) -> Dict[str, Tuple[float, int]]:
    submit = LatencySummary.from_ns(submit_ns)
    confirm = LatencySummary.from_ns(confirm_ns)
    return {
        "sim_submit_p50_us": (submit.p50_us, submit.count),
        "sim_submit_p99_us": (submit.p99_us, submit.count),
        "sim_confirm_p50_us": (confirm.p50_us, confirm.count),
        "sim_confirm_p99_us": (confirm.p99_us, confirm.count),
    }


def pooled_sim(reps: List["Rep"]) -> Dict[str, Tuple[float, int]]:
    """Simulated latencies over the raw samples of ``reps`` together."""
    if reps[0].sim_ns is None or len(reps) == 1:
        return reps[0].sim
    return _sim_from_ns(
        [x for r in reps for x in r.sim_ns[0]], [x for r in reps for x in r.sim_ns[1]]
    )


def _sim_digest(sim: Dict[str, Tuple[float, int]]) -> Dict[str, list]:
    return {name: [round(value, 3), count] for name, (value, count) in sorted(sim.items())}


class _Spans:
    """Brackets the measured region of a traced rep."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        if tracer is not None:
            tracer.collect_shipped()  # drop worker spans of set-up
            tracer.window_busy_ns.clear()
            tracer.window_wall_ns.clear()
            tracer.restarts = 0
            self.before = tracer.snapshot()
            self.started = perf_counter()

    def close(self) -> Optional[dict]:
        tracer = self.tracer
        if tracer is None:
            return None
        wall = perf_counter() - self.started
        after = tracer.snapshot()
        delta = {
            kind: {
                key: value - self.before[kind].get(key, 0)
                for key, value in after[kind].items()
                if value != self.before[kind].get(key, 0)
            }
            for kind in ("self_ns", "calls")
        }
        return {
            **delta,
            "wall_s": wall,
            "shipped": tracer.collect_shipped(),
            "window_wall_ns": dict(tracer.window_wall_ns),
            "window_busy_ns": dict(tracer.window_busy_ns),
            "restarts": tracer.restarts,
        }


# ----------------------------------------------------------------------
# cluster_table1, cluster_ros_churn
# ----------------------------------------------------------------------
def _cluster_totals(cluster: CloudExCluster) -> Dict[str, int]:
    """Cumulative public counters, differenced around the window."""
    counters = cluster.counters
    return {
        "events": cluster.sim.events_processed,
        "messages": sum(link.messages_sent for link in cluster.network.links.values()),
        "dropped": int(counters.value("net.dropped_while_down") + counters.value("net.dropped_partitioned")),
        "submitted": sum(p.orders_submitted for p in cluster.participants),
        "abandoned": sum(p.orders_abandoned for p in cluster.participants),
        "gateway_rejects": sum(g.orders_rejected for g in cluster.gateways),
        "portfolio_trades": cluster.portfolio.trades_applied,
        "storage_writes": cluster.trade_table.writes,
    }


def cluster_rep(workload: str, seed: int, variant: int, size: str, tracer=None) -> Rep:
    sizes = CLUSTER_SIZES[size]
    started = perf_counter()
    config = paper_testbed_config(seed=seed * CLUSTER_VARIANTS + variant, **CLUSTER_OVERRIDES[workload])
    cluster = CloudExCluster(config)
    monitor = ChaosMonitor(cluster)
    cluster.add_default_workload()
    cluster.run(duration_s=sizes["warmup_s"])
    cluster.reset_metrics()
    before = _cluster_totals(cluster)
    window_start = perf_counter()
    spans = _Spans(tracer)
    cluster.run(duration_s=sizes["measure_s"])
    window_end = perf_counter()
    span_doc = spans.close()
    after = _cluster_totals(cluster)
    delta = {key: after[key] - before[key] for key in after}
    m = cluster.metrics
    sim_ns = (list(m.submission_latencies_ns), list(m.e2e_latencies_ns))
    sim = _sim_from_ns(*sim_ns)
    md_pieces = m.md_pieces_finalized + m.md_pieces_partial
    counts = {
        "sim.engine.events": delta["events"],
        "sim.engine.events_per_order": delta["events"] / max(m.orders_matched, 1),
        "sim.network.messages": delta["messages"],
        "sim.network.dropped": delta["dropped"],
        "clocksync.error_p99_ns": (
            cluster.clock_sync.error_percentile_ns(99) if cluster.clock_sync is not None else 0.0
        ),
        "traders.orders_generated": delta["submitted"],
        "fairness.released": m.orders_released,
        "fairness.inbound_unfairness": m.inbound_unfairness_ratio(),
        "fairness.outbound_unfairness": m.outbound_unfairness_ratio(),
        "fairness.queuing_delay_mean_us": m.mean_queuing_delay_us(),
        "fairness.releasing_delay_mean_us": m.mean_releasing_delay_us(),
        "core.exchange.replicas": m.replicas_received,
        "core.exchange.admit_ratio": (
            (m.replicas_received - m.duplicates_dropped) / m.replicas_received
            if m.replicas_received else 0.0
        ),
        "core.exchange.md_pieces": md_pieces,
        "core.matching.orders": m.orders_matched,
        "core.matching.trades": m.trades_executed,
        "core.portfolio.trades": delta["portfolio_trades"],
        "storage.writes": delta["storage_writes"],
    }
    window_rejects = m.rejects + delta["gateway_rejects"]
    outcome = {
        "submitted": delta["submitted"],
        "matched": m.orders_matched,
        "trades": m.trades_executed,
        "replicas": m.replicas_received,
        "released": m.orders_released,
        "out_of_sequence": m.out_of_sequence,
        "md_pieces": md_pieces,
        "sim": _sim_digest(sim),
    }

    # Correctness: stop the traders, let every in-flight message land,
    # then check the exchange invariants.  monotone_release is the
    # paper's designed inbound unfairness (reported above), not a fault.
    for agent in cluster.agents:
        agent.stop()
    cluster.run(duration_s=sizes["drain_s"])
    cluster.finalize_metrics()
    findings = check_invariants(cluster, monitor)
    problems = [
        f"{f.invariant}: {f.message}"
        for f in findings
        if f.severity == VIOLATION and f.invariant != "monotone_release"
    ]
    lost = sum(len(f.data.get("orders", ())) for f in findings if f.invariant == "order_loss")
    abandoned = _cluster_totals(cluster)["abandoned"] - before["abandoned"]
    outcome["findings"] = sorted(f"{f.severity}:{f.invariant}" for f in findings)
    return Rep(
        variant=variant,
        setup_s=window_start - started,
        work_s=window_end - window_start,
        cells_s=perf_counter() - started,
        orders=m.orders_matched,
        cells=1,
        sim=sim,
        sim_ns=sim_ns,
        counts=counts,
        digest=digest_of(outcome),
        attempted=delta["submitted"],
        failed=window_rejects + lost + abandoned,
        problems=problems,
        spans=span_doc,
    )


# ----------------------------------------------------------------------
# shardrun_1m
# ----------------------------------------------------------------------
def _shardrun_config(seed: int, size: str) -> ShardRunConfig:
    return ShardRunConfig(seed=seed, **SHARDRUN_SIZES[size]["config"])


def shardrun_sim(seed: int, size: str) -> Tuple[List[int], List[int]]:
    """Per-order simulated latencies of the batched kernel.

    An untimed inline run (``jobs=1`` is byte-identical to any jobs)
    observes every window's arrivals through the public
    ``BulkOrderStream.take_until``.  Submit -> engine receipt is the
    gateway stamp minus the arrival (the stamped order is then eligible
    at the engine); submit -> confirm is the barrier at which the
    order's batch is matched minus the arrival.  Orders stamped past
    the horizon are never processed and are left out.
    """
    config = dataclasses.replace(_shardrun_config(seed, size), duration_s=SHARDRUN_SIZES[size]["probe_s"])
    seen: List[Tuple[int, np.ndarray, np.ndarray]] = []
    original = BulkOrderStream.take_until

    def observe(self, t_end_ns):
        start, times, fields = original(self, t_end_ns)
        seen.append((t_end_ns, np.array(times, dtype=np.int64), np.array(fields["stamp"], dtype=np.int64)))
        return start, times, fields

    BulkOrderStream.take_until = observe
    try:
        run_shardrun(config, jobs=1)
    finally:
        BulkOrderStream.take_until = original
    barriers = np.array(sorted({t_end for t_end, _, _ in seen}), dtype=np.int64)
    times = np.concatenate([t for _, t, _ in seen])
    stamps = np.concatenate([s for _, _, s in seen])
    processed = stamps <= barriers[-1]
    times, stamps = times[processed], stamps[processed]
    matched_at = barriers[np.searchsorted(barriers, stamps, side="left")]
    return (stamps - times).tolist(), (matched_at - times).tolist()


def shardrun_rep(seed: int, size: str, jobs: int, sim_ns: Tuple[List[int], List[int]], tracer=None) -> Rep:
    sim = _sim_from_ns(*sim_ns)
    config = _shardrun_config(seed, size)
    started = perf_counter()
    # Set-up: runner spawn, shard construction and teardown, timed as a
    # run one conservative window long.
    run_shardrun(dataclasses.replace(config, duration_s=config.lookahead_ns() / 1e9), jobs=jobs)
    run_start = perf_counter()
    spans = _Spans(tracer)
    report = run_shardrun(config, jobs=jobs)
    run_end = perf_counter()
    span_doc = spans.close()
    totals = report["totals"]
    conservation = report["conservation"]
    problems = []
    if conservation["net_position"] != 0 or conservation["net_cash"] != 0:
        problems.append(f"conservation broken: {conservation}")
    if totals["arrivals"] != totals["orders"] + totals["unprocessed"]:
        problems.append(
            f"arrival accounting: {totals['arrivals']} arrivals != "
            f"{totals['orders']} orders + {totals['unprocessed']} unprocessed"
        )
    events = totals["arrivals"] - totals["unprocessed"]
    counts = {
        "sim.engine.events": events,
        "sim.engine.events_per_order": events / max(totals["orders"], 1),
        "traders.orders_generated": totals["arrivals"],
        "core.matching.orders": totals["orders"],
        "core.matching.trades": totals["trades"],
        "core.shardrun.windows": report["windows"],
    }
    outcome = {
        "windows": report["windows"],
        "totals": totals,
        "conservation": conservation,
        "index_path": digest_of(report["index_path"]),
        "sim": _sim_digest(sim),
    }
    return Rep(
        variant=0,
        setup_s=run_start - started,
        work_s=run_end - run_start,
        cells_s=perf_counter() - started,
        orders=totals["orders"],
        cells=1,
        sim=sim,
        sim_ns=sim_ns,
        counts=counts,
        digest=digest_of(outcome),
        attempted=totals["arrivals"],
        failed=totals["rejected"],
        problems=problems,
        spans=span_doc,
    )


# ----------------------------------------------------------------------
# sweep_cells
# ----------------------------------------------------------------------
@contextlib.contextmanager
def _pool_results():
    """Collect the per-task results the sweep's process pool returns
    (attempts, timeouts), which the sweep outcome does not expose."""
    seen: list = []
    original = exp_runner.run_parallel

    def observe(*args, **kwargs):
        results = original(*args, **kwargs)
        seen.extend(results)
        return results

    exp_runner.run_parallel = observe
    try:
        yield seen
    finally:
        exp_runner.run_parallel = original


def sweep_rep(seed: int, size: str, jobs: int, work_dir: str, tracer=None) -> Rep:
    sizes = SWEEP_SIZES[size]
    spec, _ = build_fairness_spec(
        clocks=("huygens",),
        scenarios=("calm",),
        seeds=sizes["seeds"],
        master_seed=seed,
        rate_per_participant=sizes["rate"],
        warmup_s=sizes["warmup_s"],
        duration_s=sizes["duration_s"],
        name="perfbench",
    )
    started = perf_counter()
    with tempfile.TemporaryDirectory(dir=work_dir, prefix="cache-") as cache_dir:
        spans = _Spans(tracer)
        with _pool_results() as task_results:
            cold = run_sweep(spec, jobs=jobs, cache_dir=cache_dir)
        cold_end = perf_counter()
        warm = run_sweep(spec, jobs=jobs, cache_dir=cache_dir)
        warm_end = perf_counter()
        span_doc = spans.close()
    cold_bytes = json.dumps(cold.document, sort_keys=True)
    warm_bytes = json.dumps(warm.document, sort_keys=True)
    points = cold.document["points"]
    results = [p["result"] for p in points if p["result"] is not None]
    retries = sum(r.attempts - 1 for r in task_results)
    timeouts = sum(1 for r in task_results if r.timed_out)
    problems = [f"cell {key} failed: {error.splitlines()[-1] if error else ''}" for key, error in cold.failures]
    if len(results) != len(points):
        problems.append(f"{len(points) - len(results)} cells have no result")
    if warm_bytes != cold_bytes:
        problems.append("warm re-run document differs from the cold one")
    if warm.executed != 0:
        problems.append(f"warm re-run executed {warm.executed} cells, expected 0")

    def column(name: str) -> List[float]:
        return [float(r[name]) for r in results]

    n = len(results)
    sim = {
        metric: (statistics.median(column(key)) if n else 0.0, n)
        for metric, key in zip(SIM_METRICS, ("submission_p50_us", "submission_p99_us", "e2e_p50_us", "e2e_p99_us"))
    }
    matched = int(sum(column("orders_matched")))
    events = int(sum(column("events_processed")))
    counts = {
        "sim.engine.events": events,
        "sim.engine.events_per_order": events / max(matched, 1),
        "sim.network.dropped": sum(column("messages_dropped")),
        "fairness.inbound_unfairness": statistics.fmean(column("inbound_unfairness")) if n else 0.0,
        "fairness.outbound_unfairness": statistics.fmean(column("outbound_unfairness")) if n else 0.0,
        "fairness.queuing_delay_mean_us": statistics.fmean(column("mean_queuing_delay_us")) if n else 0.0,
        "fairness.releasing_delay_mean_us": statistics.fmean(column("mean_releasing_delay_us")) if n else 0.0,
        "core.exchange.replicas": sum(column("replicas_received")),
        "core.exchange.admit_ratio": (
            1 - sum(column("duplicates_dropped")) / sum(column("replicas_received")) if n else 0.0
        ),
        "core.matching.orders": matched,
        "core.matching.trades": sum(column("trades_executed")),
        "exp.pool.tasks": cold.executed,
        "exp.pool.retries": retries,
        "exp.pool.timeouts": timeouts,
        "exp.cache.hit_ratio": (cold.from_cache + warm.from_cache) / (2 * len(points)),
    }
    outcome = {
        "cells": [
            {
                "seed": p["seed"],
                "point": p["point"],
                "failed": p["failed"],
                "result": None if p["result"] is None else {
                    key: round(float(p["result"][key]), 6)
                    for key in (
                        "orders_matched", "trades_executed", "submission_p50_us",
                        "submission_p99_us", "e2e_p50_us", "e2e_p99_us",
                        "inbound_unfairness_true", "outbound_unfairness",
                    )
                },
            }
            for p in points
        ],
    }
    return Rep(
        variant=0,
        setup_s=warm_end - cold_end,
        work_s=cold_end - started,
        cells_s=cold_end - started,
        orders=matched,
        cells=len(points),
        sim=sim,
        sim_ns=None,
        counts=counts,
        digest=digest_of(outcome),
        attempted=len(points),
        failed=len(cold.failures) + retries + timeouts,
        problems=problems,
        spans=span_doc,
    )


WORKLOADS = ("cluster_table1", "cluster_ros_churn", "shardrun_1m", "sweep_cells")


class Workload:
    """Runs reps of one named workload for one seed and size.

    Rep ``i`` runs variant ``i % variants``; a round is one rep of each
    variant, and every rep of one variant must give the same digest.
    """

    def __init__(self, name: str, seed: int, size: str, work_dir: str, traced: bool = False) -> None:
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
        self.name = name
        self.seed = seed
        self.size = size
        self.work_dir = work_dir
        self.variants = CLUSTER_VARIANTS if name.startswith("cluster_") else 1
        self.jobs = JOBS[traced] if name in ("shardrun_1m", "sweep_cells") else 1
        self._shardrun_sim_ns = None

    def rep(self, variant: int, tracer=None) -> Rep:
        if self.name.startswith("cluster_"):
            return cluster_rep(self.name, self.seed, variant, self.size, tracer)
        if self.name == "shardrun_1m":
            if self._shardrun_sim_ns is None:
                self._shardrun_sim_ns = shardrun_sim(self.seed, self.size)
            return shardrun_rep(self.seed, self.size, self.jobs, self._shardrun_sim_ns, tracer)
        return sweep_rep(self.seed, self.size, self.jobs, self.work_dir, tracer)

    def expected_digest(self) -> Optional[str]:
        if self.seed == DEFAULT_SEED and self.size == "full":
            return EXPECTED_DIGESTS.get(self.name)
        return None
