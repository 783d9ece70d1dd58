"""``python -m repro bench``: micro/macro suites and baseline checking.

Schema (both files)
-------------------
::

    {
      "suite": "micro" | "macro",
      "quick": bool,               # quick (CI smoke) or full workloads
      "jobs": int,                 # worker processes (1 = inline; the
                                   #   committed baselines are jobs=1)
      "calibration_s": float,      # median of the per-bench calibrations
                                   #   (null when jobs > 1: each worker
                                   #   calibrates itself)
      "benches": {
        "<name>": {
          "wall_s": float,         # best-of-repeats wall time
          "calibration_s": float,  # calibration measured just before
                                   #   this bench, in the same process
          "normalized": float,     # wall_s / calibration_s  (machine-free)
          "work": {...}            # deterministic outputs: event counts,
        }                          #   orders matched, simulated throughput
      }
    }

Two kinds of fields, two kinds of guarantees:

* ``work`` is **deterministic**: produced by fixed seeds inside the
  simulation, it must be bit-identical on every machine and every run.
  A drift here is a determinism regression, not noise.
* ``wall_s`` is machine-dependent, so comparisons use ``normalized`` =
  wall time divided by the wall time of a fixed pure-Python
  *calibration loop* measured immediately before each bench in the
  same process.  Machine speed cancels out, which is what makes a
  committed baseline meaningful on a different CI runner; calibrating
  per bench (rather than once per suite) also cancels speed *drift*
  across a run — CPU-steal spells on virtualized hardware slow the
  adjacent calibration by the same factor as the bench itself.

``--check`` re-runs the suites and fails when any bench's normalized
time regresses by more than ``--tolerance`` (default 25%) against the
committed baseline; being *faster* never fails.  Deterministic
mismatches always fail.
"""

from __future__ import annotations

import argparse
import heapq
import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.cliutil import EXIT_FAILURE, EXIT_OK

MICRO_BASELINE = "BENCH_micro.json"
MACRO_BASELINE = "BENCH_macro.json"
DEFAULT_TOLERANCE = 0.25

# ----------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------


def calibrate(repeats: int = 3) -> float:
    """Wall time of a fixed pure-Python workload (best of ``repeats``).

    The loop mirrors what the simulator actually spends its time on --
    heap churn, attribute access, integer arithmetic -- so the
    normalized bench values are roughly 'multiples of basic interpreter
    work' and transfer across machines and Python builds.
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        heap: List[Tuple[int, int]] = []
        push, pop = heapq.heappush, heapq.heappop
        acc = 0
        for i in range(120_000):
            push(heap, ((i * 2_654_435_761) & 0xFFFFF, i))
            if i & 1:
                acc += pop(heap)[0]
        while heap:
            acc += pop(heap)[0]
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
        assert acc != 0
    return best


def _time_bench(fn: Callable[[], dict], repeats: int) -> Tuple[float, dict]:
    """Best-of-``repeats`` wall time; asserts the deterministic work is
    identical across repeats (catching accidental cross-run state)."""
    best = float("inf")
    work: Optional[dict] = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if work is None:
            work = result
        elif work != result:
            raise AssertionError(f"non-deterministic bench work: {work} != {result}")
        if elapsed < best:
            best = elapsed
    assert work is not None
    return best, work


# ----------------------------------------------------------------------
# Micro suite
# ----------------------------------------------------------------------


def _make_orders(n: int, crossing: bool, seed: int = 7):
    import numpy as np

    from repro.core.order import Order
    from repro.core.types import OrderType, Side

    rng = np.random.default_rng(seed)
    orders = []
    for i in range(n):
        side = Side.BUY if rng.random() < 0.5 else Side.SELL
        if crossing:
            price = 10_000 + int(rng.integers(-5, 6))
        elif side is Side.BUY:
            price = 9_990 - int(rng.integers(0, 25))
        else:
            price = 10_010 + int(rng.integers(0, 25))
        orders.append(
            Order(
                client_order_id=i + 1,
                participant_id=f"p{i % 8}",
                symbol="S",
                side=side,
                order_type=OrderType.LIMIT,
                quantity=int(rng.integers(1, 100)),
                limit_price=price,
                gateway_id="g",
                gateway_timestamp=i,
                gateway_seq=i,
            )
        )
    return orders


def _bench_book_add_cancel(n: int) -> dict:
    from repro.core.book import LimitOrderBook

    orders = _make_orders(n, crossing=False)
    book = LimitOrderBook("S")
    for order in orders:
        book.add_resting(order)
    for order in orders:
        book.cancel(order.participant_id, order.client_order_id)
        order.remaining = order.quantity
    return {"orders": n, "resting_after": book.resting_count()}


def _bench_matching_crossing(n: int) -> dict:
    from repro.core.matching import MatchingEngineCore
    from repro.core.portfolio import PortfolioMatrix

    orders = _make_orders(n, crossing=True)
    portfolio = PortfolioMatrix(default_cash=10**12)
    for i in range(8):
        portfolio.open_account(f"p{i}")
    core = MatchingEngineCore(["S"], portfolio)
    trades = 0
    for order in orders:
        order.remaining = order.quantity
        trades += len(core.process_order(order, now_local=0).trades)
    return {"orders": n, "trades": trades}


def _bench_depth_snapshots(n: int) -> dict:
    from repro.core.book import LimitOrderBook

    orders = _make_orders(n, crossing=False)
    book = LimitOrderBook("S")
    checksum = 0
    for i, order in enumerate(orders):
        book.add_resting(order)
        bids, asks = book.depth_snapshot(max_levels=10)
        checksum = (checksum * 31 + len(bids) + 7 * len(asks) + i) % 1_000_000_007
        if i % 3 == 0:
            book.cancel(order.participant_id, order.client_order_id)
            order.remaining = order.quantity
    return {"orders": n, "checksum": checksum}


def _bench_engine_dispatch(n: int) -> dict:
    from repro.sim.engine import Simulator

    sim = Simulator()

    def tick(remaining: int) -> None:
        if remaining:
            sim.schedule(10, tick, remaining - 1)

    # Four interleaved chains: the heap always holds a few entries, as
    # in a real run, instead of degenerating to a single-element heap.
    for lane in range(4):
        sim.schedule(lane, tick, n // 4)
    sim.run()
    return {"events": sim.events_processed, "now": sim.now}


def _bench_sequencer(n: int) -> dict:
    from repro.core.sequencer import Sequencer
    from repro.sim.clock import HostClock
    from repro.sim.engine import Simulator

    sim = Simulator()
    clock = HostClock(sim)
    seq = Sequencer(sim, clock, on_eligible=lambda: None, delay_ns=0)
    for i in range(n):
        seq.enqueue(((i * 17) % 997, "g", i), i, i)
    sim.schedule(1_000, lambda: None)
    sim.run()
    drained = 0
    while seq.pop_eligible() is not None:
        drained += 1
    return {"enqueued": n, "drained": drained}


def _bench_clock_now(n: int) -> dict:
    from repro.sim.clock import HostClock
    from repro.sim.engine import Simulator

    sim = Simulator()
    clock = HostClock(sim, drift_ppb=42_000, offset_ns=1_500_000)
    clock.set_linear_correction(1_200, 37_000, clock.raw_local())
    total = 0
    for i in range(n):
        sim.now = i * 1_000
        total += clock.now()
    sim.now = 0
    return {"reads": n, "total": total}


#: name -> (bench fn, base size).  Quick mode multiplies sizes by 3,
#: full mode by 10 -- sizes keep each bench comfortably above ~30 ms
#: even in quick mode: much shorter and scheduler noise approaches the
#: --check tolerance.
_MICRO_BENCHES: Dict[str, Tuple[Callable[[int], dict], int]] = {
    "book_add_cancel": (_bench_book_add_cancel, 2_000),
    "matching_crossing": (_bench_matching_crossing, 2_000),
    "depth_snapshots": (_bench_depth_snapshots, 1_000),
    "engine_dispatch": (_bench_engine_dispatch, 20_000),
    "sequencer": (_bench_sequencer, 5_000),
    "clock_now": (_bench_clock_now, 50_000),
}


def _micro_worker(item: Tuple[str, bool, int]) -> Tuple[str, dict]:
    """Pool worker: one micro bench, calibrated in its own process.

    Each worker runs the calibration loop itself, so its normalized
    value is measured under the same CPU contention as the bench --
    that is what keeps parallel runs roughly comparable, though the
    committed baselines stay jobs=1 where contention is zero.
    """
    name, quick, repeats = item
    fn, base = _MICRO_BENCHES[name]
    size = base * (3 if quick else 10)
    calibration = calibrate()
    wall, work = _time_bench(lambda: fn(size), repeats)
    return name, {
        "wall_s": wall,
        "calibration_s": calibration,
        "normalized": wall / calibration,
        "work": work,
    }


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def run_micro_suite(quick: bool, repeats: int = 3, jobs: int = 1) -> dict:
    """Run every micro bench; returns the baseline document (sans file)."""
    scale = 3 if quick else 10
    doc = {"suite": "micro", "quick": quick, "jobs": jobs, "benches": {}}
    if jobs == 1:
        for name, (fn, base) in _MICRO_BENCHES.items():
            size = base * scale
            calibration = calibrate()
            wall, work = _time_bench(lambda: fn(size), repeats)
            doc["benches"][name] = {
                "wall_s": wall,
                "calibration_s": calibration,
                "normalized": wall / calibration,
                "work": work,
            }
        doc["calibration_s"] = _median(
            [entry["calibration_s"] for entry in doc["benches"].values()]
        )
        return doc
    from repro.exp.pool import run_parallel

    items = [(name, quick, repeats) for name in _MICRO_BENCHES]
    doc["calibration_s"] = None  # per-worker; see _micro_worker
    for result in run_parallel(_micro_worker, items, jobs=jobs, retries=0):
        if not result.ok:
            raise RuntimeError(f"micro bench worker failed:\n{result.error}")
        name, entry = result.value
        doc["benches"][name] = entry
    return doc


# ----------------------------------------------------------------------
# Macro suite: the Table-1 sharding workload
# ----------------------------------------------------------------------


def _testbed_config(n_shards: int):
    """The §4 testbed with no cancels, as in
    ``benchmarks/bench_table1_sharding.py``."""
    from repro.core.config import paper_testbed_config

    return paper_testbed_config(n_shards=n_shards, cancel_fraction=0.0)


def _run_macro_once(n_shards: int, duration_s: float) -> Tuple[float, dict]:
    from repro.core.cluster import CloudExCluster

    config = _testbed_config(n_shards)
    cluster = CloudExCluster(config)
    cluster.add_default_workload(rate_per_participant=1_700.0)
    start = time.perf_counter()
    cluster.run(duration_s=duration_s)
    wall = time.perf_counter() - start
    work = {
        "shards": n_shards,
        "sim_duration_s": duration_s,
        "events_processed": cluster.sim.events_processed,
        "throughput_per_s": round(cluster.metrics.throughput_per_s(), 3),
    }
    return wall, work


def _macro_point(shards: int, duration_s: float, repeats: int) -> Tuple[float, dict]:
    """Best-of-``repeats`` wall time for one shard count, with the
    cross-repeat determinism assertion."""
    best_wall: float = float("inf")
    work: Optional[dict] = None
    for _ in range(max(1, repeats)):
        wall, this_work = _run_macro_once(shards, duration_s)
        if work is None:
            work = this_work
        elif work != this_work:
            raise AssertionError(
                f"non-deterministic macro run at {shards} shards: {work} != {this_work}"
            )
        if wall < best_wall:
            best_wall = wall
    assert work is not None
    return best_wall, work


def _macro_worker(item: Tuple[int, float, int]) -> Tuple[int, dict]:
    """Pool worker: one shard count, calibrated in its own process
    (same contention rationale as :func:`_micro_worker`)."""
    shards, duration_s, repeats = item
    calibration = calibrate()
    wall, work = _macro_point(shards, duration_s, repeats)
    return shards, {
        "wall_s": wall,
        "calibration_s": calibration,
        "normalized": wall / calibration,
        "work": work,
    }


def _shardrun_configs(quick: bool) -> "Dict[str, object]":
    """The batched-kernel macro points.

    ``shardrun_table1`` mirrors the Table-1 testbed economics (48
    participants, 100 symbols, 4 shards, saturation rate) so its
    wall-clock divides against the scalar ``table1_shards_4`` point --
    that ratio is the suite's ``batched_speedup``.  ``shardrun_1m`` is
    the scale demonstrator: a million participants over 10 symbols,
    unreachable for the event-driven cluster, routine for the batched
    kernel.
    """
    from repro.core.shardrun import ShardRunConfig

    return {
        "shardrun_table1": ShardRunConfig(
            seed=2021,
            n_participants=48,
            n_symbols=100,
            n_shards=4,
            rate_per_participant_s=1_700.0,
            duration_s=0.15 if quick else 0.6,
            market_order_fraction=0.05,
        ),
        "shardrun_1m": ShardRunConfig(
            seed=2021,
            duration_s=0.1 if quick else 2.0,  # defaults: 1M participants, 10 symbols
        ),
    }


def _shardrun_point(config) -> Tuple[float, dict]:
    """One batched-kernel run; work fields are fully deterministic."""
    from repro.core.shardrun import run_shardrun

    start = time.perf_counter()
    report = run_shardrun(config, jobs=1)
    wall = time.perf_counter() - start
    totals = report["totals"]
    work = {
        "participants": config.n_participants,
        "shards": config.n_shards,
        "sim_duration_s": config.duration_s,
        "orders": totals["orders"],
        "trades": totals["trades"],
    }
    return wall, work


def _batched_speedup(benches: dict) -> Optional[float]:
    """Orders-per-wall-second ratio: batched kernel vs scalar cluster
    on the shared Table-1 economics.  The scalar side's order rate is
    reconstructed from its simulated throughput and wall time."""
    scalar = benches.get("table1_shards_4")
    batched = benches.get("shardrun_table1")
    if scalar is None or batched is None:
        return None
    scalar_orders_per_wall = (
        scalar["work"]["throughput_per_s"] * scalar["work"]["sim_duration_s"] / scalar["wall_s"]
    )
    batched_orders_per_wall = batched["work"]["orders"] / batched["wall_s"]
    return round(batched_orders_per_wall / scalar_orders_per_wall, 2)


def run_macro_suite(quick: bool, repeats: int = 1, jobs: int = 1) -> dict:
    shard_counts = (1, 4) if quick else (1, 4, 8)
    duration_s = 0.15 if quick else 0.6
    doc = {"suite": "macro", "quick": quick, "jobs": jobs, "benches": {}}
    if jobs == 1:
        for shards in shard_counts:
            calibration = calibrate()
            wall, work = _macro_point(shards, duration_s, repeats)
            doc["benches"][f"table1_shards_{shards}"] = {
                "wall_s": wall,
                "calibration_s": calibration,
                "normalized": wall / calibration,
                "work": work,
            }
    else:
        from repro.exp.pool import run_parallel

        items = [(shards, duration_s, repeats) for shards in shard_counts]
        for result in run_parallel(_macro_worker, items, jobs=jobs, retries=0):
            if not result.ok:
                raise RuntimeError(f"macro bench worker failed:\n{result.error}")
            shards, entry = result.value
            doc["benches"][f"table1_shards_{shards}"] = entry
    # The batched-kernel points always run inline: they are cheap, and
    # their wall times feed the speedup ratio, which wants zero
    # cross-process contention.
    for name, config in _shardrun_configs(quick).items():
        calibration = calibrate()
        wall, work = _shardrun_point(config)
        doc["benches"][name] = {
            "wall_s": wall,
            "calibration_s": calibration,
            "normalized": wall / calibration,
            "work": work,
        }
    doc["calibration_s"] = (
        _median([entry["calibration_s"] for entry in doc["benches"].values()])
        if jobs == 1
        else None  # scalar points calibrated per worker; see _macro_worker
    )
    speedup = _batched_speedup(doc["benches"])
    if speedup is not None:
        doc["batched_speedup"] = speedup
    return doc


# ----------------------------------------------------------------------
# Baseline comparison
# ----------------------------------------------------------------------


def check_against_baseline(
    current: dict, baseline: dict, tolerance: float = DEFAULT_TOLERANCE
) -> List[str]:
    """Compare a fresh run against a committed baseline.

    Returns a list of human-readable failure strings (empty == pass):

    * normalized wall time regressed by more than ``tolerance``
      (improvements never fail);
    * deterministic ``work`` fields differ (a determinism regression);
    * quick/full mode mismatch (the workloads aren't comparable).
    """
    failures: List[str] = []
    if current.get("quick") != baseline.get("quick"):
        return [
            f"mode mismatch: baseline quick={baseline.get('quick')} vs "
            f"current quick={current.get('quick')}; regenerate the baseline"
        ]
    if current.get("jobs", 1) != baseline.get("jobs", 1):
        return [
            f"jobs mismatch: baseline jobs={baseline.get('jobs', 1)} vs "
            f"current jobs={current.get('jobs', 1)}; wall-clock comparisons "
            "are only meaningful at equal parallelism"
        ]
    for name, entry in current.get("benches", {}).items():
        base = baseline.get("benches", {}).get(name)
        if base is None:
            continue  # new bench: nothing to regress against
        if entry["work"] != base["work"]:
            failures.append(
                f"{name}: deterministic work drifted: baseline {base['work']} "
                f"vs current {entry['work']}"
            )
        limit = base["normalized"] * (1.0 + tolerance)
        if entry["normalized"] > limit:
            slower = entry["normalized"] / base["normalized"] - 1.0
            failures.append(
                f"{name}: normalized wall time regressed {slower:+.1%} "
                f"({base['normalized']:.2f} -> {entry['normalized']:.2f}, "
                f"tolerance {tolerance:.0%})"
            )
    return failures


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def build_bench_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description=(
            "Run the micro/macro performance suites and write (or check "
            "against) the BENCH_micro.json / BENCH_macro.json baselines."
        ),
    )
    parser.add_argument(
        "--suite",
        choices=["micro", "macro", "all"],
        default="all",
        help="which suite(s) to run (default: all)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: smaller workloads, fewer shard counts",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=(
            "compare against the committed baselines instead of "
            "overwriting them; exit 1 on >tolerance regression or "
            "deterministic drift"
        ),
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        metavar="FRAC",
        help="allowed normalized-wall-time regression for --check (default: 0.25)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="micro-bench repetitions; best-of is recorded (default: 3)",
    )
    parser.add_argument(
        "--out-dir",
        default=".",
        metavar="DIR",
        help="directory holding BENCH_*.json (default: current directory)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "run benches through the repro.exp worker pool (each worker "
            "calibrates itself); the default 1 runs inline, which is what "
            "the committed baselines and --check assume"
        ),
    )
    parser.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help=(
            "also emit the combined suite document as JSON in the shared "
            "--json shape (no PATH = stdout)"
        ),
    )
    return parser


def _print_suite(doc: dict) -> None:
    calibration = (
        f"calibration {doc['calibration_s'] * 1e3:.1f} ms"
        if doc.get("calibration_s") is not None
        else f"per-worker calibration, jobs={doc.get('jobs')}"
    )
    print(f"{doc['suite']} suite ({'quick' if doc['quick'] else 'full'}), {calibration}")
    width = max(len(name) for name in doc["benches"])
    for name, entry in doc["benches"].items():
        detail = ", ".join(f"{k}={v}" for k, v in entry["work"].items())
        print(
            f"  {name:<{width}}  {entry['wall_s'] * 1e3:9.1f} ms  "
            f"x{entry['normalized']:8.2f}  [{detail}]"
        )
    if doc.get("batched_speedup") is not None:
        print(
            f"  batched kernel vs scalar cluster (Table-1 economics): "
            f"{doc['batched_speedup']:.1f}x orders/wall-second"
        )


def bench_main(argv=None) -> int:
    args = build_bench_parser().parse_args(argv)
    out_dir = Path(args.out_dir)
    suites = []
    if args.suite in ("micro", "all"):
        suites.append(
            (MICRO_BASELINE, run_micro_suite(args.quick, repeats=args.repeats, jobs=args.jobs))
        )
    if args.suite in ("macro", "all"):
        suites.append((MACRO_BASELINE, run_macro_suite(args.quick, jobs=args.jobs)))

    failures: List[str] = []
    for filename, doc in suites:
        _print_suite(doc)
        path = out_dir / filename
        if args.check:
            if not path.exists():
                failures.append(f"{filename}: no committed baseline at {path}")
                continue
            baseline = json.loads(path.read_text())
            suite_failures = check_against_baseline(doc, baseline, args.tolerance)
            if suite_failures:
                failures.extend(f"{filename}: {msg}" for msg in suite_failures)
            else:
                print(f"  OK vs {path} (tolerance {args.tolerance:.0%})")
        else:
            out_dir.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
            print(f"  wrote {path}")
    if args.json is not None:
        from repro.cliutil import emit_json

        emit_json(
            {
                "bench": args.suite,
                "quick": args.quick,
                "suites": {doc["suite"]: doc for _, doc in suites},
            },
            args.json,
        )
    if failures:
        print("\nBENCH CHECK FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return EXIT_FAILURE
    return EXIT_OK
