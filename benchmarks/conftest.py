"""Shared infrastructure for the reproduction benchmarks.

Every benchmark regenerates one table or figure from the paper's
evaluation (§4) and prints the measured rows next to the paper's
values.  Absolute numbers come from the calibrated simulator; the
reproduction target is the *shape* (who wins, rough factors, where
crossovers fall) -- see EXPERIMENTS.md.

Scaling
-------
The paper ran each experiment for 5 minutes on a 65-node cluster; a
pure-Python discrete-event simulation of the same 22k orders/s costs
roughly 10 s of wall time per simulated second, so benchmarks default
to a few simulated seconds -- enough for stable percentiles and many
DDP windows.  Set ``CLOUDEX_BENCH_SCALE`` to stretch or shrink every
duration (e.g. ``CLOUDEX_BENCH_SCALE=0.3`` for a quick smoke pass,
``3`` for tighter tails).
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence

import pytest

from repro.analysis.tables import format_table
from repro.core.cluster import CloudExCluster
# The §4 testbed is defined next to CloudExConfig (``repro bench``
# uses it too) and re-exported here for the benchmarks and perfbench.
from repro.core.config import PAPER_SEED as PAPER_SEED
from repro.core.config import CloudExConfig
from repro.core.config import paper_testbed_config as paper_testbed_config
from repro.core.config import paper_testbed_overrides as paper_testbed_overrides


def bench_scale() -> float:
    """Global duration multiplier from CLOUDEX_BENCH_SCALE."""
    return float(os.environ.get("CLOUDEX_BENCH_SCALE", "1.0"))


def bench_jobs() -> int:
    """Sweep worker processes from CLOUDEX_BENCH_JOBS (default 1).

    The measured trajectories are identical for any value (see
    repro.exp); more jobs just finishes a multi-point benchmark
    sooner on a multi-core machine.
    """
    return int(os.environ.get("CLOUDEX_BENCH_JOBS", "1"))


def run_measured(
    config: CloudExConfig,
    warmup_s: float,
    measure_s: float,
    rate_per_participant: Optional[float] = None,
) -> CloudExCluster:
    """Build, warm up, reset metrics, and measure a cluster run."""
    scale = bench_scale()
    cluster = CloudExCluster(config)
    cluster.add_default_workload(rate_per_participant=rate_per_participant)
    if warmup_s > 0:
        cluster.run(duration_s=warmup_s * scale)
    cluster.reset_metrics()
    cluster.run(duration_s=measure_s * scale)
    return cluster


def emit(title: str, headers: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    """Print one reproduced table/figure, flush-through pytest capture."""
    banner = "=" * max(len(title), 8)
    print(f"\n{banner}\n{title}\n{banner}")
    print(format_table(headers, rows))


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark.

    These are minutes-long simulations; statistical repetition lives
    *inside* each run (hundreds of thousands of simulated orders), not
    across rounds.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
