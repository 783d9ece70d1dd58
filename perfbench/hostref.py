"""A fixed pure-Python reference loop that gauges the host's speed.

On a shared host the speed of this program drifts by 15-30% over
minutes, far more than a change worth gating.  The benchmark times this
loop before every rep, for about ``SHARE`` of the run, so host-time
metrics can be reported at a fixed reference speed: a rate is
multiplied, and a duration divided, by ``median loop time / REF_S``.
One loop is short and noisy; the median over the run's many loops
tracks the host's drift over minutes.

The loop does what the simulator does most -- heap pushes and pops of
tuples, attribute and dict traffic -- over a pool of objects tens of
megabytes large, so that, like the program, it feels the host's cache
and memory contention (a loop whose data fit in the core's own caches
tracked the program worse than no reference at all).  It uses nothing
from the program, so a change to the program never moves it.
"""

from __future__ import annotations

import gc
import heapq
import random
import resource
from time import perf_counter
from typing import List, Optional, Tuple

#: Share of a run's host time spent timing the reference loop.
SHARE = 0.08

#: Median time of :func:`reference_loop` on the 2-vCPU Intel Xeon cloud
#: VM (Python 3.11) the bounds were set on.  It only fixes the scale of
#: the normalised metrics; any constant would do.
REF_S = 0.035

#: Objects in the loop's pool.
POOL_SIZE = 200_000


class _Node:
    __slots__ = ("price", "qty", "owner", "links")

    def __init__(self, index: int, rng: random.Random) -> None:
        self.price = rng.randrange(9_000, 11_000)
        self.qty = rng.randrange(1, 100)
        self.owner = f"p{index % 4096}-{index}"
        self.links = {k: 2 * k for k in range(4)} if index % 3 == 0 else {}


_pool: Optional[Tuple[List[_Node], dict]] = None

#: Resident memory the pool added when it was built, in KiB.
pool_rss_kib = 0


def _resident_kib() -> int:
    with open("/proc/self/statm", encoding="ascii") as statm:
        return int(statm.read().split()[1]) * resource.getpagesize() // 1024


def build_pool() -> None:
    """Build the pool once.  It is frozen out of the garbage collector,
    so the program's collections never traverse it, and its resident
    size is kept so peak-memory figures can leave it out."""
    global _pool, pool_rss_kib
    if _pool is not None:
        return
    before = _resident_kib()
    rng = random.Random(7)
    nodes = [_Node(i, rng) for i in range(POOL_SIZE)]
    _pool = (nodes, {node.owner: node for node in nodes})
    gc.collect()
    gc.freeze()
    pool_rss_kib = _resident_kib() - before


def reference_loop(n: int = 12_000) -> int:
    """A fixed amount of simulator-like work; returns a checksum."""
    build_pool()
    nodes, by_owner = _pool
    rng = random.Random(5)
    heap: list = []
    acc = 0
    for seq in range(n):
        node = nodes[rng.randrange(POOL_SIZE)]
        heapq.heappush(heap, (node.price + rng.random(), seq, node))
        node.qty += 1
        if len(heap) > 2_000:
            _, order, oldest = heapq.heappop(heap)
            acc += by_owner[oldest.owner].qty + len(oldest.links)
            oldest.links[order & 7] = (order, acc & 0xFFFF)
    return acc


def time_reference(repeats: int) -> List[float]:
    """Wall seconds of each of ``repeats`` back-to-back loops, now."""
    times = []
    for _ in range(repeats):
        started = perf_counter()
        reference_loop()
        times.append(perf_counter() - started)
    return times
