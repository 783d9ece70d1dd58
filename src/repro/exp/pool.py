"""A crash-tolerant multiprocessing pool for sweep tasks.

Each task runs in its own worker process with a dedicated result pipe
-- deliberately *not* a shared queue, so a worker dying mid-write
(segfault, OOM kill, ``terminate()`` on timeout) can corrupt nothing
shared and surfaces as a plain EOF on its own pipe.  The parent keeps
at most ``jobs`` workers in flight, re-queues a crashed or timed-out
task up to ``retries`` extra attempts, and reports it failed after
that instead of sinking the sweep.

``jobs=1`` executes inline in the calling process: zero fork overhead,
and the baseline that parallel runs must reproduce byte-for-byte
(workers compute pure functions of their task, so they do).  Per-task
timeouts are only enforced for subprocess execution -- the inline path
has no one to interrupt it.
"""

from __future__ import annotations

import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait
from time import monotonic
from typing import Any, Callable, List, Optional, Sequence

from repro.sim.parallel import mp_context


@dataclass
class TaskResult:
    """What happened to one task: a value, or why there isn't one."""

    ok: bool
    value: Any = None
    error: str = ""
    attempts: int = 1
    timed_out: bool = False


@dataclass
class _InFlight:
    index: int
    attempt: int
    process: Any
    deadline: Optional[float] = field(default=None)


def _child_main(conn, worker: Callable[[Any], Any], item: Any) -> None:
    try:
        value = worker(item)
        conn.send(("ok", value))
    except BaseException:
        try:
            conn.send(("err", traceback.format_exc()))
        except Exception:
            pass  # parent sees EOF and treats it as a crash
    finally:
        conn.close()


def run_parallel(
    worker: Callable[[Any], Any],
    items: Sequence[Any],
    jobs: int = 1,
    timeout_s: Optional[float] = None,
    retries: int = 1,
) -> List[TaskResult]:
    """Run ``worker(item)`` for every item; results align with items.

    ``worker`` must be a module-level callable (it crosses a process
    boundary when ``jobs > 1``).  Item order in the result list is
    item order in the input, regardless of completion order.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if jobs == 1:
        results = []
        for item in items:
            try:
                results.append(TaskResult(ok=True, value=worker(item)))
            except Exception:
                results.append(TaskResult(ok=False, error=traceback.format_exc()))
        return results

    ctx = mp_context()
    results: List[Optional[TaskResult]] = [None] * len(items)
    pending = deque((i, 0) for i in range(len(items)))
    running = {}  # parent conn -> _InFlight

    def finish(flight: _InFlight, result: TaskResult) -> None:
        result.attempts = flight.attempt + 1
        if result.ok or flight.attempt >= retries:
            results[flight.index] = result
        else:
            pending.append((flight.index, flight.attempt + 1))

    while pending or running:
        while pending and len(running) < jobs:
            index, attempt = pending.popleft()
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            process = ctx.Process(
                target=_child_main, args=(child_conn, worker, items[index]), daemon=True
            )
            process.start()
            # Close our copy of the write end immediately: a worker
            # death must read as EOF, and later forks must not inherit
            # this pipe's write end and keep it alive.
            child_conn.close()
            deadline = monotonic() + timeout_s if timeout_s is not None else None
            running[parent_conn] = _InFlight(index, attempt, process, deadline)

        poll: Optional[float] = None
        if timeout_s is not None:
            now = monotonic()
            poll = max(
                0.0,
                min(f.deadline for f in running.values() if f.deadline is not None) - now,
            )
        ready = connection_wait(list(running), timeout=poll)

        for conn in ready:
            flight = running.pop(conn)
            try:
                status, payload = conn.recv()
            except Exception:  # EOF/unpicklable payload = worker crash
                status, payload = (
                    "err",
                    f"worker crashed without a result (exit code "
                    f"{flight.process.exitcode})",
                )
            conn.close()
            flight.process.join()
            if status == "ok":
                finish(flight, TaskResult(ok=True, value=payload))
            else:
                finish(flight, TaskResult(ok=False, error=payload))

        if timeout_s is not None:
            now = monotonic()
            for conn, flight in list(running.items()):
                if flight.deadline is not None and now >= flight.deadline:
                    running.pop(conn)
                    conn.close()
                    flight.process.terminate()
                    flight.process.join()
                    finish(
                        flight,
                        TaskResult(
                            ok=False,
                            error=f"timed out after {timeout_s}s",
                            timed_out=True,
                        ),
                    )

    return results  # type: ignore[return-value]
