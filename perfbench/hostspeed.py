"""Host speed, read from a fixed piece of pure-Python work.

On a shared virtual machine each vCPU flips, from one second to the
next, between a fast state and states 1.7 to 4 times slower, under other
tenants' load, and the vCPUs do so independently of each other.  The benchmark therefore pins every ``repro run`` op to
one CPU, runs :func:`reference_work` on that CPU right before and right
after the op (and on every CPU around every segment of a daemon's
request loop), and divides the op's observed wall by the slowdown those
samples show against :data:`REFERENCE_S`.  The result is the op's
wall in *reference seconds*: seconds on a host where the reference work
takes ``REFERENCE_S``.  The reference work never touches ``repro``, so a
change to the program cannot move it.
"""

from __future__ import annotations

import heapq
import os
import time
from typing import Iterable, Optional

#: Seconds :func:`reference_work` takes on the reference host (the fast
#: state of the 2-vCPU Xeon VM the benchmark was written on).
REFERENCE_S = 0.042


def _work(n: int) -> float:
    start = time.perf_counter()
    heap: list = []
    table: dict = {}
    for i in range(n):
        key = i % 1021
        table[key] = table.get(key, 0.0) + i * 0.5
        heapq.heappush(heap, ((i * 7919) % 10007, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - start


def reference_work(cpus: Optional[Iterable[int]] = None,
                   n: int = 60_000) -> float:
    """Seconds a fixed mix of dict updates and heap operations takes now.

    Interpreter-bound like the simulator's own event loop.  The work is
    split evenly over ``cpus`` (default: every CPU this process may run
    on), each share pinned to its CPU, because the vCPUs change speed
    independently: time it on the CPU an op is pinned to, or on all of
    them for processes that may run anywhere.
    """
    allowed = sorted(os.sched_getaffinity(0))
    chosen = sorted(cpus) if cpus is not None else allowed
    try:
        total = 0.0
        for cpu in chosen:
            os.sched_setaffinity(0, {cpu})
            total += _work(n // len(chosen))
        return total
    finally:
        os.sched_setaffinity(0, allowed)


def slowdown(*samples: float) -> float:
    """How much slower than the reference host the samples show."""
    return sum(samples) / len(samples) / REFERENCE_S
