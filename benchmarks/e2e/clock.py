"""The benchmark's clock: CPU seconds, rescaled to a reference speed.

A cell run is single-threaded, does no I/O and never sleeps, so on a
quiet machine its CPU time *is* its wall-clock time.  The sandbox the
benchmark has to be accepted in is a shared two-vCPU VM: neighbours
deschedule the process for a third of a run at times, and the speed at
which it executes drifts by a factor of 1.5-2 over minutes.  Two
counter-measures, both measured before they were adopted (README,
"Noise"):

* every host time is read from ``process_time`` — over the same 30
  repetitions of one cell on a busy box, the quartile spread of
  wall-clock was 31% of the median, that of CPU time 8%;
* the end-to-end run executes :func:`calibrate`, a fixed pure-Python
  kernel, before and after every cell run, and reports the cell's CPU
  time multiplied by ``REFERENCE_S / (mean of the two kernel times)``:
  CPU seconds *as the reference box would have spent them when quiet*.
  Over the ten runs of an acceptance set this halves the spread of the
  reported medians (``point_cpu_s`` per workload: 14-21% -> 5-10%).

The kernel uses the standard library only and is part of the
benchmark: a change that claims a gain may not touch it.
"""

from __future__ import annotations

import gc
import heapq
from time import process_time as now

REFERENCE_S = 0.03
"""The kernel's CPU time on the reference box when it is quiet
(rounded; it only fixes the scale of the reported seconds)."""


def calibrate() -> float:
    """CPU seconds the fixed kernel takes right now: heap pushes and
    pops of fresh tuples plus dict updates — allocation, comparison and
    hashing, what the simulator's agenda and the nodes' stores do.

    The cyclic collector is off while it runs.  Left on, the kernel's
    allocations trigger it, and it then sweeps up whatever garbage the
    previous cell run left: the kernel took 0.04 s or 0.11 s depending
    on the workload it ran next to.  (A kernel on plain ints needs no
    such care, but follows the speed of this allocation-heavy program
    only half as well.)
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = now()
        heap: list[tuple[int, int]] = []
        counts: dict[int, int] = {}
        push, pop = heapq.heappush, heapq.heappop
        for i in range(30000):
            push(heap, ((i * 7919) % 10007, i))
            key = i & 1023
            counts[key] = counts.get(key, 0) + 1
        while heap:
            pop(heap)
        return now() - start
    finally:
        if was_enabled:
            gc.enable()


def scale(*kernel_times: float) -> float:
    """Factor that turns CPU seconds measured next to these kernel runs
    into reference seconds."""
    return REFERENCE_S * len(kernel_times) / sum(kernel_times)
