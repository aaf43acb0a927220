"""Reference probe that converts wall time to seconds at a fixed machine speed.

The benchmark runs on shared machines whose speed drifts by tens of percent
within seconds, independently of the program.  A fixed computation timed
next to the measured work shows the current speed; scaling wall time by
``REFERENCE_S / probe`` expresses it in seconds of a machine running at the
reference speed, which cancels the drift that both see.
"""

from __future__ import annotations

import gc
import heapq
import time
from fractions import Fraction

# The probe's wall time at the reference speed: its typical reading on the
# unloaded machine the README's figures come from (2.1 GHz Xeon, Python 3.11).
REFERENCE_S = 0.012


def probe() -> float:
    """Wall time of a fixed computation mixing rational arithmetic, hashing and heaps.

    The collector is paused meanwhile: everything the probe allocates is
    freed by the time it returns, so the program's collections fall where
    they would without probes.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _timed_work()
    finally:
        if enabled:
            gc.enable()


def _timed_work() -> float:
    started = time.perf_counter()
    x = Fraction(1)
    for i in range(1, 800):
        x = (x * 3 + Fraction(1, i % 7 + 1)) / 2 if i % 40 else Fraction(1)
    counts: dict = {}
    heap: list = []
    for i in range(6000):
        key = (i % 97, i % 13, "p")
        counts[key] = counts.get(key, 0) + 1
        heapq.heappush(heap, (i * 7919 % 1009, key))
    while heap:
        heapq.heappop(heap)
    return time.perf_counter() - started


def speed(before: float, after: float) -> float:
    """Reference seconds per wall second between two probe readings."""
    return 2 * REFERENCE_S / (before + after)
