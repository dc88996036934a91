"""Machine-speed reference for timings taken on a shared virtual machine.

On a shared 2-vCPU virtual machine, the speed of a virtual CPU drifts with
the load of other tenants: a fixed loop was measured taking anywhere from 60
to 260 ms within one hour, in phases lasting from seconds to minutes, and
process CPU time drifts with it.  A run timed in a slow phase would read as a regression.  So each
run also times a fixed pure-Python loop that never calls the program,
between requests all through the run, and scales each request's time by the
loop timings taken nearest to it, to the machine speed at which that loop
takes ``REFERENCE_MS``.  The loop mixes the
operations the program spends its time on: exact rational arithmetic,
building small tuples, and dict lookups.  It runs with the cyclic garbage
collector off: a collection it triggered would walk the program's caches,
and heap work the program causes would read as machine slowdown.
"""
from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction
from typing import List, Sequence

REFERENCE_MS = 10.0


def sample_ms() -> float:
    """One timing of the reference loop, in milliseconds."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        acc = Fraction(0)
        seen = {}
        for i in range(2000):
            acc += Fraction(i % 7 - 3, 1 + i % 5)
            key = tuple(x * 2 for x in (i % 50, i % 7, 3))
            seen[key] = seen.get(key, 0) + 1
        return (time.perf_counter_ns() - t0) / 1e6
    finally:
        if was_enabled:
            gc.enable()


def samples(count: int) -> List[float]:
    return [sample_ms() for _ in range(count)]


def slowdown(cal_ms: Sequence[float]) -> float:
    """How much slower than the reference speed the machine ran: a time
    divided by this, or a rate multiplied by it, is at reference speed."""
    return statistics.median(cal_ms) / REFERENCE_MS


class Meter:
    """Reference-loop timings taken between requests, and the scaling of
    each request's time by the timings nearest to it."""

    NEAREST = 2  # loop timings around a request that set its scale

    def __init__(self, every_s: float) -> None:
        self.every_ns = int(every_s * 1e9)
        self.at_ns: List[int] = []
        self.cal_ms: List[float] = []

    def calibrate(self, force: bool = False) -> None:
        """Time the loop, unless it was timed less than ``every_s`` ago."""
        now = time.perf_counter_ns()
        if force or not self.at_ns or now - self.at_ns[-1] >= self.every_ns:
            self.cal_ms.append(sample_ms())
            self.at_ns.append(now)

    def slowdown_at(self, t_ns: int) -> float:
        i = bisect.bisect(self.at_ns, t_ns)
        half = self.NEAREST // 2
        lo = max(0, min(i - half, len(self.at_ns) - self.NEAREST))
        return slowdown(self.cal_ms[lo:lo + self.NEAREST])

    def scaled_ns(self, start_ns: int, elapsed_ns: int) -> float:
        """A request's time at reference speed."""
        return elapsed_ns / self.slowdown_at(start_ns + elapsed_ns // 2)
