"""One time scale on a machine whose speed drifts.

On a shared host the same work can run 1.5 times slower for seconds or
minutes at a time (other tenants, frequency changes), which would bury
any change to the program.  The benchmark therefore times a fixed
piece of reference work between ops, and scales every duration it
reports by the reference's nominal time over the reference time
measured around it.  A reported second is a second on a machine where
the reference takes its nominal time; the nominal times are what an
Intel Xeon virtual machine with 2 vCPUs running CPython 3.11.7 measured.  The
raw wall-clock figures are kept in the run record next to the scaled
ones.

Two references are used, matched to the work they put on scale:
`CPU_REFERENCE`, Fraction and big-integer arithmetic in the benchmark's
own process, for the in-process workloads, and `SPAWN_REFERENCE`, a
bare interpreter start, for the workload that runs the CLI as
subprocesses, whose time goes mostly into process start-up.
"""

from __future__ import annotations

import bisect
import gc
import math
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Callable


def cpu_work():
    """Fraction and big-integer arithmetic and dict updates, like the program's."""
    table: dict = {}
    for _ in range(2):
        acc = Fraction(0)
        for i in range(1, 300):
            acc += Fraction(i % 7 + 1, i)
            table[i % 29] = table.get(i % 29, 0) + math.isqrt(i * i * 7919 + 1)
    return acc, table


def spawn_work():
    subprocess.run([sys.executable, "-c", "pass"], check=True)


@dataclass(frozen=True)
class Reference:
    work: Callable[[], object]
    nominal_s: float  # the reference's time on the machine the scale is pinned to
    every_s: float  # sample at most this often between ops
    window_s: float  # scale a duration by the samples within this distance


CPU_REFERENCE = Reference(cpu_work, 0.0032, 0.1, 1.0)
SPAWN_REFERENCE = Reference(spawn_work, 0.075, 0.5, 3.0)


class SpeedProbe:
    def __init__(self, reference: Reference):
        self.reference = reference
        self.times: list[float] = []  # when each sample started
        self.durations: list[float] = []
        self._last = -math.inf
        reference.work()  # warm-up, not a sample

    def sample(self, force: bool = False) -> None:
        """Times the reference work, at most every `every_s` unless forced."""
        if not force and perf_counter() - self._last < self.reference.every_s:
            return
        gc.disable()  # a collection would time the program's heap, not the machine
        try:
            t0 = perf_counter()
            self.reference.work()
            self.durations.append(perf_counter() - t0)
        finally:
            gc.enable()
        self.times.append(t0)
        self._last = perf_counter()

    def scale(self, t: float) -> float:
        """Factor for a duration measured at time t: the nominal reference
        time over the median of the samples within `window_s` of t (the
        nearest sample if there is none)."""
        window = self.reference.window_s
        lo = bisect.bisect_left(self.times, t - window)
        hi = bisect.bisect_right(self.times, t + window)
        if lo == hi:
            i = min(range(len(self.times)), key=lambda j: abs(self.times[j] - t))
            lo, hi = i, i + 1
        return self.reference.nominal_s / statistics.median(self.durations[lo:hi])
