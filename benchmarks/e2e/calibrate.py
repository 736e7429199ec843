"""Host times rescaled by a machine-speed probe taken during the run.

The box this benchmark was defined on shares its two cores, and its speed
moves by 1.5x on a scale of seconds to minutes.  On a busy hour ten runs of
each workload spread over 8 to 25% of their median in raw seconds
(interquartile); the gate that uses this benchmark allows 25% in all.

So while a region is measured, an interval timer interrupts the workload
every ``PERIOD`` seconds and times a fixed probe (a small heap-and-dict
loop shaped like the simulator's inner loop) by the process CPU clock, so
that a probe the scheduler preempts does not read as a slow machine.  CPU
time spent between two probes is divided by how slow the closing probe ran
relative to ``REF_PROBE_S``; time the process spent off the CPU (sleeping
on the asyncio loop in ``udp_loopback``) is kept as it is.  The result is
the region's duration in *reference seconds*: what it would have taken had
the probe run at ``REF_PROBE_S`` throughout.  On the same busy-hour runs
the spread is 4 to 10% (18% on ``national_hybrid``, whose work depends on
the seed); on a quiet hour it is 5 to 10% where raw seconds manage 3 to
13%, which is the price.  Raw seconds are kept alongside.
"""

from __future__ import annotations

import gc
import heapq
import signal
import time
from dataclasses import dataclass
from typing import List, Tuple

#: Seconds between probes while a region is open (about 2% overhead).
PERIOD = 0.02
#: Probe duration the reference machine is defined by: the defining box's
#: own median when nothing else was running on it.  It fixes the unit of
#: reference seconds and nothing else.
REF_PROBE_S = 0.0004


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


# The probe's working set is built once: a probe that allocated its own
# heap and table moved the interpreter's peak RSS by 8 MB in one process
# out of three (malloc placed later blocks differently around its frees).
_CELLS = [_Cell(i, i + 1) for i in range(64)]
_HEAP = [((i * 7919) % 1009, i, _CELLS[i % 64]) for i in range(256)]
heapq.heapify(_HEAP)
_TABLE = {(a, b): [0, 0] for a in range(37) for b in range(11)}


def probe(n: int = 540) -> None:
    """Fixed work: heap replacements of tuples, dict-of-list updates, attribute reads."""
    heap, table, cells = _HEAP, _TABLE, _CELLS
    replace = heapq.heapreplace
    for i in range(n):
        t, _, cell = heap[0]
        replace(heap, ((t + 1 + (i * 7919) % 1009) % 1000003, i, cells[i & 63]))
        record = table[(cell.a % 37, t % 11)]
        record[0] += 1
        record[1] = (record[1] + cell.b) & 0xFFFFF


@dataclass
class Timing:
    """One measured region: raw and reference-speed wall and CPU seconds."""

    wall_s: float
    cpu_s: float
    ref_wall_s: float
    ref_cpu_s: float


class Region:
    """``with Region() as r: work()`` then ``r.timing``.

    Not re-entrant and main-thread only (it owns ``SIGALRM`` while open).
    """

    def __init__(self) -> None:
        self._samples: List[Tuple[float, float, float, float]] = []
        self.timing: Timing = None  # type: ignore[assignment]

    def _sample(self, signum=None, frame=None) -> None:
        # The probe allocates; a collection it happened to trigger would
        # charge the workload's garbage to the probe.
        collecting = gc.isenabled()
        gc.disable()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        probe()
        self._samples.append((wall0, cpu0, time.perf_counter(), time.process_time()))
        if collecting:
            gc.enable()

    def __enter__(self) -> "Region":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        self._begin = (time.perf_counter(), time.process_time())
        return self

    def __exit__(self, *exc) -> None:
        end = (time.perf_counter(), time.process_time())
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()  # closes the last interval
        prev_wall, prev_cpu = self._begin
        wall = cpu = ref_cpu = 0.0
        for wall0, cpu0, wall1, cpu1 in self._samples:
            last = wall0 >= end[0]
            d_wall = (end[0] if last else wall0) - prev_wall
            d_cpu = (end[1] if last else cpu0) - prev_cpu
            wall += d_wall
            cpu += d_cpu
            ref_cpu += d_cpu * REF_PROBE_S / (cpu1 - cpu0)
            if last:
                break
            prev_wall, prev_cpu = wall1, cpu1
        off_cpu = max(0.0, wall - cpu)
        self.timing = Timing(wall, cpu, off_cpu + ref_cpu, ref_cpu)
