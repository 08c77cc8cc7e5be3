"""Host speed, for timing on a shared machine.

On a shared host this machine's CPU speed changes by up to 2.5x within
seconds, as other tenants' load comes and goes, and the guest sees none
of it as steal time: a slow stretch simply takes longer.  No number of
repeats averages that out, so while the benchmark times something a
:class:`HostClock` samples the speed densely: a timer interrupts the
work every ``TICK_S`` of wall time to run a short fixed loop (a tick)
that uses nothing of the simulator, so that no change to the program
can move it.  The work's wall time, less the ticks, times the mean of
``TICK_REFERENCE_S / tick`` (the host's speed at each tick, relative to
the reference host) is the time the work would have taken on the
reference host at its usual speed.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Sequence

#: Wall time between ticks.
TICK_S = 0.01
#: Iterations of the arithmetic half of one tick.
TICK_LOOPS = 6000
#: Wall time of one tick at the usual speed of the reference host (2 vCPU
#: x86_64 Linux VM, CPython 3.11.7).
TICK_REFERENCE_S = 0.0010


class _Cell:
    __slots__ = ("value", "succ", "tags")

    def __init__(self, value: int) -> None:
        self.value = value
        self.succ = value + 1
        self.tags = [value]


def tick() -> float:
    """Wall time of one tick: integer arithmetic, then small-object
    allocation and attribute access.  Of the loops tried (also pointer
    chasing over a large list and dict lookups), these two together
    tracked the simulator's slowdowns best."""
    start = time.perf_counter()
    total = 0
    for i in range(TICK_LOOPS):
        total += i * i % 7
    cells = []
    for i in range(TICK_LOOPS // 5):
        cell = _Cell(i)
        cells.append(cell.value + cell.succ + cell.tags[0])
    return time.perf_counter() - start


class HostClock:
    """Ticks every ``TICK_S`` of wall time while the block runs (and once
    on entry, so there is at least one).  Uses ``SIGALRM``: one clock at
    a time, in the main thread."""

    def __init__(self) -> None:
        self.ticks: List[float] = []

    def _on_alarm(self, signum, frame) -> None:
        self.ticks.append(tick())

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.ticks.append(tick())
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def host_speed(ticks: Sequence[float]) -> float:
    """The host's mean speed over the ticks, relative to the reference."""
    return statistics.mean(TICK_REFERENCE_S / each for each in ticks)


def normalize(wall: float, ticks: Sequence[float]) -> float:
    """``wall``, measured with the ``ticks`` inside it, in seconds of the
    reference host."""
    return (wall - sum(ticks)) * host_speed(ticks)
