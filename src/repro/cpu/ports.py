"""Interface between a core and its SPL (or substitute) communication unit.

The pipeline executes ``spl_*`` instructions non-speculatively at the ROB
head through this port.  The real SPL implementation lives in
:mod:`repro.core.controller`; the OOO2+Comm baseline provides an idealized
hardware-queue implementation in :mod:`repro.baselines.comm_network`.
All methods are non-blocking: a ``False``/``None`` return means "retry next
cycle" (queue full, destination not resident, output empty...).

Fast-forward note (see the scheduler contract in DESIGN.md): a core
blocked in ``recv`` is *externally driven* — it cannot bound its own
wake-up.  Two hooks keep the fast-forward scheduler exact anyway:
:meth:`SplPort.output_pending` lets the core's ``next_event_cycle`` report
"must tick next cycle" while delivered words already sit in its output
queue, and the controller behind the port sets the core's ``ff_poke`` flag
whenever it delivers new words, waking a core the machine had stopped
ticking (:func:`core_waker`).
"""

from __future__ import annotations

import weakref
from typing import Callable, Optional, Sequence


class SplPort:
    """Abstract core-side port; concrete units override all four methods."""

    def stage_load(self, value: int, offset: int, cycle: int,
                   ready: int = 0) -> bool:
        """``spl_load``/``spl_loadm``: place a word into the staging entry.

        ``ready`` is the cycle the value actually arrives (cache latency for
        ``spl_loadm``); the fabric will not consume the sealed entry before
        then, but the instruction itself completes immediately.
        """
        raise NotImplementedError

    def init(self, config_id: int, cycle: int) -> bool:
        """``spl_init``: seal staging and issue it with ``config_id``."""
        raise NotImplementedError

    def recv(self, cycle: int) -> Optional[int]:
        """``spl_recv``/``spl_store``: pop a word from the output queue."""
        raise NotImplementedError

    def output_pending(self) -> bool:
        """True when :meth:`recv` could return a word right now.

        Only consulted by the fast-forward scheduler.  The default is the
        safe over-approximation: a unit that cannot answer reports True,
        which keeps a core blocked in ``recv`` ticking every cycle (naive
        behaviour) instead of being skipped past a delivery.
        """
        return True

    def can_switch_out(self) -> bool:
        """True when no in-flight fabric results still target this core."""
        return True

    def stall_kind(self) -> str:
        """Why a blocked ``spl_*`` op at the ROB head is waiting.

        ``"barrier"`` when the unit is gathering a barrier (the thread
        arrived and awaits the release), ``"queue"`` for ordinary
        queue/fabric occupancy.  Used by the cycle-accounting profiler to
        split barrier-wait from SPL-queue-stall cycles.
        """
        return "queue"

    def wait_detail(self) -> str:
        """Queue/barrier occupancy behind a blocked ``spl_*`` op.

        Free-form text folded into deadlock wait-state reports (see
        :meth:`repro.system.machine.Machine.wait_reports`); units that
        cannot introspect return the empty string.
        """
        return ""

    def on_context_change(self, thread_id: Optional[int], app_id: int) -> None:
        """Notify the unit that the core now runs a different thread."""


def core_waker(cores: Sequence) -> Callable[[int], None]:
    """A controller's ``wake(slot)`` callback: pokes ``cores[slot]``.

    The references are non-owning.  A core owns its port and the port
    owns its controller, so a strong reference from the controller back
    to the core would make a cycle that keeps a finished machine alive
    until the cyclic collector runs (DESIGN.md §3).
    """
    refs = [weakref.proxy(core) for core in cores]

    def wake(slot: int) -> None:
        refs[slot].ff_poke = True

    return wake
