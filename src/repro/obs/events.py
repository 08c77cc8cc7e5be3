"""The observability event taxonomy.

Every simulated layer publishes structured :class:`Event` records into the
machine's :class:`~repro.obs.bus.EventBus`.  An event is ``(cycle, source,
kind, args)``:

* ``cycle``  — core-clock cycle the event refers to;
* ``source`` — the emitting structure, e.g. ``cpu3``, ``spl0``, ``mem1``,
  ``bus``, ``machine``;
* ``kind``   — one of the constants below;
* ``args``   — kind-specific payload (kept as the keyword arguments the
  publisher passed to :meth:`EventBus.emit`).

The taxonomy (see docs/OBSERVABILITY.md for payload details):

=================  ==========================================================
kind               meaning
=================  ==========================================================
``cycle_span``     cpu: a run of consecutive cycles with one stall class
``spl_stage``      core: ``spl_load`` wrote a word into the staging entry
``queue_push``     core: entry appended to an SPL input/output queue
``queue_pop``      core: entry consumed from an SPL input/output queue
``queue_full``     core: push refused — the queue is at capacity
``queue_stall``    core: fabric delivery blocked on a full output queue
``spl_issue``      core: a partition issued one fabric evaluation
``spl_deliver``    core: fabric results landed in output queues
``spl_reconfig``   core: a partition began streaming a new configuration
``partition_set``  core: the fabric was spatially repartitioned
``barrier_arrive`` core: a thread's barrier arrival reached the table
``barrier_release`` core: the Barrier Table released a generation
``dest_stall``     core: issue refused (absent destination / inflight cap)
``mem_miss``       mem: an access missed a private level (payload level)
``bus_wait``       mem: bus arbitration made a transaction wait
``migrate``        system: a thread moved between cores
``watchdog``       system: the deadlock watchdog saw stalled cores
=================  ==========================================================
"""

from __future__ import annotations

from typing import Any, Dict

# -- cpu ----------------------------------------------------------------------
CYCLE_SPAN = "cycle_span"

# -- core (SPL fabric, queues, tables) ----------------------------------------
SPL_STAGE = "spl_stage"
QUEUE_PUSH = "queue_push"
QUEUE_POP = "queue_pop"
QUEUE_FULL = "queue_full"
QUEUE_STALL = "queue_stall"
SPL_ISSUE = "spl_issue"
SPL_DELIVER = "spl_deliver"
SPL_RECONFIG = "spl_reconfig"
PARTITION_SET = "partition_set"
BARRIER_ARRIVE = "barrier_arrive"
BARRIER_RELEASE = "barrier_release"
DEST_STALL = "dest_stall"

SPL_KINDS = frozenset(
    (SPL_STAGE, QUEUE_PUSH, QUEUE_POP, QUEUE_FULL, QUEUE_STALL, SPL_ISSUE,
     SPL_DELIVER, SPL_RECONFIG, PARTITION_SET, BARRIER_ARRIVE,
     BARRIER_RELEASE, DEST_STALL))

# -- mem ----------------------------------------------------------------------
MEM_MISS = "mem_miss"
BUS_WAIT = "bus_wait"

MEM_KINDS = frozenset((MEM_MISS, BUS_WAIT))

# -- system -------------------------------------------------------------------
MIGRATE = "migrate"
WATCHDOG = "watchdog"

SYSTEM_KINDS = frozenset((MIGRATE, WATCHDOG))

# -- cycle-accounting classes (payload of ``cycle_span``) ---------------------
CLS_COMPUTE = "compute"
CLS_MEM = "mem_stall"
CLS_SPL_QUEUE = "spl_queue_stall"
CLS_BARRIER = "barrier_wait"
CLS_IDLE = "idle"

#: Every bucket of the cycle-accounting identity, in report order.
SPAN_CLASSES = (CLS_COMPUTE, CLS_SPL_QUEUE, CLS_BARRIER, CLS_MEM, CLS_IDLE)


class Event:
    """One published observability record."""

    __slots__ = ("cycle", "source", "kind", "args")

    def __init__(self, cycle: int, source: str, kind: str,
                 args: Dict[str, Any]) -> None:
        self.cycle = cycle
        self.source = source
        self.kind = kind
        self.args = args

    def get(self, key: str, default: Any = None) -> Any:
        return self.args.get(key, default)

    def __repr__(self) -> str:
        payload = ", ".join(f"{k}={v!r}" for k, v in self.args.items())
        return (f"Event({self.cycle}, {self.source}, {self.kind}"
                f"{', ' if payload else ''}{payload})")
