"""Idealized dedicated communication/barrier hardware (the baselines).

Section V-A compares ReMAP against clusters of OOO2 cores with a dedicated
fine-grained communication network "similar to previous proposals [7],[24]"
assumed to cost **zero area**; Section V-C2 against clusters of OOO1 cores
with a dedicated barrier network [2],[27].  This module provides both as a
drop-in :class:`repro.cpu.ports.SplPort` implementation, so the *same
programs* (using ``spl_load``/``spl_init``/``spl_recv``) run on ReMAP and
on the baselines — only the backing hardware changes:

* point-to-point sends deliver the staged words to the destination thread's
  output queue after a fixed (small, idealized) latency, with no
  computation;
* barrier configurations release all participants a fixed latency after
  the last arrival, delivering a token (sync only — any global function
  must be computed in software, as in Figure 7(b)).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.common.errors import ConfigError, SplError
from repro.common.stats import Stats
from repro.cpu.ports import SplPort, core_waker
from repro.core.queues import OutputQueue, StagingEntry

#: Idealized network latencies (core cycles).
SEND_LATENCY = 4
BARRIER_RELEASE_LATENCY = 4
QUEUE_DEPTH = 32


class CommBinding:
    """Meaning of one config id on the dedicated network."""

    __slots__ = ("dest_thread", "barrier_id")

    def __init__(self, dest_thread: Optional[int] = None,
                 barrier_id: Optional[int] = None) -> None:
        if (dest_thread is None) == (barrier_id is None):
            raise ConfigError("binding must be a send or a barrier")
        self.dest_thread = dest_thread
        self.barrier_id = barrier_id


class CommPort(SplPort):
    """Core-side port into the dedicated network."""

    def __init__(self, controller: "DedicatedCommController",
                 slot: int) -> None:
        self.controller = controller
        self.slot = slot

    def stage_load(self, value: int, offset: int, cycle: int,
                   ready: int = 0) -> bool:
        return self.controller.stage_load(self.slot, value, offset, cycle,
                                          ready)

    def init(self, config_id: int, cycle: int) -> bool:
        return self.controller.init(self.slot, config_id, cycle)

    def recv(self, cycle: int) -> Optional[int]:
        return self.controller.recv(self.slot, cycle)

    def output_pending(self) -> bool:
        return not self.controller.output_queues[self.slot].empty

    def can_switch_out(self) -> bool:
        return self.controller.can_switch_out(self.slot)

    def on_context_change(self, thread_id: Optional[int],
                          app_id: int) -> None:
        self.controller.set_thread(self.slot, thread_id)

    def stall_kind(self) -> str:
        return self.controller.stall_kind(self.slot)

    def wait_detail(self) -> str:
        """Human-readable description of what this slot is blocked on."""
        controller = self.controller
        oq = controller.output_queues[self.slot]
        parts = [f"comm network slot {self.slot}",
                 f"output queue {len(oq)} words",
                 f"{controller.in_flight[self.slot]} deliveries in flight"]
        thread_id = controller.threads[self.slot]
        if thread_id is not None:
            for barrier_id, (participants, arrived) in \
                    sorted(controller.barriers.items()):
                if thread_id in arrived:
                    parts.append(
                        f"arrived at barrier {barrier_id} "
                        f"({len(arrived)}/{len(participants)} there)")
        return ", ".join(parts)


class DedicatedCommController:
    """Hardware queues + barrier network shared by one cluster's cores."""

    STAT_KEYS = (
        "stage_loads", "dest_absent_stalls", "sends", "barrier_arrivals",
        "barrier_releases", "output_queue_stalls", "deliveries")

    def __init__(self, n_cores: int, stats: Stats,
                 send_latency: int = SEND_LATENCY,
                 barrier_latency: int = BARRIER_RELEASE_LATENCY) -> None:
        self.n_cores = n_cores
        self.stats = stats
        stats.declare(*self.STAT_KEYS)
        self.send_latency = send_latency
        self.barrier_latency = barrier_latency
        self.staging = [StagingEntry() for _ in range(n_cores)]
        self.output_queues = [OutputQueue(QUEUE_DEPTH)
                              for _ in range(n_cores)]
        self.bindings: Dict[Tuple[int, int], CommBinding] = {}
        self.threads: List[Optional[int]] = [None] * n_cores
        self.in_flight = [0] * n_cores
        #: (deliver_cycle, dest_slot, words)
        self.pending: Deque[Tuple[int, int, List[int]]] = deque()
        #: ``wake(slot)`` callback installed by :func:`attach_network`:
        #: fired per delivery so the fast-forward scheduler can wake an
        #: elided core (see DESIGN.md).  It must not own the cores
        #: (``repro.cpu.ports.core_waker``).
        self.wake_cb = None
        #: barrier id -> (participant thread ids, arrived thread ids)
        self.barriers: Dict[int, Tuple[Tuple[int, ...], List[int]]] = {}

    def port(self, slot: int) -> CommPort:
        """A new core-side port onto ``slot``; like the SPL controller,
        this controller keeps no list of its ports (DESIGN.md §3)."""
        return CommPort(self, slot)

    # -- configuration --------------------------------------------------------

    def configure_send(self, slot: int, config_id: int,
                       dest_thread: int) -> None:
        self.bindings[(slot, config_id)] = CommBinding(dest_thread=dest_thread)

    def configure_barrier(self, slot: int, config_id: int,
                          barrier_id: int) -> None:
        self.bindings[(slot, config_id)] = CommBinding(barrier_id=barrier_id)

    def register_barrier(self, barrier_id: int, thread_ids) -> None:
        self.barriers[barrier_id] = (tuple(thread_ids), [])

    def registered_participants(self,
                                barrier_id: int) -> Optional[Tuple[int, ...]]:
        """Participants of ``barrier_id``, or ``None`` when unregistered
        (static-verifier introspection)."""
        entry = self.barriers.get(barrier_id)
        return None if entry is None else entry[0]

    def resident_threads(self) -> Tuple[int, ...]:
        """Thread ids currently attached to network slots, sorted."""
        return tuple(sorted(thread for thread in self.threads
                            if thread is not None))

    def slot_of(self, thread_id: int) -> Optional[int]:
        """The network slot hosting ``thread_id``, or ``None``.

        Public introspection twin of the send path's residency lookup:
        a send whose destination resolves to ``None`` stalls forever."""
        return self._slot_of(thread_id)

    def set_thread(self, slot: int, thread_id: Optional[int]) -> None:
        if thread_id is None and self.in_flight[slot]:
            raise SplError("switch-out with network data in flight")
        self.threads[slot] = thread_id

    # -- port operations ----------------------------------------------------------

    def stage_load(self, slot: int, value: int, offset: int,
                   cycle: int, ready: int = 0) -> bool:
        self.staging[slot].write_word(value, offset, ready)
        self.stats.bump("stage_loads")
        return True

    def init(self, slot: int, config_id: int, cycle: int) -> bool:
        binding = self.bindings.get((slot, config_id))
        if binding is None:
            raise SplError(f"comm network: unbound config {config_id} "
                           f"on slot {slot}")
        if binding.barrier_id is not None:
            return self._barrier_arrive(slot, binding.barrier_id, cycle)
        dest_slot = self._slot_of(binding.dest_thread)
        if dest_slot is None:
            self.stats.bump("dest_absent_stalls")
            return False
        data, valid, ready = self.staging[slot].seal()
        words = _staged_words(data, valid)
        self.in_flight[dest_slot] += 1
        self.pending.append(
            (max(cycle, ready) + self.send_latency, dest_slot, words))
        self.stats.bump("sends")
        return True

    def _barrier_arrive(self, slot: int, barrier_id: int,
                        cycle: int) -> bool:
        participants, arrived = self.barriers[barrier_id]
        thread_id = self.threads[slot]
        if thread_id not in participants:
            raise SplError(f"thread {thread_id} not in barrier {barrier_id}")
        self.staging[slot].seal()  # barrier token input is discarded
        arrived.append(thread_id)
        self.stats.bump("barrier_arrivals")
        if len(arrived) >= len(participants):
            for participant in participants:
                dest = self._slot_of(participant)
                if dest is None:
                    raise SplError("barrier participant not resident")
                self.in_flight[dest] += 1
                self.pending.append(
                    (cycle + self.barrier_latency, dest, [1]))
                if self.wake_cb is not None:
                    # The release flips stall_kind from "barrier" to
                    # "queue": wake any elided waiter so its remaining
                    # stall cycles are classified live, exactly as the
                    # naive loop would.
                    self.wake_cb(dest)
            del arrived[:]
            self.stats.bump("barrier_releases")
        return True

    def recv(self, slot: int, cycle: int) -> Optional[int]:
        return self.output_queues[slot].pop()

    def can_switch_out(self, slot: int) -> bool:
        return self.in_flight[slot] == 0 and self.staging[slot].empty

    def stall_kind(self, slot: int) -> str:
        """Barrier-wait when this slot's thread has arrived and waits."""
        thread_id = self.threads[slot]
        if thread_id is not None:
            for _participants, arrived in self.barriers.values():
                if thread_id in arrived:
                    return "barrier"
        return "queue"

    def _slot_of(self, thread_id: int) -> Optional[int]:
        for slot, tid in enumerate(self.threads):
            if tid == thread_id:
                return slot
        return None

    # -- snapshot contract (DESIGN.md §8) ---------------------------------------

    def snapshot_state(self) -> dict:
        """Mutable network state.  Bindings and the wake callback are
        construction/setup-time wiring recreated by the workload's setup."""
        return {
            "staging": [entry.snapshot_state() for entry in self.staging],
            "output_queues": [queue.snapshot_state()
                              for queue in self.output_queues],
            "threads": list(self.threads),
            "in_flight": list(self.in_flight),
            "pending": [[deliver, dest, list(words)]
                        for deliver, dest, words in self.pending],
            "barriers": [[bid, list(participants), list(arrived)]
                         for bid, (participants, arrived)
                         in sorted(self.barriers.items())],
        }

    def restore_state(self, state: dict) -> None:
        for entry, entry_state in zip(self.staging, state["staging"]):
            entry.restore_state(entry_state)
        for queue, queue_state in zip(self.output_queues,
                                      state["output_queues"]):
            queue.restore_state(queue_state)
        self.threads = list(state["threads"])
        self.in_flight = list(state["in_flight"])
        self.pending = deque((deliver, dest, list(words))
                             for deliver, dest, words in state["pending"])
        self.barriers = {bid: (tuple(participants), list(arrived))
                         for bid, participants, arrived
                         in state["barriers"]}

    # -- timing -----------------------------------------------------------------------

    def tick(self, cycle: int) -> None:
        while self.pending:
            deliver_cycle, dest, words = self.pending[0]
            if deliver_cycle > cycle:
                break
            queue = self.output_queues[dest]
            if not queue.space_for(len(words)):
                self.stats.bump("output_queue_stalls")
                break
            self.pending.popleft()
            queue.push_words(words)
            self.in_flight[dest] -= 1
            if self.wake_cb is not None:
                self.wake_cb(dest)
            self.stats.bump("deliveries")

    def next_event_cycle(self, now: int) -> Optional[int]:
        """Fast-forward contract (DESIGN.md): next delivery cycle, or
        ``now + 1`` while delivered words sit in an output queue (a blocked
        core may consume them on its next tick), or None when idle."""
        for queue in self.output_queues:
            if not queue.empty:
                return now + 1
        if self.pending:
            t = self.pending[0][0]
            return t if t > now else now + 1
        return None


def _staged_words(data: bytes, valid: int) -> List[int]:
    """Extract the word-aligned valid words from a sealed staging entry."""
    words = []
    for offset in range(0, len(data), 4):
        if (valid >> offset) & 0xF == 0xF:
            words.append(int.from_bytes(data[offset:offset + 4], "little",
                                        signed=True))
    if not words:
        raise SplError("send with no valid words staged")
    return words


def attach_network(machine, core_indices,
                   send_latency: int = SEND_LATENCY,
                   barrier_latency: int = BARRIER_RELEASE_LATENCY,
                   name: str = "comm") -> DedicatedCommController:
    """Wire an idealized network across arbitrary cores.

    Used both for the per-cluster OOO2+Comm network and for the chip-wide
    dedicated barrier network of the homogeneous baseline (barrier networks
    in [2],[27] span the whole machine).
    """
    controller = DedicatedCommController(
        len(core_indices), machine.stats.child(name),
        send_latency, barrier_latency)
    for slot, core_index in enumerate(core_indices):
        core = machine.cores[core_index]
        if core.spl_port is not None:
            raise ConfigError(f"core {core_index} already has a port")
        core.spl_port = controller.port(slot)
        if core.ctx is not None:
            controller.set_thread(slot, core.ctx.thread_id)
    controller.wake_cb = core_waker(
        [machine.cores[index] for index in core_indices])
    machine.add_controller(controller)
    return controller


def attach_comm_network(machine, cluster_index: int,
                        send_latency: int = SEND_LATENCY,
                        barrier_latency: int = BARRIER_RELEASE_LATENCY
                        ) -> DedicatedCommController:
    """Equip a conventional cluster with the idealized network.

    Returns the controller; callers configure sends/barriers on it.
    """
    cluster = machine.clusters[cluster_index]
    if cluster.controller is not None:
        raise ConfigError("cluster already has an SPL fabric")
    return attach_network(machine, cluster.core_indices, send_latency,
                          barrier_latency, name=f"comm{cluster_index}")
