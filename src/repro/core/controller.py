"""The SPL cluster controller: sharing, partitioning, issue, and barriers.

One controller manages the fabric shared by the (four) cores of an SPL
cluster.  It runs at the 500 MHz fabric clock (every fourth core cycle) and
implements the behaviour of Section II:

* **Temporal sharing** — each fabric cycle, every partition issues at most
  one request, selected round-robin among the cores assigned to it.
* **Spatial partitioning** — the 24 rows may be split into up to four
  virtual clusters; a function whose mapping needs more rows than its
  partition owns is *virtualized*, raising its initiation interval.
* **Reconfiguration** — a partition switching to a different function
  first drains its pipeline and then spends one fabric cycle per row
  streaming configuration.
* **Destination routing** — requests carry a destination thread; the
  Thread-to-Core Table resolves it and counts in-flight results so the
  consumer cannot be switched out while data is in flight (Section II-B1).
* **Barriers** — barrier-flagged requests wait at the head of the input
  queues until the Barrier Table (fed by the inter-cluster barrier bus)
  reports all participants arrived, then one fabric pass consumes every
  local participant's entry and broadcasts the results (Section II-B2).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.config import SPL_CLOCK_RATIO, SplConfig
from repro.common.errors import ConfigError, SplError
from repro.common.stats import Stats
from repro.core.function import SplFunction
from repro.core.mapper import initiation_interval, virtual_latency
from repro.core.queues import (InputQueue, OutputQueue, SplRequest,
                               StagingEntry)
from repro.core.tables import BarrierBus, BarrierTable, ThreadToCoreTable
from repro.cpu.ports import SplPort
from repro.obs import events as ev
from repro.obs.bus import EventBus


class SplBinding:
    """A (core slot, config id) binding installed by the runtime."""

    __slots__ = ("function", "dest_thread", "barrier_id")

    def __init__(self, function: SplFunction,
                 dest_thread: Optional[int] = None,
                 barrier_id: Optional[int] = None) -> None:
        if function.is_barrier != (barrier_id is not None):
            raise ConfigError("barrier flag and barrier id must agree")
        self.function = function
        self.dest_thread = dest_thread
        self.barrier_id = barrier_id


class _Partition:
    """One virtual cluster of fabric rows."""

    __slots__ = ("index", "rows", "cores", "loaded", "reconfig_until",
                 "next_issue", "events", "rr")

    def __init__(self, index: int, rows: int, cores: List[int]) -> None:
        self.index = index
        self.rows = rows
        self.cores = cores
        self.loaded: Optional[SplFunction] = None
        self.reconfig_until = 0
        self.next_issue = 0
        # (complete_fabric_cycle, [(dest_slot, words, release_inflight)])
        self.events: List[Tuple[int, List[Tuple[int, List[int], bool]]]] = []
        self.rr = 0


class CoreSplPort(SplPort):
    """Core-side view of the shared fabric (one per sharing core)."""

    def __init__(self, controller: "SplClusterController", slot: int) -> None:
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
        self.controller.table.set_thread(self.slot, thread_id, app_id)

    def stall_kind(self) -> str:
        return self.controller.stall_kind(self.slot)

    def wait_detail(self) -> str:
        """Human-readable description of what this slot is blocked on."""
        controller = self.controller
        iq = controller.input_queues[self.slot]
        oq = controller.output_queues[self.slot]
        parts = [f"spl cluster {controller.cluster_id} slot {self.slot}",
                 f"input queue {len(iq)}/{iq.capacity} entries",
                 f"output queue {len(oq)} words"]
        head = iq.head()
        if head is not None:
            binding = controller.bindings.get((self.slot, head.config_id))
            if binding is not None and binding.barrier_id is not None:
                parts.append(f"head waits on barrier {binding.barrier_id}")
            else:
                parts.append(f"head is config {head.config_id}")
        return ", ".join(parts)


class SplClusterController:
    """Controller for one SPL cluster (fabric + queues + tables)."""

    #: Every counter this controller's stats scope may touch.
    STAT_KEYS = (
        "stage_loads", "input_queue_full", "barrier_arrivals",
        "dest_absent_stalls", "inflight_cap_stalls", "requests",
        "deliveries", "output_queue_stalls", "fabric_full_stalls",
        "reconfigurations", "reconfig_rows", "issues", "rows_evaluated",
        "barrier_releases")

    def __init__(self, cluster_id: int, config: SplConfig,
                 barrier_bus: BarrierBus, stats: Stats,
                 obs: Optional[EventBus] = None) -> None:
        self.cluster_id = cluster_id
        self.config = config
        self.stats = stats
        stats.declare(*self.STAT_KEYS)
        self.obs = obs if obs is not None else EventBus()
        self._src = f"spl{cluster_id}"
        self._now = 0  # last core cycle seen by tick(), for async events
        self.table = ThreadToCoreTable(config.sharers, config.max_ids)
        self.barrier_table = BarrierTable(cluster_id, barrier_bus)
        self.barrier_bus = barrier_bus
        self.staging = [StagingEntry() for _ in range(config.sharers)]
        self.input_queues = [InputQueue(config.input_queue_entries)
                             for _ in range(config.sharers)]
        self.output_queues = [OutputQueue(config.output_queue_words)
                              for _ in range(config.sharers)]
        #: Optional ``wake(slot)`` callback installed by the machine: fired
        #: on every delivery into a slot's output queue so the fast-forward
        #: scheduler can wake a core it stopped ticking (see DESIGN.md).
        #: It must not own the cores (``repro.cpu.ports.core_waker``).
        self.wake_cb = None
        self.bindings: Dict[Tuple[int, int], SplBinding] = {}
        self.core_partition = [0] * config.sharers
        self.partitions = [_Partition(0, config.rows,
                                      list(range(config.sharers)))]

    def port(self, slot: int) -> CoreSplPort:
        """A new core-side port onto ``slot``.  The port owns this
        controller and the core owns the port; the controller keeps no
        list of its ports, so no reference points back (DESIGN.md §3)."""
        return CoreSplPort(self, slot)

    # -- runtime configuration ---------------------------------------------------

    def configure(self, slot: int, config_id: int, function: SplFunction,
                  dest_thread: Optional[int] = None,
                  barrier_id: Optional[int] = None) -> None:
        """Install a configuration binding for ``slot``."""
        if not 0 <= config_id < self.config.max_ids:
            raise ConfigError(f"config id {config_id} out of range")
        self.bindings[(slot, config_id)] = SplBinding(function, dest_thread,
                                                      barrier_id)

    def resident_threads(self) -> Tuple[int, ...]:
        """Thread ids currently mapped to this cluster's slots, sorted.

        Static-verifier introspection: the thread-to-core table is what
        ``spl_init`` consults to resolve a ``dest_thread``."""
        return tuple(sorted(thread for thread in self.table.thread_ids
                            if thread is not None))

    def set_partitions(self, row_counts: List[int],
                       core_assignment: Optional[List[int]] = None) -> None:
        """Spatially partition the fabric (Section II-A).

        ``row_counts`` gives the rows of each virtual cluster;
        ``core_assignment`` maps each core slot to a partition index
        (default: all cores to partition 0).
        """
        if not 1 <= len(row_counts) <= self.config.max_partitions:
            raise ConfigError("bad partition count")
        if sum(row_counts) > self.config.rows:
            raise ConfigError("partition rows exceed fabric rows")
        if any(r < 1 for r in row_counts):
            raise ConfigError("empty partition")
        assignment = core_assignment or [0] * self.config.sharers
        if len(assignment) != self.config.sharers or \
                any(not 0 <= p < len(row_counts) for p in assignment):
            raise ConfigError("bad core-to-partition assignment")
        for partition in self.partitions:
            if partition.events:
                raise SplError("repartition while results in flight")
        self.core_partition = list(assignment)
        self.partitions = [
            _Partition(i, rows,
                       [s for s, p in enumerate(assignment) if p == i])
            for i, rows in enumerate(row_counts)
        ]
        if self.obs.active:
            self.obs.emit(self._now, self._src, ev.PARTITION_SET,
                          rows=list(row_counts), assignment=list(assignment))

    # -- core-port operations -------------------------------------------------------

    def stage_load(self, slot: int, value: int, offset: int,
                   cycle: int, ready: int = 0) -> bool:
        self.staging[slot].write_word(value, offset, ready)
        self.stats.bump("stage_loads")
        if self.obs.active:
            self.obs.emit(cycle, self._src, ev.SPL_STAGE, slot=slot,
                          offset=offset)
        return True

    def init(self, slot: int, config_id: int, cycle: int) -> bool:
        binding = self.bindings.get((slot, config_id))
        if binding is None:
            raise SplError(
                f"cluster {self.cluster_id} core slot {slot}: spl_init with "
                f"unbound config id {config_id}")
        queue = self.input_queues[slot]
        if queue.full:
            self.stats.bump("input_queue_full")
            if self.obs.active:
                self.obs.emit(cycle, self._src, ev.QUEUE_FULL,
                              queue=f"iq{slot}", depth=len(queue))
            return False
        if binding.barrier_id is not None:
            data, valid, ready = self.staging[slot].seal()
            request = SplRequest(config_id, data, valid, slot, cycle, ready)
            queue.push(request)
            thread_id = self.table.thread_ids[slot]
            if thread_id is None:
                raise SplError("barrier arrival from a core with no thread")
            self.barrier_table.arrive(binding.barrier_id, thread_id, cycle,
                                      app_id=self.table.app_ids[slot])
            self.stats.bump("barrier_arrivals")
            if self.obs.active:
                self.obs.emit(cycle, self._src, ev.QUEUE_PUSH,
                              queue=f"iq{slot}", depth=len(queue))
                self.obs.emit(cycle, self._src, ev.BARRIER_ARRIVE,
                              barrier=binding.barrier_id, thread=thread_id,
                              slot=slot)
            return True
        if binding.dest_thread is not None:
            dest_slot = self.table.lookup(binding.dest_thread)
            if dest_slot is None:
                # Destination thread not resident: refuse to issue
                # (Section II-B1) so the producer cannot flood the fabric.
                self.stats.bump("dest_absent_stalls")
                if self.obs.active:
                    self.obs.emit(cycle, self._src, ev.DEST_STALL,
                                  slot=slot, reason="dest_absent")
                return False
        else:
            dest_slot = slot
        if not self.table.try_reserve(dest_slot):
            self.stats.bump("inflight_cap_stalls")
            if self.obs.active:
                self.obs.emit(cycle, self._src, ev.DEST_STALL, slot=slot,
                              reason="inflight_cap")
            return False
        data, valid, ready = self.staging[slot].seal()
        request = SplRequest(config_id, data, valid, slot, cycle, ready)
        request.dest_slot = dest_slot
        queue.push(request)
        self.stats.bump("requests")
        if self.obs.active:
            self.obs.emit(cycle, self._src, ev.QUEUE_PUSH,
                          queue=f"iq{slot}", depth=len(queue))
        return True

    def recv(self, slot: int, cycle: int) -> Optional[int]:
        value = self.output_queues[slot].pop()
        if value is not None and self.obs.active:
            self.obs.emit(cycle, self._src, ev.QUEUE_POP,
                          queue=f"oq{slot}",
                          depth=len(self.output_queues[slot]))
        return value

    def stall_kind(self, slot: int) -> str:
        """See :meth:`repro.cpu.ports.SplPort.stall_kind`."""
        head = self.input_queues[slot].head()
        if head is not None:
            binding = self.bindings.get((slot, head.config_id))
            if binding is not None and binding.barrier_id is not None:
                return "barrier"
        return "queue"

    def can_switch_out(self, slot: int) -> bool:
        return (self.table.can_switch_out(slot)
                and self.staging[slot].empty
                and self.input_queues[slot].empty)

    # -- snapshot contract (DESIGN.md §8) ----------------------------------------------

    def _binding_key_of(self, function: SplFunction) -> Optional[list]:
        """Stable identifier for a loaded function: the first (sorted)
        binding key that references this exact instance.  Setup recreates
        the same instance-sharing structure on the restore target, so the
        key resolves back to the equivalent object."""
        for key in sorted(self.bindings):
            if self.bindings[key].function is function:
                return list(key)
        raise SplError("loaded function has no binding (cannot snapshot)")

    def snapshot_state(self) -> dict:
        """Mutable controller state.  Bindings, ports, and the wake
        callback are runtime configuration: they are recreated by workload
        setup / machine construction, not serialized.  Stateful function
        instances (DELAY registers) are captured per binding key."""
        return {
            "now": self._now,
            "table": self.table.snapshot_state(),
            "barrier_table": self.barrier_table.snapshot_state(),
            "staging": [entry.snapshot_state() for entry in self.staging],
            "input_queues": [q.snapshot_state() for q in self.input_queues],
            "output_queues": [q.snapshot_state() for q in self.output_queues],
            "core_partition": list(self.core_partition),
            "partitions": [{
                "index": p.index,
                "rows": p.rows,
                "cores": list(p.cores),
                "loaded": (None if p.loaded is None
                           else self._binding_key_of(p.loaded)),
                "reconfig_until": p.reconfig_until,
                "next_issue": p.next_issue,
                "events": [[complete,
                            [[slot, list(words), bool(release)]
                             for slot, words, release in deliveries]]
                           for complete, deliveries in p.events],
                "rr": p.rr,
            } for p in self.partitions],
            # DELAY-register state keyed by DFG node index (ints, so JSON
            # needs a pair list rather than a dict).
            "function_state": [
                [list(key),
                 sorted(self.bindings[key].function.state.items())]
                for key in sorted(self.bindings)],
        }

    def restore_state(self, state: dict) -> None:
        self._now = state["now"]
        self.table.restore_state(state["table"])
        self.barrier_table.restore_state(state["barrier_table"])
        for entry, entry_state in zip(self.staging, state["staging"]):
            entry.restore_state(entry_state)
        for queue, queue_state in zip(self.input_queues,
                                      state["input_queues"]):
            queue.restore_state(queue_state)
        for queue, queue_state in zip(self.output_queues,
                                      state["output_queues"]):
            queue.restore_state(queue_state)
        self.core_partition = list(state["core_partition"])
        self.partitions = []
        for record in state["partitions"]:
            partition = _Partition(record["index"], record["rows"],
                                   list(record["cores"]))
            if record["loaded"] is not None:
                key = tuple(record["loaded"])
                if key not in self.bindings:
                    raise SplError(f"snapshot references unbound config "
                                   f"{key}; was setup re-run?")
                partition.loaded = self.bindings[key].function
            partition.reconfig_until = record["reconfig_until"]
            partition.next_issue = record["next_issue"]
            partition.events = [
                (complete, [(slot, list(words), bool(release))
                            for slot, words, release in deliveries])
                for complete, deliveries in record["events"]]
            partition.rr = record["rr"]
            self.partitions.append(partition)
        for key, fn_state in state["function_state"]:
            binding = self.bindings.get(tuple(key))
            if binding is None:
                raise SplError(f"snapshot references unbound config {key}")
            binding.function.state.clear()
            binding.function.state.update(
                {index: value for index, value in fn_state})

    # -- fabric clock ------------------------------------------------------------------

    def tick(self, cycle: int) -> None:
        self._now = cycle
        if cycle % SPL_CLOCK_RATIO:
            return
        fnow = cycle // SPL_CLOCK_RATIO
        for partition in self.partitions:
            self._deliver(partition, fnow)
            if not self._try_issue_barriers(partition, fnow, cycle):
                self._try_issue(partition, fnow, cycle)

    def next_event_cycle(self, now: int) -> Optional[int]:
        """Earliest core cycle > ``now`` at which ticking this controller
        can change state or bump a counter (fast-forward contract,
        DESIGN.md).  A bound may be *early* — the machine then just ticks a
        few no-op fabric cycles — but must never be late: every skipped
        fabric tick has to be a provable no-op.
        """
        ratio = SPL_CLOCK_RATIO
        for queue in self.output_queues:
            if not queue.empty:
                # A blocked core may consume this data on its very next
                # tick (recv happens core-side, before our tick).
                return now + 1
        best: Optional[int] = None
        next_fabric = (now // ratio + 1) * ratio
        fnow = now // ratio

        def consider(candidate: int) -> None:
            nonlocal best
            if best is None or candidate < best:
                best = candidate

        for partition in self.partitions:
            if not partition.events:
                continue
            if (fnow >= partition.reconfig_until and partition.cores
                    and len(partition.events) >= partition.rows):
                # fabric_full_stalls is charged on every fabric tick
                consider(next_fabric)
            for complete, _ in partition.events:
                t = complete * ratio
                consider(t if t > now else now + 1)
        for slot in range(self.config.sharers):
            request = self.input_queues[slot].head()
            if request is None:
                continue
            binding = self.bindings.get((slot, request.config_id))
            if binding is None:
                return now + 1  # let the tick raise, exactly like naive
            if binding.barrier_id is not None:
                t = self.barrier_table.next_ready_cycle(
                    binding.barrier_id, now)
                if t is None:
                    continue  # a participant is missing: its arrival is
                    # driven by (and bounded through) that core's events
                partition = self.partitions[
                    self._barrier_partition(binding.barrier_id)]
                t = max(t, request.ready,
                        partition.reconfig_until * ratio, now + 1)
                if partition.loaded is binding.function:
                    t = max(t, partition.next_issue * ratio)
                consider(-(-t // ratio) * ratio)
                continue
            partition = self.partitions[self.core_partition[slot]]
            t = max(request.ready, now + 1)
            if partition.loaded is binding.function:
                t = max(t, partition.reconfig_until * ratio,
                        partition.next_issue * ratio)
            elif not partition.events:
                t = max(t, partition.reconfig_until * ratio)
            # else: the partition must drain before reconfiguring; its
            # pending events (above) bound the wake-up.
            consider(-(-t // ratio) * ratio)
        return best

    def _try_issue_barriers(self, partition: _Partition, fnow: int,
                            cycle: int) -> bool:
        """Attempt barrier issue on this partition; True if it consumed the
        partition's issue slot this fabric cycle.

        Barrier heads may sit on any sharer core's queue, regardless of
        that core's partition assignment: the barrier executes on its
        designated partition while gathering all local participants'
        entries.
        """
        if fnow < partition.reconfig_until or \
                len(partition.events) >= partition.rows:
            return False
        seen = set()
        for slot in range(self.config.sharers):
            request = self.input_queues[slot].head()
            if request is None or request.ready > cycle:
                continue
            binding = self.bindings[(slot, request.config_id)]
            barrier_id = binding.barrier_id
            if barrier_id is None or barrier_id in seen:
                continue
            seen.add(barrier_id)
            if self._barrier_partition(barrier_id) != partition.index:
                continue
            if self._issue_barrier(partition, slot, binding, fnow, cycle):
                return True
        return False

    def _deliver(self, partition: _Partition, fnow: int) -> None:
        if not partition.events:
            return
        remaining = []
        for complete, deliveries in partition.events:
            if complete > fnow:
                remaining.append((complete, deliveries))
                continue
            if all(self.output_queues[slot].space_for(len(words))
                   for slot, words, _ in deliveries):
                for slot, words, release in deliveries:
                    self.output_queues[slot].push_words(words)
                    if release:
                        self.table.release(slot)
                    if self.wake_cb is not None:
                        self.wake_cb(slot)
                    if self.obs.active:
                        self.obs.emit(self._now, self._src, ev.QUEUE_PUSH,
                                      queue=f"oq{slot}",
                                      depth=len(self.output_queues[slot]))
                self.stats.bump("deliveries")
                if self.obs.active:
                    self.obs.emit(self._now, self._src, ev.SPL_DELIVER,
                                  partition=partition.index,
                                  slots=[slot for slot, _, _ in deliveries])
            else:
                self.stats.bump("output_queue_stalls")
                if self.obs.active:
                    self.obs.emit(self._now, self._src, ev.QUEUE_STALL,
                                  partition=partition.index)
                remaining.append((complete, deliveries))
        partition.events = remaining

    def _try_issue(self, partition: _Partition, fnow: int,
                   cycle: int) -> None:
        if fnow < partition.reconfig_until or not partition.cores:
            return
        if len(partition.events) >= partition.rows:
            self.stats.bump("fabric_full_stalls")
            return
        n = len(partition.cores)
        for step in range(n):
            slot = partition.cores[(partition.rr + step) % n]
            request = self.input_queues[slot].head()
            if request is None or request.ready > cycle:
                continue
            binding = self.bindings[(slot, request.config_id)]
            function = binding.function
            if binding.barrier_id is not None:
                continue  # handled by _try_issue_barriers
            if partition.loaded is not function:
                if partition.events:
                    return  # drain before reconfiguring
                self._reconfigure(partition, function, fnow)
                return
            if fnow < partition.next_issue:
                return  # initiation interval not yet satisfied
            self._issue_regular(partition, slot, function, fnow)
            partition.rr = (partition.rr + step + 1) % n
            return

    def _reconfigure(self, partition: _Partition, function: SplFunction,
                     fnow: int) -> None:
        rows_to_load = min(function.rows, partition.rows)
        partition.reconfig_until = fnow + \
            rows_to_load * self.config.config_cycles_per_row
        partition.loaded = function
        partition.next_issue = partition.reconfig_until
        self.stats.bump("reconfigurations")
        self.stats.bump("reconfig_rows", rows_to_load)
        if self.obs.active:
            self.obs.emit(self._now, self._src, ev.SPL_RECONFIG,
                          partition=partition.index, function=function.name,
                          rows=rows_to_load,
                          fcycles=partition.reconfig_until - fnow)

    def _issue_regular(self, partition: _Partition, slot: int,
                       function: SplFunction, fnow: int) -> None:
        request = self.input_queues[slot].pop()
        if self.wake_cb is not None:
            # The pop can re-classify the slot's wait (stall_kind reads the
            # queue head): wake the core if it was elided.
            self.wake_cb(slot)
        outputs = function.evaluate_entry(request.data, request.valid)
        beats = StagingEntry.beats(request.valid)
        latency = virtual_latency(function.rows, partition.rows) + beats
        complete = fnow + latency
        partition.events.append(
            (complete, [(request.dest_slot, outputs, True)]))
        interval = max(initiation_interval(function.rows, partition.rows),
                       beats, function.feedback_ii)
        partition.next_issue = fnow + interval
        self.stats.bump("issues")
        self.stats.bump("rows_evaluated", function.rows)
        if self.obs.active:
            self.obs.emit(self._now, self._src, ev.QUEUE_POP,
                          queue=f"iq{slot}",
                          depth=len(self.input_queues[slot]))
            self.obs.emit(self._now, self._src, ev.SPL_ISSUE,
                          partition=partition.index, slot=slot,
                          function=function.name, rows=function.rows,
                          latency=latency, interval=interval)

    def _issue_barrier(self, partition: _Partition, slot: int,
                       binding: SplBinding, fnow: int, cycle: int) -> bool:
        barrier_id = binding.barrier_id
        if not self.barrier_table.ready(barrier_id, cycle):
            return False
        local_slots = self._local_participants(barrier_id)
        if slot not in local_slots:
            raise SplError(f"barrier {barrier_id}: issuing core not a "
                           f"registered participant")
        # Every local participant must have its barrier entry at the head
        # of its input queue, in this partition.
        heads = {}
        for participant in local_slots:
            head = self.input_queues[participant].head()
            if head is None or head.ready > cycle:
                return False
            head_binding = self.bindings[(participant, head.config_id)]
            if head_binding.barrier_id != barrier_id:
                return False
            heads[participant] = head
        function = binding.function
        if partition.loaded is not function:
            if partition.events:
                return False
            self._reconfigure(partition, function, fnow)
            return True  # reconfiguration consumed this fabric cycle
        if fnow < partition.next_issue:
            return False
        for participant in local_slots:
            if not self.table.try_reserve(participant):
                raise SplError("in-flight counter saturated at barrier")
        entries = {}
        for slot_index, participant in enumerate(sorted(local_slots)):
            head = self.input_queues[participant].pop()
            entries[slot_index] = (head.data, head.valid)
            if self.wake_cb is not None:
                # Issuing the barrier flips stall_kind from "barrier" to
                # "queue" for every participant: wake any elided waiter.
                self.wake_cb(participant)
        outputs = function.evaluate_barrier(entries)
        latency = virtual_latency(function.rows, partition.rows) + 1
        complete = fnow + latency
        deliveries = [(participant, list(outputs), True)
                      for participant in sorted(local_slots)]
        partition.events.append((complete, deliveries))
        partition.next_issue = fnow + initiation_interval(
            function.rows, partition.rows)
        self.barrier_table.release(barrier_id)
        self.stats.bump("barrier_releases")
        self.stats.bump("rows_evaluated", function.rows)
        if self.obs.active:
            for participant in sorted(local_slots):
                self.obs.emit(self._now, self._src, ev.QUEUE_POP,
                              queue=f"iq{participant}",
                              depth=len(self.input_queues[participant]))
            self.obs.emit(self._now, self._src, ev.SPL_ISSUE,
                          partition=partition.index, slot=slot,
                          function=function.name, rows=function.rows,
                          latency=latency, barrier=barrier_id)
            self.obs.emit(self._now, self._src, ev.BARRIER_RELEASE,
                          barrier=barrier_id,
                          slots=sorted(local_slots))
        return True

    def _barrier_partition(self, barrier_id: int) -> int:
        """Partition on which a barrier executes: the lowest local
        participant's partition (a fixed, deterministic choice)."""
        local = self._local_participants(barrier_id)
        if not local:
            return 0
        return self.core_partition[min(local)]

    def _local_participants(self, barrier_id: int) -> List[int]:
        slots = []
        for thread_id in self.barrier_bus.participants(barrier_id):
            slot = self.table.lookup(thread_id)
            if slot is not None:
                slots.append(slot)
        return slots
