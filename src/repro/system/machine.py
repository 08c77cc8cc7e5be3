"""The simulated heterogeneous CMP (Figure 2(a)).

A :class:`Machine` instantiates clusters of out-of-order cores over a
MESI-coherent memory system; SPL clusters additionally own a fabric
controller whose ports are attached to their cores.  The machine provides
the run loop, thread placement, migration (with the paper's 500-cycle
context-switch cost), and convenience wrappers for SPL configuration.
"""

from __future__ import annotations

import gc
from typing import Dict, List, Optional, Tuple

from repro.common.config import RunOptions, SystemConfig
from repro.common.errors import ConfigError, DeadlockError, SimulationError
from repro.common.stats import Stats
from repro.core.controller import SplClusterController
from repro.core.function import SplFunction
from repro.core.tables import BarrierBus
from repro.cpu.blockgen import BlockRunner, MultiBlockRunner
from repro.cpu.context import ThreadContext
from repro.cpu.pipeline import OutOfOrderCore
from repro.cpu.ports import core_waker
from repro.mem.hierarchy import CoherentMemorySystem
from repro.mem.memory import MainMemory
from repro.obs import events as ev
from repro.obs.bus import EventBus
from repro.system.workload import Workload

_WATCHDOG_STRIDE = 4096


class ClusterInstance:
    """One cluster's cores plus (for SPL clusters) the fabric controller."""

    def __init__(self, index: int, kind: str, core_indices: List[int],
                 controller: Optional[SplClusterController]) -> None:
        self.index = index
        self.kind = kind
        self.core_indices = core_indices
        self.controller = controller


class Machine:
    """A runnable CMP instance."""

    def __init__(self, config: SystemConfig) -> None:
        config.validate()
        self.config = config
        self.stats = Stats("machine")
        self.stats.declare("migrations")
        #: One observability bus for the whole machine; every simulated
        #: structure publishes into it (see repro.obs).  Zero-cost until a
        #: sink is attached with ``machine.obs.attach(...)``.
        self.obs = EventBus()
        self.memory = MainMemory()
        self.cycle = 0
        cache_configs = []
        for cluster in config.clusters:
            for _ in range(cluster.n_cores):
                cache_configs.append(
                    (cluster.core.l1i, cluster.core.l1d, cluster.core.l2))
        self.mem_system = CoherentMemorySystem(
            cache_configs, config, self.stats.child("mem"), obs=self.obs)
        bus_latency = 10
        for cluster in config.clusters:
            if cluster.kind == "spl":
                bus_latency = cluster.spl.barrier_bus_latency
                break
        self.barrier_bus = BarrierBus(bus_latency)
        self.cores: List[OutOfOrderCore] = []
        self.clusters: List[ClusterInstance] = []
        #: Everything with a ``tick(cycle)`` method: SPL controllers and any
        #: baseline communication hardware attached later.
        self._controllers: List = []
        core_index = 0
        for cluster_id, cluster in enumerate(config.clusters):
            indices = []
            for _ in range(cluster.n_cores):
                core = OutOfOrderCore(core_index, cluster.core,
                                      self.mem_system, self.memory,
                                      self.stats.child(f"cpu{core_index}"),
                                      obs=self.obs)
                self.cores.append(core)
                indices.append(core_index)
                core_index += 1
            controller = None
            if cluster.kind == "spl":
                controller = SplClusterController(
                    cluster_id, cluster.spl, self.barrier_bus,
                    self.stats.child(f"spl{cluster_id}"), obs=self.obs)
                for slot, index in enumerate(indices):
                    self.cores[index].spl_port = controller.port(slot)
                controller.wake_cb = core_waker(
                    [self.cores[index] for index in indices])
                self._controllers.append(controller)
            self.clusters.append(
                ClusterInstance(cluster_id, cluster.kind, indices, controller))
        self._cluster_by_core: Dict[int, ClusterInstance] = {
            index: cluster_instance
            for cluster_instance in self.clusters
            for index in cluster_instance.core_indices}
        self.contexts: List[ThreadContext] = []
        self.thread_core: Dict[int, int] = {}
        #: Watchdog progress floor: the last cycle the walk *proved* every
        #: tickable quiescent up to.  A bounded jump is forward progress
        #: (some event is scheduled), so the watchdog measures staleness
        #: from max(last retire, this floor).
        self._ff_progress = 0
        #: The compiled walk's per-core specialized executors
        #: (repro.cpu.blockgen).  Deliberately *not* snapshotted — these
        #: are performance hints only; a restored machine re-derives them
        #: and produces identical cycles and stats either way.
        self._bg_runners: Dict[int, BlockRunner] = {}
        #: The runners' dispatch and FU-pool rows, one shared copy of
        #: each for every runner of this machine.  Per machine, not per
        #: process, so the rows die with the run.
        self._bg_rows: Dict[tuple, tuple] = {}
        #: The walk (DESIGN.md §10), which also keeps the blockgen
        #: telemetry.  Not snapshotted, like every other ``_bg_*`` hint.
        self._bg_multi = MultiBlockRunner()

    # -- lookup helpers -----------------------------------------------------------

    def cluster_of_core(self, core_index: int) -> ClusterInstance:
        cluster = self._cluster_by_core.get(core_index)
        if cluster is None:
            raise ConfigError(f"no cluster owns core {core_index}")
        return cluster

    def core_slot(self, core_index: int) -> Tuple[ClusterInstance, int]:
        cluster = self.cluster_of_core(core_index)
        return cluster, cluster.core_indices.index(core_index)

    # -- SPL configuration ----------------------------------------------------------

    def configure_spl(self, core_index: int, config_id: int,
                      function: SplFunction,
                      dest_thread: Optional[int] = None,
                      barrier_id: Optional[int] = None) -> None:
        """Bind ``config_id`` on the core's SPL cluster (runtime action)."""
        cluster, slot = self.core_slot(core_index)
        if cluster.controller is None:
            raise ConfigError(
                f"core {core_index} is not part of an SPL cluster")
        cluster.controller.configure(slot, config_id, function,
                                     dest_thread, barrier_id)

    def register_barrier(self, barrier_id: int, app_id: int,
                         thread_ids) -> None:
        self.barrier_bus.register(barrier_id, app_id, tuple(thread_ids))

    def set_partitions(self, core_index: int, row_counts: List[int],
                       core_assignment: Optional[List[int]] = None) -> None:
        cluster, _ = self.core_slot(core_index)
        if cluster.controller is None:
            raise ConfigError("not an SPL cluster")
        cluster.controller.set_partitions(row_counts, core_assignment)

    def add_controller(self, controller) -> None:
        """Register extra per-cycle hardware (baseline comm networks)."""
        self._controllers.append(controller)

    # -- workload loading --------------------------------------------------------------

    def load(self, workload: Workload) -> None:
        """Load memory, place threads, and run the workload's SPL setup."""
        self.memory.load_image(workload.image)
        for spec, core_index in zip(workload.threads, workload.placement):
            if not 0 <= core_index < len(self.cores):
                raise ConfigError(f"placement on missing core {core_index}")
            ctx = ThreadContext(spec)
            self.contexts.append(ctx)
            self.thread_core[ctx.thread_id] = core_index
            self.cores[core_index].attach(ctx, self.cycle)
        if workload.setup is not None:
            workload.setup(self)

    # -- execution ------------------------------------------------------------------------

    def run(self, *, options: Optional[RunOptions] = None) -> int:
        """Advance until all threads finish (or a stop condition fires).

        Returns the cycle count at stop.  Raises DeadlockError when no core
        retires anything for the configured watchdog window.

        The run is configured by one :class:`RunOptions` value (the
        defaults when ``options`` is omitted).

        Two loops advance the machine.  The fast one is the compiled
        multi-core walk (:class:`repro.cpu.blockgen.MultiBlockRunner`),
        which elides quiescent cores and jumps when every running core is
        elided; it resumes every elided core when it returns, so no
        elision outlives a walk.  The naive per-cycle loop is the
        reference; it runs when ``options.fast_forward`` is False (or
        resolves False through the ``REPRO_NO_FASTFORWARD`` environment
        variable), or while an ``until`` predicate is supplied (it may
        read arbitrary machine state between cycles).  Each cycle it
        ticks the running cores, then the controllers.  An attached
        observability sink keeps the walk and changes none of its
        scheduling decisions: the walk classifies its compiled cycles
        for the cycle-accounting spans, and its periodic plans credit
        the spans of the cycles they elide.  Both loops are cycle-exact:
        final cycle counts, retired-instruction counts, stats totals and
        cycle-accounting spans are identical (see DESIGN.md and
        tests/test_fastforward.py).

        ``options.pause_at`` stops the loop at exactly that absolute cycle
        without the max-cycles overrun error: every elided window is
        credited, so the machine is left in the precise state, counters
        included, the naive loop would see at the top of that cycle,
        ready for :meth:`snapshot` (see DESIGN.md §8).  A paused run
        resumes with another :meth:`run` call.

        The cyclic garbage collector is off for the run and restored to
        the caller's setting when it returns or raises: no run makes a
        reference cycle, so the collector would only scan the run's own
        young objects (DESIGN.md §3, "Collector policy").
        """
        if options is None:
            options = RunOptions()
        options.validate()
        options = options.resolve()
        collecting = gc.isenabled()
        gc.disable()
        try:
            return self._advance(options)
        finally:
            if collecting:
                gc.enable()

    def _advance(self, options: RunOptions) -> int:
        """:meth:`run`'s two loops, under resolved ``options``."""
        until = options.until
        pause_at = options.pause_at
        cores = self.cores
        limit = self.cycle + options.max_cycles
        stop = limit if pause_at is None else min(limit, pause_at)
        next_watchdog = self.cycle + _WATCHDOG_STRIDE
        if options.fast_forward and until is None:
            while self.cycle < stop:
                end = min(stop, next_watchdog)
                self.cycle = self._walk(self.cycle, end)
                if self.cycle < end:
                    return self.cycle  # every thread has halted
                if self.cycle >= next_watchdog:
                    next_watchdog = self.cycle + _WATCHDOG_STRIDE
                    self._check_watchdog()
        else:
            controllers = self._controllers
            while self.cycle < stop:
                if until is not None and until():
                    return self.cycle
                running = False
                cycle = self.cycle
                for core in cores:
                    if core.ctx is None or core.halted:
                        continue
                    running = True
                    core.tick(cycle)
                if not running:
                    return self.cycle
                for controller in controllers:
                    controller.tick(cycle)
                self.cycle = cycle + 1
                if self.cycle >= next_watchdog:
                    next_watchdog = self.cycle + _WATCHDOG_STRIDE
                    self._check_watchdog()
        if pause_at is not None and self.cycle >= pause_at \
                and self.cycle < limit:
            return self.cycle  # paused, not finished
        if until is not None and until():
            return self.cycle
        if any(core.active for core in cores):
            raise SimulationError(
                f"run exceeded {options.max_cycles} cycles without "
                f"completing")
        return self.cycle

    def _runner_for(self, core) -> BlockRunner:
        """The cached :class:`BlockRunner` for ``core``, rebuilt whenever
        the core's bound context has changed since the last window."""
        runner = self._bg_runners.get(core.index)
        if runner is None or runner.ctx is not core.ctx:
            runner = BlockRunner(core, self._bg_rows)
            self._bg_runners[core.index] = runner
        return runner

    def _walk(self, start: int, end: int) -> int:
        """Run the compiled walk over every running core through
        ``[start, end)``; returns the first cycle it did not run, which
        is before ``end`` only when every thread has halted.

        Every core but a draining one (``stop_fetch``) gets a runner:
        the walk may elide a core, and a barrier release or queue
        delivery can resume it mid-walk, compiled.
        """
        cores = [core for core in self.cores
                 if core.ctx is not None and not core.halted]
        runners = [None if core.stop_fetch else self._runner_for(core)
                   for core in cores]
        return self._bg_multi.run_window(self, start, end, cores, runners)

    def _check_watchdog(self) -> None:
        stuck = []
        for core in self.cores:
            if core.ctx is None or core.halted:
                continue
            progress = max(core.last_retire_cycle, self._ff_progress)
            if self.cycle - progress > self.config.deadlock_cycles:
                stuck.append(core)
        if stuck and self.obs.active:
            self.obs.emit(self.cycle, "machine", ev.WATCHDOG,
                          stuck=[core.index for core in stuck])
        if stuck and len(stuck) == sum(
                1 for c in self.cores if c.ctx is not None and not c.halted):
            details = ", ".join(
                f"core{c.index}@pc={c.ctx.pc}" for c in stuck)
            raise DeadlockError(f"no forward progress: {details}",
                                wait_states=self.wait_reports())

    def wait_reports(self) -> List[str]:
        """Per-core wait-state lines for deadlock post-mortems.

        One line per occupied core describing the ROB-head instruction it
        is blocked on plus the queue/barrier occupancy behind it (via
        :meth:`repro.cpu.ports.SplPort.wait_detail`).  Harmless to call at
        any paused cycle; used by :meth:`_check_watchdog` when raising
        :exc:`DeadlockError`.
        """
        return [core.wait_state() for core in self.cores
                if core.ctx is not None]

    # -- snapshot contract (DESIGN.md §8) ------------------------------------------------------

    def snapshot(self) -> dict:
        """Serialize every piece of mutable machine state to JSON-safe data.

        Captures state only — programs, bindings, ports, snoop hooks and
        observability wiring are reconstructed by rebuilding a machine
        from the same :class:`SystemConfig` and re-running the workload's
        :meth:`load` before :meth:`restore`.  Snapshotting mid-run is
        valid at any paused cycle (``run(options=RunOptions(
        pause_at=...))``); no core is elided there, because the walk
        resumes every elided core when it returns.
        """
        context_index = {id(ctx): i for i, ctx in enumerate(self.contexts)}
        return {
            "cycle": self.cycle,
            "ff_progress": self._ff_progress,
            "stats": self.stats.snapshot_state(),
            "memory": self.memory.snapshot_state(),
            "mem_system": self.mem_system.snapshot_state(),
            "barrier_bus": self.barrier_bus.snapshot_state(),
            "controllers": [controller.snapshot_state()
                            for controller in self._controllers],
            "contexts": [ctx.snapshot_state() for ctx in self.contexts],
            "thread_core": [[tid, core] for tid, core
                            in sorted(self.thread_core.items())],
            "cores": [{
                "ctx": (context_index[id(core.ctx)]
                        if core.ctx is not None else None),
                "state": core.snapshot_state(),
            } for core in self.cores],
        }

    def restore(self, state: dict) -> None:
        """Load a :meth:`snapshot` into this freshly prepared machine.

        Precondition: ``self`` was built from the same
        :class:`SystemConfig` and the same workload was loaded (so every
        program, SPL/comm binding and barrier registration exists); this
        method then overwrites all mutable state so that continuing the
        run is cycle-for-cycle identical to never having paused.
        """
        if len(state["cores"]) != len(self.cores):
            raise ConfigError(
                f"snapshot has {len(state['cores'])} cores, machine has "
                f"{len(self.cores)} — config mismatch")
        if len(state["contexts"]) != len(self.contexts):
            raise ConfigError(
                f"snapshot has {len(state['contexts'])} threads, machine "
                f"has {len(self.contexts)} — workload mismatch")
        if len(state["controllers"]) != len(self._controllers):
            raise ConfigError(
                "snapshot controller count does not match machine")
        self.cycle = state["cycle"]
        self._ff_progress = state["ff_progress"]
        self.stats.restore_state(state["stats"])
        self.memory.restore_state(state["memory"])
        self.mem_system.restore_state(state["mem_system"])
        self.barrier_bus.restore_state(state["barrier_bus"])
        for controller, controller_state in zip(self._controllers,
                                                state["controllers"]):
            controller.restore_state(controller_state)
        for ctx, ctx_state in zip(self.contexts, state["contexts"]):
            ctx.restore_state(ctx_state)
        self.thread_core = {tid: core
                            for tid, core in state["thread_core"]}
        for core, record in zip(self.cores, state["cores"]):
            # Re-point the context reference directly: attach() would
            # reset the very pipeline state being restored.  Port thread
            # mappings live in the controllers' own snapshots.
            index = record["ctx"]
            core.ctx = self.contexts[index] if index is not None else None
            core.restore_state(record["state"])

    # -- migration ----------------------------------------------------------------------------

    def migrate(self, thread_id: int, dest_core: int,
                max_cycles: int = 1_000_000) -> int:
        """Migrate a thread, modelling drain + 500-cycle switch (Sec V-A).

        Returns the cycle at which the thread resumes on ``dest_core``.
        """
        src_core = self.cores[self.thread_core[thread_id]]
        dest = self.cores[dest_core]
        if dest.ctx is not None:
            raise SimulationError(f"core {dest_core} is occupied")
        src_core.begin_drain()
        self.run(options=RunOptions(max_cycles=max_cycles,
                                    until=src_core.is_drained))
        if not src_core.is_drained():
            raise SimulationError("migration drain did not complete")
        ctx = src_core.detach()
        dest.attach(ctx, self.cycle, stall=self.config.migration_cycles)
        self.thread_core[thread_id] = dest_core
        self.stats.bump("migrations")
        if self.obs.active:
            self.obs.emit(self.cycle, "machine", ev.MIGRATE,
                          thread=thread_id, src=src_core.index,
                          dest=dest_core)
        return self.cycle + self.config.migration_cycles

    # -- observability ------------------------------------------------------------------------

    def finish_observation(self) -> None:
        """Flush open cycle spans and signal end-of-run to all sinks.

        Call once after the last :meth:`run` of an observed simulation,
        before reading trace/profile sinks.
        """
        for core in self.cores:
            core.flush_observation()
        self.obs.finish(self.cycle)

    # -- results --------------------------------------------------------------------------------

    def total_retired(self) -> int:
        return sum(ctx.retired_instructions for ctx in self.contexts)

    def finished(self) -> bool:
        return all(ctx.finished for ctx in self.contexts)
