"""The simulated heterogeneous CMP (Figure 2(a)).

A :class:`Machine` instantiates clusters of out-of-order cores over a
MESI-coherent memory system; SPL clusters additionally own a fabric
controller whose ports are attached to their cores.  The machine provides
the run loop, thread placement, migration (with the paper's 500-cycle
context-switch cost), and convenience wrappers for SPL configuration.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.config import RunOptions, SystemConfig
from repro.common.errors import ConfigError, DeadlockError, SimulationError
from repro.common.stats import Stats
from repro.core.controller import SplClusterController
from repro.core.function import SplFunction
from repro.core.tables import BarrierBus
from repro.cpu.blockgen import BlockRunner, MultiBlockRunner, _BG_NEVER
from repro.cpu.context import ThreadContext
from repro.cpu.pipeline import OutOfOrderCore
from repro.mem.hierarchy import CoherentMemorySystem
from repro.mem.memory import MainMemory
from repro.obs import events as ev
from repro.obs.bus import EventBus
from repro.system.workload import Workload

_WATCHDOG_STRIDE = 4096

#: Ceiling for the fast-forward probe backoff (cycles between quiescence
#: probes while the machine keeps vetoing jumps).  Probing every few cycles
#: through a compute-bound phase costs more than it saves (~8% on the seq
#: bench case at a cap of 4); a long backoff only delays *discovering* a
#: quiesce window — never correctness — and barrier/queue waits are
#: thousands of cycles, so they are still caught near their start.
_FF_BACKOFF_CAP = 256

#: ``ff_wake`` sentinel for an elided core that is *externally driven*
#: (it cannot bound its own wake-up); only an event poke resumes it.
_FF_NEVER = 1 << 62


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
                    self.cores[index].spl_port = controller.ports[slot]
                controller.wake_cb = self._make_waker(list(indices))
                self._controllers.append(controller)
            self.clusters.append(
                ClusterInstance(cluster_id, cluster.kind, indices, controller))
        self._cluster_by_core: Dict[int, ClusterInstance] = {
            index: cluster_instance
            for cluster_instance in self.clusters
            for index in cluster_instance.core_indices}
        self.contexts: List[ThreadContext] = []
        self.thread_core: Dict[int, int] = {}
        #: Watchdog progress floor: the last cycle the fast-forward
        #: scheduler *proved* every tickable quiescent up to.  A bounded
        #: jump is forward progress (some event is scheduled), so the
        #: watchdog measures staleness from max(last retire, this floor).
        self._ff_progress = 0
        #: Probe backoff: while the machine is busy, almost every
        #: quiescence probe fails, and probing every cycle costs more than
        #: the skips save.  After a failed probe the next one waits
        #: 2/4/8/16 cycles (capped); any successful jump resets it.
        #: Unprobed cycles simply tick naively, so this trades a few
        #: skippable cycles at a window's start for near-zero probe
        #: overhead in busy phases — cycle-exactness is unaffected.
        self._ff_backoff = 1
        self._ff_resume_probe = 0
        #: Trace-cache block compilation (repro.cpu.blockgen): per-core
        #: specialized executors plus an engagement backoff mirroring the
        #: fast-forward probe's.  Deliberately *not* snapshotted — these
        #: are performance hints only; a restored machine re-derives them
        #: and produces identical cycles and stats either way.
        self._bg_runners: Dict[int, BlockRunner] = {}
        #: Generated block source -> code object, shared by this
        #: machine's runners when it runs more than one thread (see
        #: ``_runner_for`` and ``BlockProgram.compile_block``).  Per
        #: machine, not per process, so the sources die with the run.
        self._bg_code: Dict[str, object] = {}
        self._bg_backoff = 1
        self._bg_resume_probe = 0
        #: The fused walk (DESIGN.md §10), which also keeps the blockgen
        #: telemetry, plus per-core engagement backoff: one core
        #: deopting every window must not starve compiled execution on
        #: its siblings, so each core's eligibility backs off
        #: independently of the global probe.  Not snapshotted, like
        #: every other ``_bg_*`` hint.
        self._bg_multi = MultiBlockRunner(self)
        self._bg_core_backoff: Dict[int, int] = {}
        self._bg_core_resume: Dict[int, int] = {}

    def _make_waker(self, indices: List[int]):
        """Delivery callback for a controller: pokes the slot's core so the
        fast-forward scheduler resumes ticking it (see DESIGN.md)."""
        cores = self.cores

        def wake(slot: int) -> None:
            cores[indices[slot]].ff_poke = True

        return wake

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

        ``options.fast_forward`` selects the scheduler: None (the default)
        enables the quiescence-aware next-event scheduler unless the
        ``REPRO_NO_FASTFORWARD`` environment variable is set; False forces
        the naive per-cycle loop.  Even when enabled, fast-forward silently
        falls back to per-cycle ticking while an ``until`` predicate is
        supplied (it may read arbitrary machine state between cycles) or a
        pipeline-level observability sink is attached.  Both schedulers are
        cycle-exact: final cycle counts, retired-instruction counts, and
        stats totals are identical (see DESIGN.md and
        tests/test_fastforward.py).

        ``options.pause_at`` stops the loop at exactly that absolute cycle
        *without* flushing fast-forward elision windows and without the
        max-cycles overrun error: the machine is left in the precise state
        the naive loop would see at the top of that cycle, ready for
        :meth:`snapshot` (see DESIGN.md §8).  A paused run resumes with
        another :meth:`run` call.
        """
        if options is None:
            options = RunOptions()
        options.validate()
        options = options.resolve()
        until = options.until
        pause_at = options.pause_at
        cores = self.cores
        controllers = self._controllers
        limit = self.cycle + options.max_cycles
        stop = limit if pause_at is None else min(limit, pause_at)
        next_watchdog = self.cycle + _WATCHDOG_STRIDE
        # Unknown hardware (a controller without the next_event_cycle
        # contract) disables fast-forward entirely: the scheduler could
        # neither bound its events nor trust it to poke elided cores.
        # Blockgen leans on the same contract to bound its windows.
        bounded = all(hasattr(c, "next_event_cycle") for c in controllers)
        use_ff = options.fast_forward and until is None and bounded
        use_bg = options.blockgen and until is None and bounded
        while self.cycle < stop:
            if until is not None and until():
                return self.cycle
            running = False
            cycle = self.cycle
            for core in cores:
                if core.ctx is None or core.halted:
                    continue
                running = True
                if core.ff_skip_from >= 0:
                    # Elided: the probe proved this core dead until
                    # ``ff_wake`` unless an external event pokes it.
                    if cycle < core.ff_wake and not core.ff_poke:
                        continue
                    core.ff_poke = False
                    core.credit_fast_forward(core.ff_skip_from, cycle - 1)
                    core.ff_skip_from = -1
                core.tick(cycle)
            if not running:
                return self.cycle
            for controller in controllers:
                controller.tick(cycle)
            nxt = cycle + 1
            advanced = False
            if (use_bg and cycle >= self._bg_resume_probe
                    and not self.obs.active):
                done = self._try_block_window(nxt, min(stop, next_watchdog),
                                              use_ff)
                if done > nxt:
                    self._bg_backoff = 1
                    nxt = done
                    advanced = True
                else:
                    self._bg_backoff = min(self._bg_backoff * 2,
                                           _FF_BACKOFF_CAP)
                    self._bg_resume_probe = cycle + self._bg_backoff
            if (not advanced and use_ff and cycle >= self._ff_resume_probe
                    and not self.obs.pipeline_active):
                target, progressed = self._ff_probe(
                    cycle, min(stop, next_watchdog))
                if target > nxt:
                    nxt = target
                if progressed:
                    self._ff_backoff = 1
                else:
                    self._ff_backoff = min(self._ff_backoff * 2,
                                           _FF_BACKOFF_CAP)
                    self._ff_resume_probe = cycle + self._ff_backoff
            self.cycle = nxt
            if nxt >= next_watchdog:
                next_watchdog = nxt + _WATCHDOG_STRIDE
                self._check_watchdog()
        if pause_at is not None and self.cycle >= pause_at \
                and self.cycle < limit:
            # Paused, not finished: leave elision windows un-credited so a
            # snapshot captures (and a resumed run replays) the exact
            # mid-run state.  A periodic plan is a performance record the
            # snapshot does not carry, so those cores resume here, in the
            # state the naive loop has at the top of this cycle.
            for core in cores:
                if core.ff_periodic:
                    core.ff_poke = False
                    core.credit_fast_forward(core.ff_skip_from,
                                             self.cycle - 1)
                    core.ff_skip_from = -1
            return self.cycle
        self._ff_flush()
        if until is not None and until():
            return self.cycle
        if any(core.active for core in cores):
            raise SimulationError(
                f"run exceeded {options.max_cycles} cycles without "
                f"completing")
        return self.cycle

    def _ff_probe(self, now: int, ceiling: int) -> Tuple[int, bool]:
        """One fast-forward scheduling decision at the end of cycle ``now``.

        Returns ``(next_cycle, progressed)``.  Each active core is either
        *elided* — marked to stop ticking until its reported wake cycle
        (``_FF_NEVER`` when it is externally driven) or until an event
        poke — or it *vetoes* the global jump because it can act next
        cycle.  When nobody vetoes, the machine jumps to the earliest core
        wake or controller event, clamped to ``ceiling`` (run limit /
        watchdog boundary, so both fire on exactly the cycle the naive
        loop would inspect them).  Elision marks survive a veto: a busy
        core no longer forces its quiescent siblings to tick.
        ``progressed`` drives the probe backoff — True when the machine
        jumped or newly elided a core.
        """
        nxt = now + 1
        best = ceiling
        any_bound = False
        veto = False
        elided = False
        saw_core = False
        for core in self.cores:
            if core.ctx is None or core.halted:
                continue
            saw_core = True
            if core.ff_skip_from >= 0:
                if core.ff_poke:
                    # A delivery just landed for this elided core: it must
                    # tick next cycle (the resume path consumes the poke).
                    veto = True
                    continue
                wake = core.ff_wake
                if wake < _FF_NEVER:
                    any_bound = True
                    if wake < best:
                        best = wake
                continue
            if core.ff_poke:
                # A delivery landed this very cycle: the core must tick
                # next cycle to observe it, exactly as the naive loop would.
                core.ff_poke = False
                veto = True
                continue
            t = core.next_event_cycle(now)
            if t is None:
                # Externally driven (e.g. parked in spl_recv with an empty
                # output queue): stop ticking until a delivery pokes it.
                core.ff_elide(nxt, _FF_NEVER)
                elided = True
            elif t <= nxt:
                veto = True
            else:
                core.ff_elide(nxt, t)
                elided = True
                any_bound = True
                if t < best:
                    best = t
        if not saw_core:
            # Every core halted: the loop is about to return on its own; a
            # jump here would overshoot the final cycle.
            return nxt, False
        if veto:
            return nxt, elided
        for controller in self._controllers:
            t = controller.next_event_cycle(now)
            if t is None:
                continue
            if t <= nxt:
                return nxt, elided
            any_bound = True
            if t < best:
                best = t
        if best <= nxt:
            return nxt, elided
        if any_bound:
            # Some tickable has an event scheduled: this is forward
            # progress, not a hang, even if no core retires for a long
            # legal stall.
            self._ff_progress = best
        return best, True

    def _runner_for(self, core) -> BlockRunner:
        """The cached :class:`BlockRunner` for ``core``, rebuilt whenever
        the core's bound context has changed since the last window."""
        runner = self._bg_runners.get(core.index)
        if runner is None or runner.ctx is not core.ctx:
            # Threads of one spec repeat most of their block source; a
            # lone thread's blocks rarely repeat, so a memo would only
            # hold its code objects (about 2% more peak memory on the
            # perf/ seq_compute workload, no time saved).
            memo = self._bg_code if len(self.contexts) > 1 else None
            runner = BlockRunner(core, memo)
            self._bg_runners[core.index] = runner
        return runner

    def _bg_note(self, index: int, productive: bool, at: int) -> None:
        """Per-core engagement backoff (independent of the global probe
        backoff): a core that keeps deopting stops being *compiled* for a
        while but still ticks inside its siblings' windows."""
        if productive:
            self._bg_core_backoff[index] = 1
            self._bg_core_resume[index] = 0
        else:
            backoff = min(self._bg_core_backoff.get(index, 1) * 2,
                          _FF_BACKOFF_CAP)
            self._bg_core_backoff[index] = backoff
            self._bg_core_resume[index] = at + backoff

    def _try_block_window(self, start: int, ceiling: int,
                          allow_elide: bool = False) -> int:
        """Attempt a fused block-compiled window ``[start, ...)``.

        Engagement requires at least one running core that is eligible
        for compiled execution — not elided, not draining, not backed
        off.  One running core or sixteen, the window is a
        :class:`repro.cpu.blockgen.MultiBlockRunner` walk, in which
        ineligible cores still advance (interpreted or elided) while
        their siblings run compiled; the walk ticks controllers itself
        from their event bound on, so streaming phases fuse too.
        ``allow_elide`` forwards the run's fast-forward setting to the
        in-window elision machinery.  Returns the first cycle *not*
        executed — ``start`` when the window declines.
        """
        actives = [core for core in self.cores
                   if core.ctx is not None and not core.halted]
        # An elided core with a pending poke must resume through the
        # machine loop's own resume block first.
        any_live = False
        for core in actives:
            if core.ff_skip_from >= 0:
                if core.ff_poke:
                    return start
            else:
                any_live = True
        if not any_live:
            return start
        # A controller event does not bound the window: the walk ticks
        # controllers itself from ``ctl_resume`` on (going live
        # immediately when a streaming controller's bound is already
        # due), so the window runs to the ceiling instead of exiting at
        # every delivery.
        now = start - 1
        ctl_resume = _BG_NEVER
        for controller in self._controllers:
            event = controller.next_event_cycle(now)
            if event is not None and event < ctl_resume:
                ctl_resume = event
        resume = self._bg_core_resume
        runners = []
        eligible = 0
        for core in actives:
            # Elided cores get a runner too: a barrier release or queue
            # delivery can resume them mid-window, and they should come
            # back compiled instead of interpreting until the ceiling.
            runner = None
            if (not core.stop_fetch
                    and start >= resume.get(core.index, 0)):
                runner = self._runner_for(core)
                if core.ff_skip_from < 0:
                    eligible += 1
            runners.append(runner)
        if not eligible:
            return start
        done, stepped, attempted, elided = self._bg_multi.run_window(
            start, ceiling, actives, runners, allow_elide, ctl_resume)
        for i, core in enumerate(actives):
            if runners[i] is None:
                continue
            if stepped[i]:
                self._bg_note(core.index, True, done)
            elif attempted[i] and not elided[i] and not core.halted:
                # Attempted but never compiled a cycle, and not excused
                # by quiescence: this core is deopt-bound right now.
                self._bg_note(core.index, False, done)
        return done

    def _ff_flush(self) -> None:
        """Credit outstanding elision windows when run() stops iterating.

        The naive loop would have ticked every elided core through
        ``self.cycle - 1`` (pure stall ticks, by the elision proof); replay
        them into the counters so limit-exit and watchdog-raise paths
        leave stats identical to the naive scheduler's.
        """
        end = self.cycle - 1
        for core in self.cores:
            if core.ctx is not None and core.ff_skip_from >= 0:
                core.credit_fast_forward(core.ff_skip_from, end)
                core.ff_skip_from = -1
                core.ff_wake = 0

    def _check_watchdog(self) -> None:
        stuck = []
        for core in self.cores:
            if core.ctx is None or core.halted:
                continue
            progress = max(core.retire_floor(self.cycle), self._ff_progress)
            if self.cycle - progress > self.config.deadlock_cycles:
                stuck.append(core)
        if stuck and self.obs.active:
            self.obs.emit(self.cycle, "machine", ev.WATCHDOG,
                          stuck=[core.index for core in stuck])
        if stuck and len(stuck) == sum(
                1 for c in self.cores if c.ctx is not None and not c.halted):
            # Credit pending elision windows first so post-mortem stats
            # match what the naive loop would have accumulated.
            self._ff_flush()
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

        Captures state only — programs, bindings, ports, listeners and
        observability wiring are reconstructed by rebuilding a machine
        from the same :class:`SystemConfig` and re-running the workload's
        :meth:`load` before :meth:`restore`.  Snapshotting mid-run is
        valid at any paused cycle, including inside a fast-forward
        elision window (``run(options=RunOptions(pause_at=...))`` stops
        without flushing those windows).
        """
        context_index = {id(ctx): i for i, ctx in enumerate(self.contexts)}
        return {
            "cycle": self.cycle,
            "ff_progress": self._ff_progress,
            "ff_backoff": self._ff_backoff,
            "ff_resume_probe": self._ff_resume_probe,
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
        self._ff_backoff = state["ff_backoff"]
        self._ff_resume_probe = state["ff_resume_probe"]
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
