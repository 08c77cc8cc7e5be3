"""Cycle-level out-of-order core model.

Implements the Table II microarchitecture: parameterized fetch/decode/issue/
retire widths, a gshare+bimodal hybrid predictor with BTB and RAS, register
renaming bounded by the physical register files, separate int/FP issue
queues, a 64-entry ROB, load/store queues with store-to-load forwarding,
and in-order retirement.

Modelling choices (see DESIGN.md):

* Branches resolve at execute; a mispredict flushes younger instructions and
  redirects fetch the following cycle, so the penalty emerges from pipeline
  refill rather than a fixed constant.
* ``spl_*``, atomic, and fence instructions execute non-speculatively when
  they reach the ROB head, which keeps SPL queue state off the wrong path.
* Loads read functional memory at issue.  To keep multithreaded programs
  correct under this speculation, the core registers an invalidation
  listener with the coherent memory system: if another core invalidates a
  line that an in-flight issued load has read, the load and everything
  younger are squashed and refetched (snoop-triggered load replay, as in
  real TSO designs).
* Stores perform their functional write at retirement, in program order,
  draining through a store buffer whose timing comes from the cache
  hierarchy.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from operator import attrgetter
from typing import Deque, Dict, List, Optional, Tuple

from repro.common.config import CoreConfig
from repro.common.errors import SimulationError
from repro.common.stats import Stats
from repro.cpu.branch import HybridPredictor
from repro.cpu.context import ThreadContext
from repro.cpu.exec import ALU_TABLE, branch_taken, fp
from repro.cpu.ports import SplPort
from repro.isa.instruction import (HOLD_FP_IQ, HOLD_INT_IQ, HOLD_LQ,
                                   HOLD_REN_FP, HOLD_REN_INT, HOLD_SQ,
                                   Instruction)
from repro.isa.opcodes import FuClass, Op
from repro.mem.hierarchy import CoherentMemorySystem
from repro.mem.memory import MainMemory
from repro.obs import events as ev
from repro.obs.bus import EventBus

DISP, ISSUED, DONE = 0, 1, 2

#: Cycles between fetch and earliest rename (decode depth).
FRONTEND_DELAY = 2

_BY_SEQ = attrgetter("seq")

_LOAD_OPS = {Op.LW: (4, True), Op.LB: (1, True), Op.LBU: (1, False),
             Op.LH: (2, True), Op.LHU: (2, False), Op.FLW: (4, True)}
_STORE_OPS = {Op.SW: 4, Op.SB: 1, Op.SH: 2, Op.FSW: 4}

#: Serialized ops at the ROB head whose wake-up is bounded by *another*
#: tickable's event rather than by this core: SPL_RECV/SPL_STORE wait on a
#: delivery from the cluster controller (which reports ``now + 1`` whenever
#: an output queue holds words), and FENCE waits on this core's own store
#: buffer, already covered by the ``pending_stores`` candidate.  Every other
#: serialized op (SPL_INIT, SPL_LOAD, AMO start, HALT, ...) must be retried
#: on the very next cycle — both to make progress and because retries bump
#: stall counters that a skip would miss.
_EXT_WAKE_OPS = frozenset((Op.SPL_RECV, Op.SPL_STORE, Op.FENCE))


class RobEntry:
    """One in-flight instruction."""

    __slots__ = ("seq", "inst", "pc", "pred_next", "state", "value",
                 "completion", "remaining", "consumers", "srcs", "addr",
                 "size", "store_value", "flushed", "started", "actual_next",
                 "held")

    def __init__(self, seq: int, inst: Instruction, pc: int,
                 pred_next: int) -> None:
        self.seq = seq
        self.inst = inst
        self.pc = pc
        self.pred_next = pred_next
        self.state = DISP
        self.value = 0
        self.completion = -1
        self.remaining = 0
        self.consumers: List[Tuple["RobEntry", int]] = []
        self.srcs = [0, 0]
        self.addr: Optional[int] = None
        self.size = 0
        self.store_value = 0
        self.flushed = False
        self.started = False
        self.actual_next = pc + 1
        #: HOLD_* bitmask of back-end resources this entry occupies
        #: (copied from the instruction's dispatch template at dispatch).
        self.held = 0


class OutOfOrderCore:
    """One out-of-order core attached to the coherent memory system."""

    #: Every counter this core's stats scope may touch (typo guard).
    STAT_KEYS = (
        "cycles", "fetched", "dispatched", "issued", "retired",
        "branches_resolved", "mispredicts", "flushes", "load_replays",
        "loads", "stores", "load_forwards", "atomics", "int_ops",
        "fp_ops", "rob_full_stalls", "iq_full_stalls", "lsq_full_stalls",
        "rename_stalls", "store_buffer_stalls", "icache_stall_cycles",
        "spl_loads", "spl_load_stalls", "spl_inits", "spl_init_stalls",
        "spl_recvs", "spl_recv_stalls", "spl_stores")

    def __init__(self, index: int, config: CoreConfig,
                 mem_system: CoherentMemorySystem, memory: MainMemory,
                 stats: Stats, obs: Optional[EventBus] = None) -> None:
        self.index = index
        self.config = config
        self.mem_system = mem_system
        self.memory = memory
        self.stats = stats
        stats.declare(*self.STAT_KEYS)
        # Bound view of the scope's counter dict for the per-instruction
        # hot counters: every key is declared (zero-initialized) above, so
        # ``self._cnt[key] += 1`` is exactly ``stats.bump(key)`` minus the
        # method call.  Cold/rare paths keep the checked ``bump``.
        self._cnt = stats.counters
        self.predictor = HybridPredictor(config.predictor,
                                         stats.child("predictor"))
        self.spl_port: Optional[SplPort] = None
        self.ctx: Optional[ThreadContext] = None
        self.halted = True
        self.stop_fetch = True
        self.stall_until = 0  # migration / startup stall
        # Elision state (owned by the walk, MultiBlockRunner, see
        # DESIGN.md): while ``_ff_plan`` is set the walk has stopped
        # ticking this core, which resumes at its wake cycle, earlier if
        # ``ff_poke`` is set by an external event (an SPL/comm delivery,
        # a barrier release or input-queue pop that re-classifies the
        # wait, or a snoop invalidation replay), and at the latest when
        # the walk returns; ``ff_resume`` replays the skipped window from
        # the plan ``ff_elide`` or ``ff_elide_periodic`` installed.
        self.ff_poke = False
        self._ff_plan: Optional[Tuple] = None
        # Blockgen residency (owned by MultiBlockRunner): while True, a
        # compiled generator holds this core's scalar pipeline state in
        # locals, so a snoop invalidation must be deferred — recorded
        # here and replayed by the window walk after the generator has
        # written its state back.  The core's own state is frozen from
        # the snoop to the replay, so the deferred apply is bit-exact.
        self._bg_resident = False
        self._bg_pending_inval: List[int] = []
        # Periodic elision (MultiBlockRunner): while a periodic plan holds
        # this core, the pipeline structures are a stale record and only
        # snoops of the data lines in this set can change its future; they
        # are deferred like a resident core's and replayed on resume.
        self._bg_watch: Optional[frozenset] = None
        self._rename_limit_int = config.int_regs - 32
        self._rename_limit_fp = config.fp_regs - 32
        # Structure limits copied off the config object: the dispatch /
        # retire / fetch loops read them every cycle and a slot attribute
        # is one lookup where ``self.config.x`` is two.
        self._rob_entries = config.rob_entries
        self._fp_queue = config.fp_queue
        self._int_queue = config.int_queue
        self._load_queue = config.load_queue
        self._store_queue = config.store_queue
        self._decode_width = config.decode_width
        self._retire_width = config.retire_width
        self._issue_width = config.issue_width
        self._fetch_width = config.fetch_width
        self._fetch_queue_cap = config.fetch_queue
        self._l1i_hit = config.l1i.hit_latency
        #: FuClass -> (pool name, per-cycle limit), built once.
        self._fu_pool: Dict[FuClass, Tuple[str, int]] = {}
        for fu in FuClass:
            if fu in (FuClass.INT, FuClass.MUL, FuClass.DIV):
                self._fu_pool[fu] = ("int", config.int_alus)
            elif fu is FuClass.FP:
                self._fu_pool[fu] = ("fp", config.fp_alus)
            elif fu is FuClass.BRANCH:
                self._fu_pool[fu] = ("branch", config.branch_units)
            else:
                self._fu_pool[fu] = ("mem", config.ldst_units)
        #: Observability bus; inert (``active`` False) unless the owning
        #: machine attaches a sink, in which case emissions light up.
        self.obs = obs if obs is not None else EventBus()
        self._src = f"cpu{index}"
        #: When set to a dict (``repro profile --hot``), retirement
        #: tallies per-PC counts into it — in both this interpreter and
        #: the blockgen fused loop.  None keeps the hot path untouched.
        self._retire_pcs: Optional[Dict[int, int]] = None
        # Run-length state for cycle-accounting spans (only advanced while
        # a sink is attached; survives migrations so spans stay honest).
        self._span_class: Optional[str] = None
        self._span_start = 0
        self._last_tick = -1
        self._reset_pipeline()
        mem_system.set_snoop_hook(index, self._on_invalidation)

    # ------------------------------------------------------------------ state

    def _reset_pipeline(self) -> None:
        # The ROB and fetch queue are deques: both retire (``popleft``)
        # from the front every cycle, which is O(n) on a list.
        self.rob: Deque[RobEntry] = deque()
        self.ready: List[Tuple[int, RobEntry]] = []
        self.fetch_queue: Deque[Tuple[Instruction, int, int, int]] = deque()
        self.completing: Dict[int, List[RobEntry]] = {}
        self.store_entries: List[RobEntry] = []
        self.blocked_loads: List[RobEntry] = []
        self.rat: Dict[int, RobEntry] = {}
        self.seq = 0
        self.fetch_pc = -1
        self.fetch_resume = 0
        self.last_fetch_line = -1
        self.int_iq_used = 0
        self.fp_iq_used = 0
        self.lq_used = 0
        self.sq_used = 0
        self.rename_int_used = 0
        self.rename_fp_used = 0
        self.sb_next_free = 0
        # Fetch-side view of the attached program (set by ``attach``):
        # dodges two attribute hops per fetch group.
        self._instructions: List[Instruction] = []
        self._program_end = 0
        # Store-buffer drain times, ordered: every push goes through
        # ``sb_next_free`` (monotonically non-decreasing, since
        # ``data_access(start) >= start``), so the front is always the
        # minimum and purging is a prefix pop instead of a list rebuild.
        self.pending_stores: Deque[int] = deque()
        self.last_retire_cycle = 0

    # -------------------------------------------------------------- scheduling

    def attach(self, ctx: ThreadContext, cycle: int, stall: int = 0) -> None:
        """Begin executing ``ctx`` on this core at ``cycle + stall``."""
        self._reset_pipeline()
        self.ctx = ctx
        self.halted = False
        self.stop_fetch = False
        self.stall_until = cycle + stall
        self.ff_poke = False
        self._ff_plan = None
        self._bg_watch = None
        self._bg_pending_inval.clear()
        self.fetch_pc = ctx.pc
        self._instructions = ctx.program.instructions
        self._program_end = len(self._instructions)
        self.fetch_resume = cycle + stall
        self.last_retire_cycle = cycle
        if self.spl_port is not None:
            self.spl_port.on_context_change(ctx.thread_id, ctx.app_id)

    def detach(self) -> ThreadContext:
        """Remove the (drained) context from this core."""
        if not self.is_drained():
            raise SimulationError("detach before drain completed")
        ctx = self.ctx
        self.ctx = None
        self.halted = True
        self.stop_fetch = True
        if self.spl_port is not None:
            self.spl_port.on_context_change(None, 0)
        return ctx

    def begin_drain(self) -> None:
        self.stop_fetch = True
        self.fetch_queue.clear()

    def is_drained(self) -> bool:
        port_ok = self.spl_port is None or self.spl_port.can_switch_out()
        return not self.rob and not self.pending_stores and port_ok

    @property
    def active(self) -> bool:
        return self.ctx is not None and not self.halted

    def wait_state(self) -> str:
        """One-line description of what this core is blocked on.

        Composed into :exc:`~repro.common.errors.DeadlockError` wait-state
        reports by the machine watchdog; best-effort prose, not a stable
        format.
        """
        if self.ctx is None:
            return f"core{self.index}: idle (no context)"
        prefix = f"core{self.index} thread {self.ctx.thread_id}"
        if self.halted:
            return f"{prefix}: halted"
        if not self.rob:
            return f"{prefix}: fetching at pc={self.ctx.pc}"
        head = self.rob[0]
        what = f"{head.inst.info.name} at pc={head.pc}"
        if head.inst.info.serialize and head.state == DISP:
            port = self.spl_port
            if port is not None:
                detail = port.wait_detail()
                kind = port.stall_kind()
                where = f" ({detail})" if detail else ""
                return (f"{prefix}: blocked in {what} on "
                        f"{kind}{where}")
            return f"{prefix}: blocked in serialized {what}"
        if head.state == DONE:
            return f"{prefix}: retire-blocked behind {what}"
        return f"{prefix}: executing {what}"

    # ------------------------------------- snapshot contract (DESIGN.md §8)

    def _entry_universe(self) -> List[RobEntry]:
        """Every RobEntry reachable from the pipeline structures.

        Flushed entries leave the ROB but can remain referenced from an
        older producer's ``consumers`` list, so the universe is the
        transitive closure over consumer edges, keyed by ``seq`` (unique
        for the lifetime of an attach: flushes never reset ``self.seq``).
        """
        seen: Dict[int, RobEntry] = {}
        stack: List[RobEntry] = list(self.rob)
        for bucket in self.completing.values():
            stack.extend(bucket)
        stack.extend(self.store_entries)
        stack.extend(self.blocked_loads)
        stack.extend(entry for _seq, entry in self.ready)
        stack.extend(self.rat.values())
        while stack:
            entry = stack.pop()
            if entry.seq in seen:
                continue
            seen[entry.seq] = entry
            stack.extend(consumer for consumer, _slot in entry.consumers)
        return [seen[seq] for seq in sorted(seen)]

    def snapshot_state(self) -> dict:
        """Mutable pipeline state only; the instruction stream and wiring
        (ports, snoop hooks, config) are reconstructed from the workload."""
        entries = self._entry_universe()
        return {
            "entries": [{
                "seq": e.seq, "pc": e.pc, "pred_next": e.pred_next,
                "state": e.state, "value": e.value,
                "completion": e.completion, "remaining": e.remaining,
                "consumers": [[c.seq, slot] for c, slot in e.consumers],
                "srcs": list(e.srcs), "addr": e.addr, "size": e.size,
                "store_value": e.store_value, "flushed": e.flushed,
                "started": e.started, "actual_next": e.actual_next,
                "held": e.held,
            } for e in entries],
            "rob": [e.seq for e in self.rob],
            # A seq-sorted list is a valid binary heap and heappop order
            # is identical, so the heap round-trips as sorted seqs.
            "ready": sorted(seq for seq, _e in self.ready),
            "fetch_queue": [[pc, pred_next, fetched]
                            for _inst, pc, pred_next, fetched
                            in self.fetch_queue],
            "completing": [[cycle, [e.seq for e in bucket]]
                           for cycle, bucket
                           in sorted(self.completing.items())],
            "store_entries": [e.seq for e in self.store_entries],
            "blocked_loads": [e.seq for e in self.blocked_loads],
            "rat": [[reg, e.seq] for reg, e in sorted(self.rat.items())],
            "predictor": self.predictor.snapshot_state(),
            "halted": self.halted,
            "stop_fetch": self.stop_fetch,
            "stall_until": self.stall_until,
            "seq": self.seq,
            "fetch_pc": self.fetch_pc,
            "fetch_resume": self.fetch_resume,
            "last_fetch_line": self.last_fetch_line,
            "int_iq_used": self.int_iq_used,
            "fp_iq_used": self.fp_iq_used,
            "lq_used": self.lq_used,
            "sq_used": self.sq_used,
            "rename_int_used": self.rename_int_used,
            "rename_fp_used": self.rename_fp_used,
            "sb_next_free": self.sb_next_free,
            "pending_stores": list(self.pending_stores),
            "last_retire_cycle": self.last_retire_cycle,
            # No elision outlives a walk, so a snapshot holds no plan.
            "ff_poke": self.ff_poke,
            "span_class": self._span_class,
            "span_start": self._span_start,
            "last_tick": self._last_tick,
        }

    def restore_state(self, state: dict) -> None:
        """Rebuild the pipeline from ``state``.

        Precondition: ``self.ctx`` has already been re-pointed at the
        restored context by the machine (bypassing :meth:`attach`, which
        would reset the very state being restored).
        """
        # A detached core (post-migration) has no context but still holds
        # state worth restoring (predictor history, span bookkeeping); its
        # pipeline structures are empty, so no instruction lookups happen.
        insts = self.ctx.program.instructions if self.ctx is not None else []
        by_seq: Dict[int, RobEntry] = {}
        for rec in state["entries"]:
            entry = RobEntry(rec["seq"], insts[rec["pc"]], rec["pc"],
                             rec["pred_next"])
            entry.state = rec["state"]
            entry.value = rec["value"]
            entry.completion = rec["completion"]
            entry.remaining = rec["remaining"]
            entry.srcs = list(rec["srcs"])
            entry.addr = rec["addr"]
            entry.size = rec["size"]
            entry.store_value = rec["store_value"]
            entry.flushed = rec["flushed"]
            entry.started = rec["started"]
            entry.actual_next = rec["actual_next"]
            entry.held = rec["held"]
            by_seq[entry.seq] = entry
        for rec in state["entries"]:
            by_seq[rec["seq"]].consumers = [
                (by_seq[seq], slot) for seq, slot in rec["consumers"]]
        self.rob = deque(by_seq[seq] for seq in state["rob"])
        self.ready = [(seq, by_seq[seq]) for seq in state["ready"]]
        self.fetch_queue = deque(
            (insts[pc], pc, pred_next, fetched)
            for pc, pred_next, fetched in state["fetch_queue"])
        self.completing = {cycle: [by_seq[seq] for seq in seqs]
                           for cycle, seqs in state["completing"]}
        self.store_entries = [by_seq[seq]
                              for seq in state["store_entries"]]
        self.blocked_loads = [by_seq[seq] for seq in state["blocked_loads"]]
        self.rat = {reg: by_seq[seq] for reg, seq in state["rat"]}
        self.predictor.restore_state(state["predictor"])
        self.halted = state["halted"]
        self.stop_fetch = state["stop_fetch"]
        self.stall_until = state["stall_until"]
        self.seq = state["seq"]
        self.fetch_pc = state["fetch_pc"]
        self.fetch_resume = state["fetch_resume"]
        self.last_fetch_line = state["last_fetch_line"]
        self.int_iq_used = state["int_iq_used"]
        self.fp_iq_used = state["fp_iq_used"]
        self.lq_used = state["lq_used"]
        self.sq_used = state["sq_used"]
        self.rename_int_used = state["rename_int_used"]
        self.rename_fp_used = state["rename_fp_used"]
        self.sb_next_free = state["sb_next_free"]
        self.pending_stores = deque(state["pending_stores"])
        self.last_retire_cycle = state["last_retire_cycle"]
        self.ff_poke = state["ff_poke"]
        self._ff_plan = None
        self._bg_watch = None
        self._span_class = state["span_class"]
        self._span_start = state["span_start"]
        self._last_tick = state["last_tick"]
        self._instructions = insts
        self._program_end = len(insts)

    # ------------------------------------------------------------------- tick

    def tick(self, cycle: int) -> None:
        if self.ctx is None or self.halted or cycle < self.stall_until:
            return
        self._cnt["cycles"] += 1
        observed = self.obs.active
        # Stage guards: each skipped call is provably a no-op (writeback
        # pops ``completing[cycle]``; retire only purges/pops when the ROB
        # or store buffer holds entries; issue drains ``ready``; dispatch
        # drains ``fetch_queue``; fetch repeats its own first-line test).
        if self.completing:
            self._writeback(cycle)
        if self.rob or self.pending_stores:
            self._retire(cycle)
        if self.ready:
            self._issue(cycle)
        if self.fetch_queue:
            self._dispatch(cycle)
        if not self.stop_fetch and cycle >= self.fetch_resume \
                and self.fetch_pc >= 0:
            self._fetch(cycle)
        if observed:
            self._observe_cycle(cycle)

    # ----------------------------------------------------------- fast-forward

    def next_event_cycle(self, now: int) -> Optional[int]:
        """Earliest cycle > ``now`` at which ticking this core can change
        its state or its counters.

        Scheduler contract (see DESIGN.md): a return of ``now + 1`` means
        "cannot bound my wake-up / must tick next cycle"; ``None`` means
        the core is fully event-driven — only another tickable (SPL or
        comm controller delivery) can wake it.  Any larger value is a
        promise that every cycle in between is a no-op apart from the
        counters replayed by :meth:`ff_resume`.
        """
        if now + 1 < self.stall_until:
            return self.stall_until  # migration / startup stall window
        if self.ready or self.blocked_loads:
            return now + 1
        candidates = []
        if self.completing:
            candidates.append(min(self.completing))
        if self.pending_stores:
            candidates.append(self.pending_stores[0])  # ordered, see above
        if self.rob:
            head = self.rob[0]
            info = head.inst.info
            if info.serialize:
                if head.state == DISP and head.remaining == 0:
                    if head.inst.op not in _EXT_WAKE_OPS:
                        return now + 1
                    if head.inst.op is Op.FENCE:
                        if not self.pending_stores:
                            return now + 1  # drained: retires next cycle
                    elif (self.spl_port is not None
                            and self.spl_port.output_pending()):
                        return now + 1  # delivered words await this recv
                # in-flight AMO wakes via ``completing``; ext-wake ops
                # (SPL_RECV/SPL_STORE/FENCE) via controller/pending_stores
                # and the delivery poke (ff_poke)
            elif head.state == DONE:
                if not (info.is_store and
                        len(self.pending_stores) >= self.config.store_queue):
                    return now + 1  # head can retire
                # blocked store: wakes when min(pending_stores) drains
        if self.fetch_queue:
            if self._dispatch_stall_key() is None:
                t0 = self.fetch_queue[0][3] + FRONTEND_DELAY
                if t0 <= now:
                    return now + 1  # decode-eligible and unblocked
                candidates.append(t0)
            # resource-blocked: the freeing event is one of the candidates
            # above (or an external delivery), and the per-cycle stall
            # counter is replayed by ff_resume.
        if (not self.stop_fetch and 0 <= self.fetch_pc < len(self.ctx.program)
                and len(self.fetch_queue) < self.config.fetch_queue):
            if self.fetch_resume <= now:
                return now + 1  # fetch would make progress
            candidates.append(self.fetch_resume)
        if not candidates:
            return None
        return min(candidates)

    def _dispatch_stall_key(self) -> Optional[str]:
        """The counter ``_dispatch`` charges for its head-of-queue stall in
        the current state, or None when the head can dispatch.  Mirrors the
        resource cascade in :meth:`_dispatch` exactly, in the same order.
        """
        inst = self.fetch_queue[0][0]
        if len(self.rob) >= self._rob_entries:
            return "rob_full_stalls"
        if inst.needs_fp_iq and self.fp_iq_used >= self._fp_queue:
            return "iq_full_stalls"
        if inst.needs_int_iq and self.int_iq_used >= self._int_queue:
            return "iq_full_stalls"
        if inst.uses_lq and self.lq_used >= self._load_queue:
            return "lsq_full_stalls"
        if inst.uses_sq and self.sq_used >= self._store_queue:
            return "lsq_full_stalls"
        if inst._dest is not None:
            if inst.dest_fp:
                if self.rename_fp_used >= self._rename_limit_fp:
                    return "rename_stalls"
            elif self.rename_int_used >= self._rename_limit_int:
                return "rename_stalls"
        return None

    def ff_elide(self, start: int) -> None:
        """Stop-ticking handshake from the walk.

        Marks the core elided from cycle ``start`` and snapshots the
        per-cycle counter/classification plan while the pipeline state
        is still provably frozen: each skipped tick adds one to
        ``cycles``, the stall counter named by the ROB head or dispatch
        cascade, and one accounting class.  ``ff_resume`` replays from
        this snapshot, never from live state: an external event (an
        invalidation replay, a barrier release) may mutate the pipeline
        or its wait classification after elision, but its poke ends the
        window on exactly the cycle live state starts to differ, so the
        naive loop counted every credited cycle against the frozen
        pre-event state.
        """
        recv_key = None
        cls_head = None
        if self.rob:
            head = self.rob[0]
            info = head.inst.info
            if info.serialize:
                if head.state == DISP and head.remaining == 0:
                    op = head.inst.op
                    # _exec_serialize bumps spl_recv_stalls on every failed
                    # retry of SPL_RECV, and of SPL_STORE once the store
                    # queue has space (queue-full retries bump nothing).
                    if op is Op.SPL_RECV or (
                            op is Op.SPL_STORE and len(self.pending_stores)
                            < self.config.store_queue):
                        recv_key = "spl_recv_stalls"
            elif head.state == DONE and info.is_store and \
                    len(self.pending_stores) >= self.config.store_queue:
                recv_key = "store_buffer_stalls"
            cls_head = self._classify_cycle(start)
        t0 = None
        dkey = None
        if self.fetch_queue:
            t0 = self.fetch_queue[0][3] + FRONTEND_DELAY
            dkey = self._dispatch_stall_key()
        self._ff_plan = (start, recv_key, t0, dkey, cls_head,
                         self.fetch_resume)

    def ff_elide_periodic(self, plan) -> None:
        """Elide a core whose state repeats with a fixed period, from
        the plan's ``anchor`` on.

        ``plan`` (a :class:`repro.cpu.periodic.PeriodicPlan`) holds one
        period's per-phase records; ``ff_resume`` hands the window to
        its ``resume``, which rebuilds the state of the resume cycle's
        phase instead of crediting stall counters.  Snoops of the data
        lines the loop reads are deferred (``_bg_watch``) and replayed
        after that rebuild.
        """
        self._ff_plan = plan
        self._bg_watch = plan.watch

    def ff_resume(self, end: int) -> None:
        """End the elision: consume the poke and replay the counter
        effects of ticking every skipped cycle through ``end`` while
        quiescent, per the ``ff_elide`` snapshot.

        With an empty ROB the accounting class flips from mem (icache
        refill) to compute the cycle ``fetch_resume`` lands; every other
        classification input is covered by one class for the window (see
        ``ff_elide`` for why the snapshot stays valid to ``end``).  A
        periodic plan (``ff_elide_periodic``) instead rebuilds the state
        at the top of ``end + 1`` and replays deferred snoops.
        """
        self.ff_poke = False
        plan = self._ff_plan
        self._ff_plan = None
        if plan.__class__ is not tuple:
            plan.resume(self, end)
            return
        start, recv_key, t0, dkey, cls_head, fetch_resume = plan
        if start < self.stall_until:
            start = self.stall_until  # stalled ticks return before counting
        if start > end:
            return
        n = end - start + 1
        self._cnt["cycles"] += n
        if recv_key is not None:
            self.stats.bump(recv_key, n)
        if dkey is not None and t0 <= end:
            self.stats.bump(dkey, end - max(start, t0) + 1)
        if self.obs.active:
            if cls_head is None and start < fetch_resume <= end:
                self._credit_span(ev.CLS_MEM, start, fetch_resume - 1)
                self._credit_span(ev.CLS_COMPUTE, fetch_resume, end)
            else:
                cls = cls_head
                if cls is None:
                    cls = ev.CLS_MEM if fetch_resume > start \
                        else ev.CLS_COMPUTE
                self._credit_span(cls, start, end)

    def _credit_span(self, cls: str, start: int, end: int) -> None:
        if cls != self._span_class or start != self._last_tick + 1:
            self._close_span()
            self._span_class = cls
            self._span_start = start
        self._last_tick = end

    # ------------------------------------------------------- observability

    def _observe_cycle(self, cycle: int) -> None:
        """Extend or start the run-length cycle-classification span."""
        cls = self._classify_cycle(cycle)
        if cls != self._span_class or cycle != self._last_tick + 1:
            self._close_span()
            self._span_class = cls
            self._span_start = cycle
        self._last_tick = cycle

    def _close_span(self) -> None:
        if self._span_class is not None:
            self.obs.emit(self._span_start, self._src, ev.CYCLE_SPAN,
                          cls=self._span_class,
                          dur=self._last_tick - self._span_start + 1)
            self._span_class = None

    def flush_observation(self) -> None:
        """Emit the open span (end of run / before detaching sinks)."""
        if self.obs.active:
            self._close_span()

    def _classify_cycle(self, cycle: int) -> str:
        """Attribute this ticked cycle to one accounting class.

        The head of the ROB (the oldest instruction) determines what the
        core is waiting for — the standard top-down attribution: a cycle
        that retires work is compute; otherwise the oldest unfinished
        instruction names the bottleneck.
        """
        if self.last_retire_cycle == cycle:
            return ev.CLS_COMPUTE
        if not self.rob:
            # Empty window: front-end refill. An icache miss parks
            # fetch_resume in the future; otherwise it is decode/refill
            # latency, charged to compute.
            if self.fetch_resume > cycle:
                return ev.CLS_MEM
            return ev.CLS_COMPUTE
        head = self.rob[0]
        info = head.inst.info
        if info.serialize:
            op = head.inst.op
            if op in (Op.SPL_RECV, Op.SPL_STORE, Op.SPL_INIT):
                port = self.spl_port
                if port is not None and port.stall_kind() == "barrier":
                    return ev.CLS_BARRIER
                return ev.CLS_SPL_QUEUE
            if op in (Op.SPL_LOAD, Op.SPL_LOADM, Op.SPL_LOADV):
                return ev.CLS_SPL_QUEUE
            if op in (Op.AMO_ADD, Op.AMO_SWAP, Op.FENCE):
                return ev.CLS_MEM
            return ev.CLS_COMPUTE
        if head.state == DONE:
            return ev.CLS_MEM  # retirement blocked on the store buffer
        if head.state == ISSUED and (info.is_load or info.is_store):
            return ev.CLS_MEM
        return ev.CLS_COMPUTE

    # -------------------------------------------------------------- writeback

    def _writeback(self, cycle: int) -> None:
        entries = self.completing.pop(cycle, None)
        if not entries:
            return
        entries.sort(key=_BY_SEQ)
        ready = self.ready
        for entry in entries:
            if entry.flushed or entry.state == DONE:
                continue
            # _complete(entry, cycle), inlined into the per-cycle bucket
            # walk (hot: once per completing instruction).
            entry.state = DONE
            for consumer, slot in entry.consumers:
                if consumer.flushed:
                    continue
                consumer.srcs[slot] = entry.value
                consumer.remaining -= 1
                if consumer.remaining == 0 and consumer.state == DISP and \
                        not consumer.inst.info.serialize:
                    heappush(ready, (consumer.seq, consumer))
            entry.consumers = []
            if entry.inst.info.is_branch:
                self._resolve_branch(entry, cycle)

    def _resolve_branch(self, entry: RobEntry, cycle: int) -> None:
        op = entry.inst.op
        if op in (Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BLTU, Op.BGEU):
            self.predictor.update_direction(entry.pc,
                                            entry.actual_next == entry.inst.target)
        elif op is Op.JR:
            self.predictor.btb_update(entry.pc, entry.actual_next)
        self._cnt["branches_resolved"] += 1
        if entry.actual_next != entry.pred_next:
            self.stats.bump("mispredicts")
            self._flush_from_seq(entry.seq + 1, cycle, entry.actual_next)

    # ----------------------------------------------------------------- flush

    def _flush_from_seq(self, first_seq: int, cycle: int, new_pc: int) -> None:
        """Squash every in-flight entry from ``first_seq`` on and redirect
        fetch to ``new_pc`` from ``cycle + 1``.

        The ROB and the store list are in seq order, so the squashed
        entries are their tails: pop them, freeing the resources the
        popped entries still hold.  The structures are mutated in place
        (the compiled walk holds them across a flush).  Squashed entries
        left in ``ready``, ``completing`` or a producer's consumers are
        skipped by their ``flushed`` flag.
        """
        self._cnt["flushes"] += 1
        rob = self.rob
        int_iq = fp_iq = lq = sq = ren_int = ren_fp = 0
        while rob and rob[-1].seq >= first_seq:
            entry = rob.pop()
            entry.flushed = True
            held = entry.held
            if held:
                if held & HOLD_INT_IQ:
                    int_iq += 1
                elif held & HOLD_FP_IQ:
                    fp_iq += 1
                if held & HOLD_LQ:
                    lq += 1
                if held & HOLD_SQ:
                    sq += 1
                if held & HOLD_REN_INT:
                    ren_int += 1
                elif held & HOLD_REN_FP:
                    ren_fp += 1
                entry.held = 0
        self.int_iq_used -= int_iq
        self.fp_iq_used -= fp_iq
        self.lq_used -= lq
        self.sq_used -= sq
        self.rename_int_used -= ren_int
        self.rename_fp_used -= ren_fp
        store_entries = self.store_entries
        while store_entries and store_entries[-1].flushed:
            store_entries.pop()
        self._unblock_loads()
        # Each register maps to its youngest surviving writer.
        rat = self.rat
        rat.clear()
        for entry in rob:
            dest = entry.inst._dest
            if dest is not None:
                rat[dest] = entry
        self.fetch_queue.clear()
        if not self.stop_fetch:
            self.fetch_pc = new_pc
            self.fetch_resume = cycle + 1
            self.last_fetch_line = -1
        self.predictor.flush_speculative_state()

    def _on_invalidation(self, line: int) -> None:
        """Snoop-invalidation hook: replay in-flight loads of that line.

        The memory system calls it for this core's hierarchy only
        (``CoherentMemorySystem.set_snoop_hook``)."""
        watch = self._bg_watch
        if watch is not None:
            # Periodically elided: ``rob`` is a stale record, so defer
            # every snoop that can matter — one of the loop's data lines —
            # and let the resume replay it against the rebuilt state.
            # Any other line is in no in-flight load at any phase.
            if line in watch:
                self.ff_poke = True
                self._bg_pending_inval.append(line)
            return
        if not self.rob:
            return
        if self._bg_resident:
            # A compiled generator holds this core's scalar state in
            # locals (``rob`` contents are shared in place, so the empty
            # check above is sound).  Record the line and poke; the
            # multi-core window walk syncs the generator and replays the
            # invalidation before this core's next cycle slot — at which
            # point the state it sees is identical to what the in-order
            # interpreter walk would have shown, because the core does
            # not run between the snoop and its slot.
            self.ff_poke = True
            self._bg_pending_inval.append(line)
            return
        for entry in self.rob:
            # Serialized ops (atomics) execute non-speculatively at the ROB
            # head with side effects; they are never replayed.
            if (entry.inst.info.is_load and not entry.inst.info.serialize
                    and entry.state != DISP
                    and not entry.flushed and entry.addr is not None
                    and (entry.addr >> 5) == line):
                self.stats.bump("load_replays")
                # Squash the load and everything younger; refetch the load.
                # The replay mutates pipeline state from outside tick(), so
                # wake the core if the fast-forward scheduler elided it.
                self.ff_poke = True
                self._flush_from_seq(entry.seq, self.last_retire_cycle + 1,
                                     entry.pc)
                return

    # ----------------------------------------------------------------- retire

    def _retire(self, cycle: int) -> None:
        pending = self.pending_stores
        while pending and pending[0] <= cycle:
            pending.popleft()
        retired = 0
        rob = self.rob
        ctx = self.ctx
        rat = self.rat
        retire_width = self._retire_width
        retire_pcs = self._retire_pcs
        last_next = 0
        while rob and retired < retire_width:
            head = rob[0]
            inst = head.inst
            info = inst.info
            if head.state != DONE:
                if (info.serialize and head.remaining == 0
                        and head.state == DISP):
                    if not self._exec_serialize(head, cycle):
                        break
                    if head.state != DONE:
                        break  # multi-cycle serialize op in flight
                else:
                    break
            if info.is_store and not info.serialize:
                if not self._retire_store(head, cycle):
                    self.stats.bump("store_buffer_stalls")
                    break
            dest = inst._dest
            if dest is not None:
                ctx.write(dest, head.value)
                if rat.get(dest) is head:
                    del rat[dest]
            rob.popleft()
            if info.is_store:
                if head in self.store_entries:
                    self.store_entries.remove(head)
                self._unblock_loads()
            # Free the back-end resources the entry still holds.
            held = head.held
            if held:
                if held & HOLD_INT_IQ:
                    self.int_iq_used -= 1
                elif held & HOLD_FP_IQ:
                    self.fp_iq_used -= 1
                if held & HOLD_LQ:
                    self.lq_used -= 1
                if held & HOLD_SQ:
                    self.sq_used -= 1
                if held & HOLD_REN_INT:
                    self.rename_int_used -= 1
                elif held & HOLD_REN_FP:
                    self.rename_fp_used -= 1
                head.held = 0
            if retire_pcs is not None:
                retire_pcs[head.pc] = retire_pcs.get(head.pc, 0) + 1
            last_next = head.actual_next
            retired += 1
            if inst.op is Op.HALT:
                self.halted = True
                ctx.finished = True
                self.stop_fetch = True
                break
        if retired:
            # Architectural PC / progress bookkeeping only needs the final
            # values; nothing inside the loop reads them through ``self``
            # or ``ctx`` (``_classify_cycle`` runs after the stages).
            ctx.pc = last_next
            ctx.retired_instructions += retired
            self.last_retire_cycle = cycle
            self._cnt["retired"] += retired

    def _purge_store_buffer(self, cycle: int) -> None:
        # ``pending_stores`` is ordered (see _reset_pipeline): drained
        # entries form a prefix, so purging never rebuilds the container.
        pending = self.pending_stores
        while pending and pending[0] <= cycle:
            pending.popleft()

    def _retire_store(self, entry: RobEntry, cycle: int) -> bool:
        if len(self.pending_stores) >= self._store_queue:
            return False
        self._write_memory(entry.addr, entry.store_value, entry.inst.op)
        start = max(self.sb_next_free, cycle)
        done = self.mem_system.data_access(self.index, entry.addr, True, start)
        self.sb_next_free = done
        self.pending_stores.append(done)
        self._cnt["stores"] += 1
        return True

    def _write_memory(self, addr: int, value, op: Op) -> None:
        if op in (Op.SW, Op.AMO_ADD, Op.AMO_SWAP):
            self.memory.write_word(addr, value & 0xFFFFFFFF)
        elif op is Op.SB:
            self.memory.write_byte(addr, value & 0xFF)
        elif op is Op.SH:
            self.memory.write_half(addr, value & 0xFFFF)
        elif op is Op.FSW:
            self.memory.write_float(addr, value)
        else:  # pragma: no cover
            raise SimulationError(f"not a store op: {op}")

    # ------------------------------------------------------- serialized ops

    def _exec_serialize(self, entry: RobEntry, cycle: int) -> bool:
        """Execute a non-speculative op at the ROB head.

        Returns False when the op must retry next cycle.  On success the
        entry either becomes DONE immediately or is scheduled into the
        writeback queue (multi-cycle ops).
        """
        op = entry.inst.op
        if op is Op.HALT:
            self._finish_serialize(entry, cycle)
            return True
        if op is Op.FENCE:
            self._purge_store_buffer(cycle)
            if self.pending_stores:
                return False
            self._finish_serialize(entry, cycle)
            return True
        if op in (Op.AMO_ADD, Op.AMO_SWAP):
            if not entry.started:
                entry.started = True
                addr = entry.srcs[0]
                old = self.memory.read_word_signed(addr)
                operand = entry.srcs[1]
                new = old + operand if op is Op.AMO_ADD else operand
                self.memory.write_word(addr, new & 0xFFFFFFFF)
                entry.value = old
                entry.addr = addr
                done = self.mem_system.data_access(self.index, addr, True,
                                                   cycle)
                entry.state = ISSUED
                entry.completion = done
                self.completing.setdefault(done, []).append(entry)
                self.stats.bump("atomics")
            return False  # completes through the writeback path
        port = self.spl_port
        if port is None:
            raise SimulationError(
                f"core {self.index} has no SPL/communication unit but "
                f"executed {op.value}")
        if op is Op.SPL_LOAD:
            if port.stage_load(entry.srcs[0], entry.inst.imm, cycle):
                self.stats.bump("spl_loads")
                self._finish_serialize(entry, cycle)
                return True
            self.stats.bump("spl_load_stalls")
            return False
        if op in (Op.SPL_LOADM, Op.SPL_LOADV):
            addr = entry.srcs[0] + entry.inst.imm
            words = 4 if op is Op.SPL_LOADV else 1
            ready = self.mem_system.data_access(self.index, addr, False,
                                                cycle)
            if words == 4 and (addr & 31) > 16:
                # The 16-byte beat straddles a cache line: second access.
                ready = max(ready, self.mem_system.data_access(
                    self.index, addr + 12, False, cycle))
            # inst.target carries the staging byte offset (imm is the
            # address offset) — see the assembler's spl_loadm signature.
            offset = entry.inst.target
            for i in range(words):
                value = self.memory.read_word_signed(addr + 4 * i)
                if not port.stage_load(value, offset + 4 * i, cycle,
                                       ready=ready):
                    self.stats.bump("spl_load_stalls")
                    return False
            self.stats.bump("spl_loads")
            self._finish_serialize(entry, cycle)
            return True
        if op is Op.SPL_INIT:
            if port.init(entry.inst.imm, cycle):
                self.stats.bump("spl_inits")
                self._finish_serialize(entry, cycle)
                return True
            self.stats.bump("spl_init_stalls")
            return False
        if op is Op.SPL_RECV:
            value = port.recv(cycle)
            if value is None:
                self.stats.bump("spl_recv_stalls")
                return False
            entry.value = value
            self.stats.bump("spl_recvs")
            self._finish_serialize(entry, cycle)
            return True
        if op is Op.SPL_STORE:
            if len(self.pending_stores) >= self.config.store_queue:
                return False
            value = port.recv(cycle)
            if value is None:
                self.stats.bump("spl_recv_stalls")
                return False
            addr = entry.srcs[0] + entry.inst.imm
            self.memory.write_word(addr, value & 0xFFFFFFFF)
            start = max(self.sb_next_free, cycle)
            done = self.mem_system.data_access(self.index, addr, True, start)
            self.sb_next_free = done
            self.pending_stores.append(done)
            self.stats.bump("spl_stores")
            self._finish_serialize(entry, cycle)
            return True
        raise SimulationError(f"unhandled serialized op {op}")

    def _finish_serialize(self, entry: RobEntry, cycle: int) -> None:
        entry.state = DONE
        for consumer, slot in entry.consumers:
            if consumer.flushed:
                continue
            consumer.srcs[slot] = entry.value
            consumer.remaining -= 1
            if consumer.remaining == 0 and consumer.state == DISP and \
                    not consumer.inst.info.serialize:
                heappush(self.ready, (consumer.seq, consumer))
        entry.consumers = []

    # ------------------------------------------------------------------ issue

    def _issue(self, cycle: int) -> None:
        budget = self._issue_width
        fu_used: Dict[str, int] = {}
        put_back: List[RobEntry] = []
        ready = self.ready
        fu_pool = self._fu_pool
        cnt = self._cnt
        issued = 0
        # Queue-occupancy deltas accumulate in locals (written back once
        # below); nothing called inside the loop reads the counters.
        int_iq_freed = 0
        fp_iq_freed = 0
        while budget > 0 and ready:
            _, entry = heappop(ready)
            if entry.flushed or entry.state != DISP:
                continue
            info = entry.inst.info
            pool, limit = fu_pool[info.fu]
            if fu_used.get(pool, 0) >= limit:
                put_back.append(entry)
                continue
            if info.is_load:
                verdict = self._try_issue_load(entry, cycle)
                if verdict == "blocked":
                    self.blocked_loads.append(entry)
                    continue
            else:
                self._execute(entry, cycle)
            fu_used[pool] = fu_used.get(pool, 0) + 1
            budget -= 1
            held = entry.held
            if held & HOLD_INT_IQ:
                int_iq_freed += 1
                entry.held = held & ~HOLD_INT_IQ
            elif held & HOLD_FP_IQ:
                fp_iq_freed += 1
                entry.held = held & ~HOLD_FP_IQ
            issued += 1
        if issued:
            cnt["issued"] += issued
            self.int_iq_used -= int_iq_freed
            self.fp_iq_used -= fp_iq_freed
        for entry in put_back:
            heappush(ready, (entry.seq, entry))

    def _try_issue_load(self, entry: RobEntry, cycle: int) -> str:
        addr = entry.srcs[0] + entry.inst.imm
        size, _ = _LOAD_OPS[entry.inst.op]
        forward = None
        for store in reversed(self.store_entries):
            if store.seq > entry.seq or store.flushed:
                continue
            if store.addr is None:
                return "blocked"
            if store.addr == addr and store.size == size:
                forward = store
                break
            if (store.addr < addr + size and addr < store.addr + store.size):
                return "blocked"  # partial overlap: wait for the store
        entry.addr = addr
        entry.size = size
        entry.state = ISSUED
        if forward is not None:
            entry.value = self._convert_load(entry.inst.op,
                                             forward.store_value, addr,
                                             forwarded=True)
            done = cycle + self.config.l1d.hit_latency
            self.stats.bump("load_forwards")
        else:
            entry.value = self._read_memory(entry.inst.op, addr)
            done = self.mem_system.data_access(self.index, addr, False, cycle)
        entry.completion = done
        completing = self.completing
        bucket = completing.get(done)
        if bucket is None:
            completing[done] = [entry]
        else:
            bucket.append(entry)
        self._cnt["loads"] += 1
        return "issued"

    def _read_memory(self, op: Op, addr: int):
        if op is Op.LW:
            return self.memory.read_word_signed(addr)
        if op is Op.LB:
            value = self.memory.read_byte(addr)
            return value - 256 if value >= 128 else value
        if op is Op.LBU:
            return self.memory.read_byte(addr)
        if op is Op.LH:
            value = self.memory.read_half(addr)
            return value - 65536 if value >= 32768 else value
        if op is Op.LHU:
            return self.memory.read_half(addr)
        if op is Op.FLW:
            return self.memory.read_float(addr)
        raise SimulationError(f"not a load op: {op}")  # pragma: no cover

    @staticmethod
    def _convert_load(op: Op, raw, addr: int, forwarded: bool):
        """Interpret a forwarded store value through the load's width."""
        if op in (Op.LW, Op.FLW):
            return raw
        if op is Op.LBU:
            return raw & 0xFF
        if op is Op.LB:
            value = raw & 0xFF
            return value - 256 if value >= 128 else value
        if op is Op.LHU:
            return raw & 0xFFFF
        value = raw & 0xFFFF
        return value - 65536 if value >= 32768 else value

    def _execute(self, entry: RobEntry, cycle: int) -> None:
        inst = entry.inst
        op = inst.op
        info = inst.info
        entry.state = ISSUED
        if info.is_store:
            entry.addr = entry.srcs[0] + inst.imm
            entry.size = _STORE_OPS[op]
            entry.store_value = entry.srcs[1]
            done = cycle + 1
            self._unblock_loads()
        elif info.is_branch:
            entry.actual_next = self._branch_target(entry)
            done = cycle + 1
            if op is Op.JAL:
                entry.value = entry.pc + 1
        elif info.fu is FuClass.FP:
            entry.value = fp(op, entry.srcs[0], entry.srcs[1])
            done = cycle + info.latency
            self._cnt["fp_ops"] += 1
        else:
            fn = ALU_TABLE.get(op)
            if fn is None:
                raise SimulationError(f"alu cannot evaluate {op}")
            entry.value = fn(entry.srcs[0], entry.srcs[1], inst.imm)
            done = cycle + info.latency
            self._cnt["int_ops"] += 1
        entry.completion = done
        completing = self.completing
        bucket = completing.get(done)
        if bucket is None:
            completing[done] = [entry]
        else:
            bucket.append(entry)

    def _branch_target(self, entry: RobEntry) -> int:
        op = entry.inst.op
        if op in (Op.J, Op.JAL):
            return entry.inst.target
        if op is Op.JR:
            return entry.srcs[0]
        taken = branch_taken(op, entry.srcs[0], entry.srcs[1])
        return entry.inst.target if taken else entry.pc + 1

    def _unblock_loads(self) -> None:
        if self.blocked_loads:
            for load in self.blocked_loads:
                if not load.flushed:
                    heappush(self.ready, (load.seq, load))
            self.blocked_loads.clear()

    # --------------------------------------------------------------- dispatch

    def _dispatch(self, cycle: int) -> None:
        # The resource cascade below reads the per-instruction dispatch
        # template resolved at Instruction construction; any change here
        # must be mirrored in _dispatch_stall_key (the fast-forward
        # scheduler's snapshot depends on the two agreeing exactly).
        dispatched = 0
        fetch_queue = self.fetch_queue
        rob = self.rob
        rat = self.rat
        decode_width = self._decode_width
        rob_entries = self._rob_entries
        ready = self.ready
        store_entries = self.store_entries
        ctx_read = self.ctx.read
        # The occupancy counters and ``seq`` live in locals for the loop
        # and are written back once below; nothing called inside the loop
        # reads them through ``self``.
        seq = self.seq
        fp_iq_used = self.fp_iq_used
        int_iq_used = self.int_iq_used
        lq_used = self.lq_used
        sq_used = self.sq_used
        rename_fp_used = self.rename_fp_used
        rename_int_used = self.rename_int_used
        fp_queue = self._fp_queue
        int_queue = self._int_queue
        load_queue = self._load_queue
        store_queue = self._store_queue
        rename_limit_fp = self._rename_limit_fp
        rename_limit_int = self._rename_limit_int
        while fetch_queue and dispatched < decode_width:
            inst, pc, pred_next, fetched = fetch_queue[0]
            if cycle < fetched + FRONTEND_DELAY:
                break
            if len(rob) >= rob_entries:
                self.stats.bump("rob_full_stalls")
                break
            needs_fp_iq = inst.needs_fp_iq
            needs_int_iq = inst.needs_int_iq
            if needs_fp_iq and fp_iq_used >= fp_queue:
                self.stats.bump("iq_full_stalls")
                break
            if needs_int_iq and int_iq_used >= int_queue:
                self.stats.bump("iq_full_stalls")
                break
            if inst.uses_lq and lq_used >= load_queue:
                self.stats.bump("lsq_full_stalls")
                break
            if inst.uses_sq and sq_used >= store_queue:
                self.stats.bump("lsq_full_stalls")
                break
            dest = inst._dest
            dest_fp = inst.dest_fp
            if dest is not None:
                if dest_fp and rename_fp_used >= rename_limit_fp:
                    self.stats.bump("rename_stalls")
                    break
                if not dest_fp and rename_int_used >= rename_limit_int:
                    self.stats.bump("rename_stalls")
                    break
            fetch_queue.popleft()
            entry = RobEntry(seq, inst, pc, pred_next)
            seq += 1
            # Source renaming, unrolled over the two slots (hot: once per
            # dispatched instruction).
            srcs = entry.srcs
            reg = inst.rs1
            if reg is None or reg == 0:
                srcs[0] = 0
            else:
                producer = rat.get(reg)
                if producer is None:
                    srcs[0] = ctx_read(reg)
                elif producer.state == DONE:
                    srcs[0] = producer.value
                else:
                    producer.consumers.append((entry, 0))
                    entry.remaining += 1
                    srcs[0] = None
            reg = inst.rs2
            if reg is None or reg == 0:
                srcs[1] = 0
            else:
                producer = rat.get(reg)
                if producer is None:
                    srcs[1] = ctx_read(reg)
                elif producer.state == DONE:
                    srcs[1] = producer.value
                else:
                    producer.consumers.append((entry, 1))
                    entry.remaining += 1
                    srcs[1] = None
            entry.held = inst.held_mask
            if needs_fp_iq:
                fp_iq_used += 1
            if needs_int_iq:
                int_iq_used += 1
            if inst.uses_lq:
                lq_used += 1
            if inst.uses_sq:
                sq_used += 1
                store_entries.append(entry)
            if dest is not None:
                if dest_fp:
                    rename_fp_used += 1
                else:
                    rename_int_used += 1
                rat[dest] = entry
            rob.append(entry)
            # Serialized ops set neither queue flag, so (needs_fp_iq or
            # needs_int_iq) is exactly ``not info.serialize``.
            if entry.remaining == 0 and (needs_fp_iq or needs_int_iq):
                heappush(ready, (entry.seq, entry))
            dispatched += 1
        if dispatched:
            self._cnt["dispatched"] += dispatched
            self.seq = seq
            self.fp_iq_used = fp_iq_used
            self.int_iq_used = int_iq_used
            self.lq_used = lq_used
            self.sq_used = sq_used
            self.rename_fp_used = rename_fp_used
            self.rename_int_used = rename_int_used

    # ------------------------------------------------------------------ fetch

    def _fetch(self, cycle: int) -> None:
        if self.stop_fetch or cycle < self.fetch_resume or self.fetch_pc < 0:
            return
        instructions = self._instructions
        end = self._program_end
        fetch_queue = self.fetch_queue
        cnt = self._cnt
        fetch_width = self._fetch_width
        queue_cap = self._fetch_queue_cap
        fetched = 0
        # ``fetch_pc``/``last_fetch_line`` track in locals for the loop
        # and are written back once below; nothing called inside the loop
        # reads them through ``self``.
        fetch_pc = self.fetch_pc
        last_line = self.last_fetch_line
        while fetched < fetch_width and len(fetch_queue) < queue_cap:
            pc = fetch_pc
            if pc < 0 or pc >= end:
                break  # wrong-path or past-end: wait for redirect
            line = pc >> 3  # 32 B line / 4 B per instruction
            if line != last_line:
                done = self.mem_system.inst_fetch(self.index, pc, cycle)
                last_line = line
                if done > cycle + self._l1i_hit:
                    self.fetch_resume = done
                    self.stats.bump("icache_stall_cycles", done - cycle)
                    break
            inst = instructions[pc]
            # Only branch-class ops consult the predictor/RAS/BTB; the
            # straight-line fast path is a plain increment.
            pred_next = self._predict_next(inst, pc) \
                if inst.info.is_branch else pc + 1
            fetch_queue.append((inst, pc, pred_next, cycle))
            fetched += 1
            if inst.op is Op.HALT:
                fetch_pc = -1
                break
            fetch_pc = pred_next
            if pred_next != pc + 1:
                break  # taken-predicted branch ends the fetch group
        if fetched:
            cnt["fetched"] += fetched
        self.fetch_pc = fetch_pc
        self.last_fetch_line = last_line

    def _predict_next(self, inst: Instruction, pc: int) -> int:
        op = inst.op
        if op in (Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BLTU, Op.BGEU):
            if self.predictor.predict_direction(pc):
                return inst.target
            return pc + 1
        if op is Op.J:
            return inst.target
        if op is Op.JAL:
            self.predictor.ras_push(pc + 1)
            return inst.target
        if op is Op.JR:
            target = self.predictor.ras_pop()
            if target is None:
                target = self.predictor.btb_lookup(pc)
            if target is None:
                return -1  # stall fetch until the JR resolves
            return target
        return pc + 1
