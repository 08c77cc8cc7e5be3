"""The compiled walk: the OOO core hot loop, specialized (DESIGN.md §10).

The cycle-level interpreter in :mod:`repro.cpu.pipeline` pays per-cycle
Python dispatch for every stage of every instruction.  On compute-bound
runs (no SPL traffic, caches warm) almost all of that work is decided by
the static program text: which evaluator runs, which registers rename,
which resources an instruction holds.  This module folds those
decisions out of the loop:

* Per-PC tables, built once per :class:`BlockRunner`, hold each
  instruction's static decisions.  Its evaluator comes from
  :mod:`repro.cpu.exec`'s ``ALU_TABLE``/``FP_TABLE``/``BRANCH_TABLE``,
  the same functions ``tick`` and the golden interpreter call, so the
  ISA's semantics have one copy.
* :meth:`BlockRunner.drive` is the one compiled core cycle: a
  specialized re-implementation of ``OutOfOrderCore.tick``, written
  as a generator so one core's hoisted scalars live in locals for a
  whole *residency*; per-PC metadata lives in dense tables, and hot
  counters accumulate locally and flush once per walk.  Under a sink
  it classifies each cycle into the cycle-accounting spans, as
  ``tick`` does.  **Every
  architectural effect is cycle- and stats-exact against the
  interpreter** — tests/test_fastforward.py sweeps the two against
  each other, and ``repro bench --check`` gates on identical cycles.
* **The walk**: :class:`MultiBlockRunner` advances every running core
  — one or many — cycle by cycle in index order (the naive loop's
  order, which fixes the shared-memory / snoop-invalidation
  interleaving): each by one send to its resident generator (a
  sibling's snoop invalidation is *deferred* while the generator holds
  the core's scalars and replayed, bit-exact, at the victim's next
  cycle slot after a writeback sync).  Only a draining core (no
  runner) and the multi-cycle send's poke fix-up tick interpret.
  While exactly one core is live and the controllers are provably
  quiet, that core gets a *multi-cycle send* instead: the generator
  runs cycles up to a bound the walk sets and reports where it
  stopped, with a poke escape so snoop wakes of elided siblings still
  land on their exact cycle.
* **Serialized ops compile**: every one — the SPL ops, FENCE, the
  atomics and HALT — runs the interpreter's own ``_exec_serialize`` at
  the retire stage's exact point in the cycle.  A head that cannot
  proceed *parks* (the interpreter's failed retry, replayed
  compiled): an ``spl_recv``/``spl_store`` waiting on its port, a
  FENCE waiting for stores to drain, an atomic in flight.  An atomic
  then completes through the compiled writeback like any other op,
  and a HALT ends the core's residency.  Branch mispredicts, icache
  misses, and structural stalls are handled inline through the
  interpreter's own machinery (``_flush_from_seq``, stall counters) —
  they are exactly replicable.
* **Controllers, elision and jumps**: controllers stay un-ticked (the
  §6 event-horizon bound taken at walk entry) until an interpreted tick
  or a compiled SPL op may have touched a port; from then on they tick
  every cycle until a quiet cycle re-proves a bound.  Quiescent cores
  are elided inside the walk (``ff_elide``/``ff_resume``), and when
  every running core is elided and the controllers are quiet the walk
  jumps to the earliest wake or controller event.  No elision outlives
  the walk: it resumes every elided core when it returns.
* **Periodic elision** (:mod:`repro.cpu.periodic`): a compiled core
  spinning in a store-free loop (a software barrier's sense loop) is
  elided too, once its whole shift-normalized state repeats with a
  fixed period: the walk keeps one period's per-phase records and a
  snoop of a line the loop reads wakes the core into the exact state of
  the wake cycle's phase.  Under a sink the plan also keeps each
  phase's accounting class, so observed runs elide the same cycles.

The walk is ``Machine.run``'s fast scheduler, switched by
``RunOptions.fast_forward`` / ``REPRO_NO_FASTFORWARD`` (see
repro.common.config).
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import attrgetter
from typing import Optional

from repro.cpu.exec import ALU_TABLE, BRANCH_TABLE, FP_TABLE
from repro.cpu.pipeline import (FRONTEND_DELAY, _LOAD_OPS, _STORE_OPS,
                                HOLD_FP_IQ, HOLD_INT_IQ, HOLD_LQ,
                                HOLD_REN_FP, HOLD_REN_INT, HOLD_SQ,
                                OutOfOrderCore, RobEntry)
from repro.isa.instruction import FP_BASE
from repro.isa.opcodes import FuClass, Op

_BY_SEQ = attrgetter("seq")

_POOL_IDS = {"int": 0, "fp": 1, "branch": 2, "mem": 3}

#: ``BlockRunner.ser_tab`` kinds (0: not serialized).  The drive loop
#: runs every serialized op by calling the interpreter's own
#: ``_exec_serialize`` at the retire stage's exact point in the cycle;
#: it touches only shared structures (port/controller, memory,
#: ``pending_stores``, ``completing``, the ready heap via
#: ``_finish_serialize``) plus ``sb_next_free``, which the call site
#: syncs around the call.  The kind says when a head *parks* and what
#: the cycle reports to the walk.  Kinds up to ``_SER_STORE`` touch an
#: SPL/comm port, so a cycle that runs one keeps the controllers live.
_SER_SPL = 1       # SPL_LOAD/LOADM/LOADV/INIT: every retry runs
_SER_RECV = 2      # SPL_RECV: parks while its output queue is empty
_SER_STORE = 3     # SPL_STORE: also parks while the store buffer is full
_SER_FENCE = 4     # parks while stores drain
_SER_AMO = 5       # AMO_ADD/AMO_SWAP: parks while in flight
_SER_HALT = 6      # retires, halts the core and ends the residency
_SER_KINDS = {Op.SPL_LOAD: _SER_SPL, Op.SPL_LOADM: _SER_SPL,
              Op.SPL_LOADV: _SER_SPL, Op.SPL_INIT: _SER_SPL,
              Op.SPL_RECV: _SER_RECV, Op.SPL_STORE: _SER_STORE,
              Op.FENCE: _SER_FENCE, Op.AMO_ADD: _SER_AMO,
              Op.AMO_SWAP: _SER_AMO, Op.HALT: _SER_HALT}


def _conv_lb(raw):
    value = raw & 0xFF
    return value - 256 if value >= 128 else value


def _conv_lbu(raw):
    return raw & 0xFF


def _conv_lh(raw):
    value = raw & 0xFFFF
    return value - 65536 if value >= 32768 else value


def _conv_lhu(raw):
    return raw & 0xFFFF


#: Store-to-load forwarding conversion per load op, mirroring
#: ``OutOfOrderCore._convert_load`` (None: the raw word passes through).
_CONV = {Op.LW: None, Op.FLW: None, Op.LB: _conv_lb, Op.LBU: _conv_lbu,
         Op.LH: _conv_lh, Op.LHU: _conv_lhu}


class BlockRunner:
    """Per-(machine core, context) specialized executor.

    Holds the dense per-PC tables (fetch, dispatch, execute, retire),
    built once against the owning machine's memory.  Rebuilt by the
    machine whenever the core's context changes.  ``rows`` (a dispatch
    or FU-pool row -> its one shared copy) is shared by the machine's
    runners.
    """

    def __init__(self, core: OutOfOrderCore, rows: dict) -> None:
        self.core = core
        self.ctx = core.ctx
        program = core.ctx.program
        memory = core.memory

        def _read_lb(addr, _rb=memory.read_byte):
            value = _rb(addr)
            return value - 256 if value >= 128 else value

        def _read_lh(addr, _rh=memory.read_half):
            value = _rh(addr)
            return value - 65536 if value >= 32768 else value

        read_map = {Op.LW: memory.read_word_signed, Op.LB: _read_lb,
                    Op.LBU: memory.read_byte, Op.LH: _read_lh,
                    Op.LHU: memory.read_half, Op.FLW: memory.read_float}
        write_map = {
            Op.SW: lambda addr, v, _w=memory.write_word:
                _w(addr, v & 0xFFFFFFFF),
            Op.SB: lambda addr, v, _w=memory.write_byte: _w(addr, v & 0xFF),
            Op.SH: lambda addr, v, _w=memory.write_half:
                _w(addr, v & 0xFFFF),
            Op.FSW: memory.write_float,
        }

        instructions = program.instructions
        n = len(instructions)
        # fetch_tab[pc] = (inst, fetch_kind, target)
        self.fetch_tab = []
        # disp_tab[pc] = (needs_fp_iq, needs_int_iq, uses_lq, uses_sq,
        #                 dest, dest_fp, held_mask, rs1, rs2) with the
        # source registers normalized to None when absent or r0.
        self.disp_tab = []
        # exec_meta[pc]: None for serialized ops;
        #   (0, ALU_TABLE[op], latency, imm)          int ALU
        #   (1, FP_TABLE[op], latency)                FP
        #   (2, taken_fn, link_value, target, fall)   branch
        #   (3, None, size, imm)                      store
        #   (4, read_fn, size, imm, conv)             load
        # A branch row's taken_fn is BRANCH_TABLE[op], or None for J/JAL
        # (always ``target``) and JR (target None: the source value).
        self.exec_meta = []
        self.ser_tab = []      # serialized-op kind (_SER_*) per pc, or 0
        self.st_tab = []       # retire-time write closure, or None
        self.dest_tab = []     # inst._dest per pc
        self.br_tab = []       # (mode 1=cond/2=JR/0=direct, target) or None
        self.pool_tab = []     # (fu pool id, per-cycle unit limit)
        for pc in range(n):
            inst = instructions[pc]
            info = inst.info
            self.fetch_tab.append((inst, inst.fetch_kind, inst.target))
            rs1 = inst.rs1 if inst.rs1 else None
            rs2 = inst.rs2 if inst.rs2 else None
            row = (inst.needs_fp_iq, inst.needs_int_iq, inst.uses_lq,
                   inst.uses_sq, inst._dest, inst.dest_fp, inst.held_mask,
                   rs1, rs2)
            self.disp_tab.append(rows.setdefault(row, row))
            self.ser_tab.append(_SER_KINDS[inst.op] if info.serialize else 0)
            if info.serialize:
                meta = None
            elif info.is_load:
                size, _signed = _LOAD_OPS[inst.op]
                meta = (4, read_map[inst.op], size, inst.imm,
                        _CONV[inst.op])
            elif info.is_store:
                meta = (3, None, _STORE_OPS[inst.op], inst.imm)
            elif info.is_branch:
                link = pc + 1 if inst.op is Op.JAL else None
                target = None if inst.op is Op.JR else inst.target
                meta = (2, BRANCH_TABLE.get(inst.op), link, target, pc + 1)
            elif info.fu is FuClass.FP:
                meta = (1, FP_TABLE[inst.op], info.latency)
            else:
                meta = (0, ALU_TABLE[inst.op], info.latency, inst.imm)
            self.exec_meta.append(meta)
            self.st_tab.append(
                write_map[inst.op]
                if info.is_store and not info.serialize else None)
            self.dest_tab.append(inst._dest)
            if not info.is_branch:
                self.br_tab.append(None)
            elif inst.op is Op.JR:
                self.br_tab.append((2, None))
            elif inst.op in (Op.J, Op.JAL):
                self.br_tab.append((0, inst.target))
            else:
                self.br_tab.append((1, inst.target))
            pool_name, limit = core._fu_pool[info.fu]
            row = (_POOL_IDS[pool_name], limit)
            self.pool_tab.append(rows.setdefault(row, row))
        # Periodic elision (repro.cpu.periodic): its per-runner tables,
        # built when the runner first joins a walk that may elide, and
        # its telemetry — core-cycles elided, resumes, detection
        # attempts and failed attempts.
        self.spin = None
        self.pe_cycles = 0
        self.pe_wakes = 0
        self.pe_attempts = 0
        self.pe_failures = 0

    # ---------------------------------------------------------------- drive

    def drive(self, pend: list, tap: Optional[list] = None):
        """Generator: the compiled core cycle — a faithful
        transliteration of ``OutOfOrderCore.tick`` and the stage
        methods it calls — for one core of a :class:`MultiBlockRunner`
        walk, hoisting once per *residency* instead of once per cycle.
        Any edit to the pipeline stages must be mirrored here: the
        differential sweep in tests/test_fastforward.py and the fuzzer's
        agreement contract exist to catch drift.

        Protocol (driven by the walk):

        * prime with ``send(None)`` — runs the hoist up to the first
          yield and marks the core *resident* (``core._bg_resident``),
          which makes sibling snoop invalidations defer themselves (see
          ``OutOfOrderCore._on_invalidation``) instead of reading the
          core's now-stale scalar attributes;
        * ``send(cycle)`` runs exactly one compiled cycle and yields
          True — or 2 when the cycle was quiet and either parked (a
          head ``spl_recv``/``spl_store`` waiting on its port, a FENCE
          waiting for stores to drain, an atomic in flight) or met a
          FENCE or an atomic at the head, a hint that the core may be
          quiescent and worth an elide probe; 3 when an SPL op
          executed; 4 when a HALT retired (5: after an SPL op in the
          same cycle), after which the walk ends the residency.
          Cycles need not be consecutive (the walk skips a core's
          stall window), only monotone;
        * ``send((start, limit, watch))`` is a *multi-cycle send*: it
          runs cycles ``start, start + 1, ...`` and yields the first
          cycle it did not run, staying resident.  It stops before
          ``limit``, before any cycle with a serialized op of any kind
          within retire reach (so it never parks or executes one), and
          before the cycle after one of its stores poked a core in
          ``watch`` (``ff_poke``).  The walk sends one when this is its
          only live core, so controller ticks, elide probes and
          serialized ops all stay on the one-cycle path;
        * ``send(-1)`` is the sync sentinel: write back and return;
        * ``send(-2)`` *publishes*: writes the hoisted scalars and the
          deferred counters back and yields None, staying resident, so
          the walk can read the core's exact state at the top of the
          next cycle (the periodic-elision probe).

        ``tap``, when a list, logs every cache access the core makes —
        ``(False, addr)`` per data access, ``(True, pc)`` per
        instruction-line fetch — for the periodic-elision record.

        With a sink attached (tested once per residency), every cycle
        the generator runs is classified into the core's
        cycle-accounting span where ``tick`` does it, after fetch, by
        the interpreter's own ``_observe_cycle``.

        While resident, the core's deque/dict structures and the
        context's register lists stay shared in place (a mispredict
        flush mutates them in place too), and ``last_retire_cycle`` is
        written through (the periodic probe reads it), but the eleven
        hoisted scalars are stale on the core object — the walk must
        sync this generator before probing ``next_event_cycle``,
        eliding, or replaying a deferred invalidation.  The hot counters
        of ``_CNT_KEYS``, dispatch stalls included, accumulate in locals
        and are deferred into ``pend`` (one slot per key) at a sync or a
        publish, and flushed into the core's counters once per walk;
        every other counter is added to the core's counter dict as it
        moves.

        The caller guarantees: ctx is bound, core not halted, not
        elided, and not stalled (``stall_until``) on any cycle it sends.
        """
        core = self.core
        n_cycles = 0
        n_spl_stalls = 0
        n_fetched = 0
        n_dispatched = 0
        n_issued = 0
        n_retired = 0
        n_int = 0
        n_fp = 0
        n_loads = 0
        n_stores = 0
        n_br = 0
        n_rob_stalls = 0
        n_iq_stalls = 0
        n_lsq_stalls = 0
        n_ren_stalls = 0
        retire_width = core._retire_width
        ser_tab = self.ser_tab
        exec_serialize = core._exec_serialize
        spl_port = core.spl_port
        output_pending = None if spl_port is None \
            else spl_port.output_pending
        rob = core.rob
        ctx = core.ctx
        fetch_tab = self.fetch_tab
        disp_tab = self.disp_tab
        exec_meta = self.exec_meta
        st_tab = self.st_tab
        dest_tab = self.dest_tab
        br_tab = self.br_tab
        pool_tab = self.pool_tab

        ready = core.ready
        fetch_queue = core.fetch_queue
        completing = core.completing
        store_entries = core.store_entries
        blocked_loads = core.blocked_loads
        rat = core.rat
        pending_stores = core.pending_stores
        predictor = core.predictor
        predict_direction = predictor.predict_direction
        update_direction = predictor.update_direction
        btb_update = predictor.btb_update
        btb_lookup = predictor.btb_lookup
        ras_push = predictor.ras_push
        ras_pop = predictor.ras_pop
        data_access = core.mem_system.data_access
        inst_fetch = core.mem_system.inst_fetch
        if tap is not None:
            data_access, inst_fetch = _tapped(data_access, inst_fetch, tap)
        index = core.index
        cnt = core._cnt
        # The register file, read and written in place (``ctx.read`` /
        # ``ctx.write`` without the calls; a flat index at or above
        # ``fp_base`` names an FP register, and no dest is r0).
        int_regs = ctx.int_regs
        fp_regs = ctx.fp_regs
        fp_base = FP_BASE
        rp = core._retire_pcs

        seq = core.seq
        fetch_pc = core.fetch_pc
        fetch_resume = core.fetch_resume
        last_fetch_line = core.last_fetch_line
        sb_next_free = core.sb_next_free
        int_iq_used = core.int_iq_used
        fp_iq_used = core.fp_iq_used
        lq_used = core.lq_used
        sq_used = core.sq_used
        rename_int_used = core.rename_int_used
        rename_fp_used = core.rename_fp_used

        rob_entries = core._rob_entries
        fp_queue = core._fp_queue
        int_queue = core._int_queue
        load_queue = core._load_queue
        store_queue = core._store_queue
        decode_width = core._decode_width
        issue_width = core._issue_width
        fetch_width = core._fetch_width
        queue_cap = core._fetch_queue_cap
        l1i_hit = core._l1i_hit
        l1d_hit = core.config.l1d.hit_latency
        rename_limit_int = core._rename_limit_int
        rename_limit_fp = core._rename_limit_fp
        program_end = core._program_end
        frontend_delay = FRONTEND_DELAY
        h_int, h_fp = HOLD_INT_IQ, HOLD_FP_IQ
        h_lq, h_sq = HOLD_LQ, HOLD_SQ
        h_ri, h_rf = HOLD_REN_INT, HOLD_REN_FP
        observe = core._observe_cycle if core.obs.active else None

        core._bg_resident = True
        limit = 0  # 0: a one-cycle send; else the multi-cycle send's bound
        try:
            cycle = yield
            while True:
                # ------------------------------------------------- message
                if cycle.__class__ is tuple:
                    cycle, limit, watch = cycle
                    poke_stores = n_stores
                    serialized = False  # True ends the send
                elif cycle < 0:
                    if cycle == -1:
                        return
                    # Publish: the ``finally`` write-back below, minus
                    # ending the residency.
                    core.seq = seq
                    core.fetch_pc = fetch_pc
                    core.fetch_resume = fetch_resume
                    core.last_fetch_line = last_fetch_line
                    core.sb_next_free = sb_next_free
                    core.int_iq_used = int_iq_used
                    core.fp_iq_used = fp_iq_used
                    core.lq_used = lq_used
                    core.sq_used = sq_used
                    core.rename_int_used = rename_int_used
                    core.rename_fp_used = rename_fp_used
                    if n_spl_stalls:
                        cnt["spl_recv_stalls"] += n_spl_stalls
                        n_spl_stalls = 0
                    if n_cycles:
                        pend[0] += n_cycles
                        pend[1] += n_fetched
                        pend[2] += n_dispatched
                        pend[3] += n_issued
                        pend[4] += n_retired
                        pend[5] += n_int
                        pend[6] += n_fp
                        pend[7] += n_loads
                        pend[8] += n_stores
                        pend[9] += n_br
                        pend[10] += n_rob_stalls
                        pend[11] += n_iq_stalls
                        pend[12] += n_lsq_stalls
                        pend[13] += n_ren_stalls
                        n_cycles = n_fetched = n_dispatched = n_issued = 0
                        n_retired = n_int = n_fp = n_loads = n_stores = 0
                        n_br = n_rob_stalls = n_iq_stalls = n_lsq_stalls = 0
                        n_ren_stalls = 0
                    cycle = yield None
                    continue
                # -------------------------------------- the send's cycles
                while True:
                    if limit:
                        # Multi-cycle send: stop *before* the limit, the
                        # cycle after a retired store poked a watched
                        # sibling (only this core's stores can, so the
                        # pokes need checking only after one), and any
                        # cycle with a serialized op — SPL ones too —
                        # within retire reach: the walk steps those one
                        # cycle at a time.
                        if cycle >= limit:
                            break
                        if watch and n_stores != poke_stores:
                            poke_stores = n_stores
                            if any(other.ff_poke for other in watch):
                                break
                        if rob:
                            k = retire_width
                            for entry in rob:
                                if ser_tab[entry.pc]:
                                    serialized = True
                                    break
                                k -= 1
                                if not k:
                                    break
                            if serialized:
                                break
                    else:
                        parked = hint = spl_ran = halted = False
                        if rob:
                            head0 = rob[0]
                            ser = ser_tab[head0.pc]
                            if ser:
                                # Serialized op already at the head.  The
                                # *park* replays exactly the interpreter's
                                # failed retry: nothing retires and at
                                # most the spl_recv_stalls counter bumps,
                                # so the cycle runs compiled and yields a
                                # park hint the walk can turn into an
                                # elide probe.  Nothing before the retire
                                # stage can change the verdict: the SPL
                                # output queue is only filled by
                                # controller ticks (end of the walk
                                # cycle), the store buffer only by
                                # retirement, and an atomic parks only
                                # while it completes after this cycle.
                                # When not parked — an operand still in
                                # flight that this cycle's writeback
                                # could complete, say — the retire stage
                                # below executes the op via the
                                # interpreter's own ``_exec_serialize``.
                                if ser == _SER_AMO:
                                    if head0.state == 1 and \
                                            head0.completion > cycle:
                                        parked = True
                                elif _SER_RECV <= ser <= _SER_FENCE \
                                        and head0.state == 0 \
                                        and head0.remaining == 0:
                                    if ser != _SER_RECV:
                                        while pending_stores and \
                                                pending_stores[0] <= cycle:
                                            pending_stores.popleft()
                                    if ser == _SER_FENCE:
                                        if pending_stores:
                                            parked = True
                                    elif output_pending is not None:
                                        if ser == _SER_STORE and \
                                                len(pending_stores) >= \
                                                store_queue:
                                            parked = True
                                        elif not output_pending():
                                            parked = True
                                            n_spl_stalls += 1
                                if parked or ser >= _SER_FENCE:
                                    # A parked head, or a FENCE or an
                                    # atomic (the core usually waits on it
                                    # or right after it).  Hint the walk
                                    # only when the cycle is also *quiet*
                                    # (no frontend or issue progress):
                                    # during the post-arrival frontend
                                    # fill the probe would fail anyway
                                    # and its backoff would delay the
                                    # real elide by as much as it grew.
                                    hint = True
                                    q0 = n_fetched + n_dispatched + n_issued
                    n_cycles += 1

                    # ----------------------------------------------- writeback
                    if completing:
                        entries = completing.pop(cycle, None)
                        if entries:
                            entries.sort(key=_BY_SEQ)
                            for entry in entries:
                                if entry.flushed or entry.state == 2:
                                    continue
                                entry.state = 2
                                value = entry.value
                                for consumer, slot in entry.consumers:
                                    if consumer.flushed:
                                        continue
                                    consumer.srcs[slot] = value
                                    consumer.remaining -= 1
                                    if consumer.remaining == 0 and \
                                            consumer.state == 0 and \
                                            not ser_tab[consumer.pc]:
                                        heappush(ready,
                                                 (consumer.seq, consumer))
                                entry.consumers = []
                                branch = br_tab[entry.pc]
                                if branch is not None:
                                    mode, target = branch
                                    actual = entry.actual_next
                                    if mode == 1:
                                        update_direction(entry.pc,
                                                         actual == target)
                                    elif mode == 2:
                                        btb_update(entry.pc, actual)
                                    n_br += 1
                                    if actual != entry.pred_next:
                                        core.int_iq_used = int_iq_used
                                        core.fp_iq_used = fp_iq_used
                                        core.lq_used = lq_used
                                        core.sq_used = sq_used
                                        core.rename_int_used = rename_int_used
                                        core.rename_fp_used = rename_fp_used
                                        cnt["mispredicts"] += 1
                                        core._flush_from_seq(entry.seq + 1,
                                                             cycle, actual)
                                        int_iq_used = core.int_iq_used
                                        fp_iq_used = core.fp_iq_used
                                        lq_used = core.lq_used
                                        sq_used = core.sq_used
                                        rename_int_used = core.rename_int_used
                                        rename_fp_used = core.rename_fp_used
                                        fetch_pc = core.fetch_pc
                                        fetch_resume = core.fetch_resume
                                        last_fetch_line = core.last_fetch_line

                    # -------------------------------------------------- retire
                    if rob or pending_stores:
                        while pending_stores and pending_stores[0] <= cycle:
                            pending_stores.popleft()
                        retired = 0
                        last_next = 0
                        while rob and retired < retire_width:
                            head = rob[0]
                            if head.state != 2:
                                # (No serialized op is within reach in a
                                # multi-cycle send: it stops before one.)
                                if limit or head.state != 0 or parked \
                                        or head.remaining != 0:
                                    break
                                ser = ser_tab[head.pc]
                                if not ser:
                                    break
                                # A serialized op reached the head with
                                # operands ready (a parked head broke
                                # above): run the interpreter's own
                                # executor at its exact point in the
                                # cycle.  It reads and writes
                                # ``sb_next_free`` on the core, so sync
                                # the hoisted copy around the call.  An
                                # SPL op flags the cycle so the walk
                                # keeps the controllers ticking; an
                                # atomic starts here and completes
                                # through the writeback stage.
                                core.sb_next_free = sb_next_free
                                ok = exec_serialize(head, cycle)
                                sb_next_free = core.sb_next_free
                                if ser <= _SER_STORE:
                                    spl_ran = True
                                elif ser != _SER_HALT:
                                    # A FENCE or an atomic that reached
                                    # the head this cycle hints as if it
                                    # had been there at the top.
                                    hint = True
                                    q0 = n_fetched + n_dispatched + n_issued
                                else:
                                    # HALT retires just below and stops
                                    # the core, as ``_retire`` does.
                                    # Fetch stopped dead behind it, so it
                                    # is the ROB's last entry and the
                                    # loop ends with it.
                                    core.halted = True
                                    ctx.finished = True
                                    core.stop_fetch = True
                                    halted = True
                                if not ok or head.state != 2:
                                    break
                            pc = head.pc
                            write_fn = st_tab[pc]
                            if write_fn is not None:
                                if len(pending_stores) >= store_queue:
                                    cnt["store_buffer_stalls"] += 1
                                    break
                                addr = head.addr
                                write_fn(addr, head.store_value)
                                begin = sb_next_free
                                if begin < cycle:
                                    begin = cycle
                                done = data_access(index, addr, True, begin)
                                sb_next_free = done
                                pending_stores.append(done)
                                n_stores += 1
                            dest = dest_tab[pc]
                            if dest is not None:
                                if dest < fp_base:
                                    int_regs[dest] = head.value
                                else:
                                    fp_regs[dest - fp_base] = head.value
                                if rat.get(dest) is head:
                                    del rat[dest]
                            rob.popleft()
                            if write_fn is not None:
                                if head in store_entries:
                                    store_entries.remove(head)
                                if blocked_loads:
                                    for load in blocked_loads:
                                        if not load.flushed:
                                            heappush(ready, (load.seq, load))
                                    blocked_loads.clear()
                            held = head.held
                            if held:
                                if held & h_int:
                                    int_iq_used -= 1
                                elif held & h_fp:
                                    fp_iq_used -= 1
                                if held & h_lq:
                                    lq_used -= 1
                                if held & h_sq:
                                    sq_used -= 1
                                if held & h_ri:
                                    rename_int_used -= 1
                                elif held & h_rf:
                                    rename_fp_used -= 1
                                head.held = 0
                            if rp is not None:
                                rp[pc] = rp.get(pc, 0) + 1
                            last_next = head.actual_next
                            retired += 1
                        if retired:
                            ctx.pc = last_next
                            ctx.retired_instructions += retired
                            core.last_retire_cycle = cycle
                            n_retired += retired

                    # --------------------------------------------------- issue
                    if ready:
                        budget = issue_width
                        fu_used = [0, 0, 0, 0]
                        put_back = None
                        issued = 0
                        int_iq_freed = 0
                        fp_iq_freed = 0
                        while budget > 0 and ready:
                            entry = heappop(ready)[1]
                            if entry.flushed or entry.state != 0:
                                continue
                            pc = entry.pc
                            pool, pool_limit = pool_tab[pc]
                            if fu_used[pool] >= pool_limit:
                                if put_back is None:
                                    put_back = [entry]
                                else:
                                    put_back.append(entry)
                                continue
                            meta = exec_meta[pc]
                            kind = meta[0]
                            srcs = entry.srcs
                            if kind == 0:
                                entry.value = meta[1](srcs[0], srcs[1],
                                                      meta[3])
                                entry.state = 1
                                done = cycle + meta[2]
                                n_int += 1
                            elif kind == 4:
                                addr = srcs[0] + meta[3]
                                size = meta[2]
                                forward = None
                                blocked = False
                                for store in reversed(store_entries):
                                    if store.seq > entry.seq or store.flushed:
                                        continue
                                    store_addr = store.addr
                                    if store_addr is None:
                                        blocked = True
                                        break
                                    if store_addr == addr and \
                                            store.size == size:
                                        forward = store
                                        break
                                    if store_addr < addr + size and \
                                            addr < store_addr + store.size:
                                        blocked = True
                                        break
                                if blocked:
                                    blocked_loads.append(entry)
                                    continue
                                entry.addr = addr
                                entry.size = size
                                entry.state = 1
                                if forward is not None:
                                    conv = meta[4]
                                    raw = forward.store_value
                                    entry.value = raw if conv is None \
                                        else conv(raw)
                                    done = cycle + l1d_hit
                                    cnt["load_forwards"] += 1
                                else:
                                    entry.value = meta[1](addr)
                                    done = data_access(index, addr, False,
                                                       cycle)
                                n_loads += 1
                            elif kind == 2:
                                taken = meta[1]
                                if taken is not None:
                                    entry.actual_next = meta[3] \
                                        if taken(srcs[0], srcs[1]) \
                                        else meta[4]
                                else:
                                    target = meta[3]
                                    entry.actual_next = srcs[0] \
                                        if target is None else target
                                link = meta[2]
                                if link is not None:
                                    entry.value = link
                                entry.state = 1
                                done = cycle + 1
                            elif kind == 3:
                                entry.addr = srcs[0] + meta[3]
                                entry.size = meta[2]
                                entry.store_value = srcs[1]
                                entry.state = 1
                                done = cycle + 1
                                if blocked_loads:
                                    for load in blocked_loads:
                                        if not load.flushed:
                                            heappush(ready, (load.seq, load))
                                    blocked_loads.clear()
                            else:  # kind == 1: FP
                                entry.value = meta[1](srcs[0], srcs[1])
                                entry.state = 1
                                done = cycle + meta[2]
                                n_fp += 1
                            entry.completion = done
                            bucket = completing.get(done)
                            if bucket is None:
                                completing[done] = [entry]
                            else:
                                bucket.append(entry)
                            fu_used[pool] += 1
                            budget -= 1
                            held = entry.held
                            if held & h_int:
                                int_iq_freed += 1
                                entry.held = held & ~h_int
                            elif held & h_fp:
                                fp_iq_freed += 1
                                entry.held = held & ~h_fp
                            issued += 1
                        if issued:
                            n_issued += issued
                            int_iq_used -= int_iq_freed
                            fp_iq_used -= fp_iq_freed
                        if put_back is not None:
                            for entry in put_back:
                                heappush(ready, (entry.seq, entry))

                    # ------------------------------------------------ dispatch
                    if fetch_queue:
                        dispatched = 0
                        while fetch_queue and dispatched < decode_width:
                            inst, pc, pred_next, fetched_at = fetch_queue[0]
                            if cycle < fetched_at + frontend_delay:
                                break
                            if len(rob) >= rob_entries:
                                n_rob_stalls += 1
                                break
                            (needs_fp_iq, needs_int_iq, uses_lq, uses_sq, dest,
                             dest_fp, held, rs1, rs2) = disp_tab[pc]
                            if needs_fp_iq and fp_iq_used >= fp_queue:
                                n_iq_stalls += 1
                                break
                            if needs_int_iq and int_iq_used >= int_queue:
                                n_iq_stalls += 1
                                break
                            if uses_lq and lq_used >= load_queue:
                                n_lsq_stalls += 1
                                break
                            if uses_sq and sq_used >= store_queue:
                                n_lsq_stalls += 1
                                break
                            if dest is not None:
                                if dest_fp:
                                    if rename_fp_used >= rename_limit_fp:
                                        n_ren_stalls += 1
                                        break
                                elif rename_int_used >= rename_limit_int:
                                    n_ren_stalls += 1
                                    break
                            fetch_queue.popleft()
                            entry = RobEntry(seq, inst, pc, pred_next)
                            seq += 1
                            srcs = entry.srcs
                            if rs1 is not None:
                                producer = rat.get(rs1)
                                if producer is None:
                                    srcs[0] = int_regs[rs1] if rs1 < fp_base \
                                        else fp_regs[rs1 - fp_base]
                                elif producer.state == 2:
                                    srcs[0] = producer.value
                                else:
                                    producer.consumers.append((entry, 0))
                                    entry.remaining += 1
                                    srcs[0] = None
                            if rs2 is not None:
                                producer = rat.get(rs2)
                                if producer is None:
                                    srcs[1] = int_regs[rs2] if rs2 < fp_base \
                                        else fp_regs[rs2 - fp_base]
                                elif producer.state == 2:
                                    srcs[1] = producer.value
                                else:
                                    producer.consumers.append((entry, 1))
                                    entry.remaining += 1
                                    srcs[1] = None
                            entry.held = held
                            if needs_fp_iq:
                                fp_iq_used += 1
                            if needs_int_iq:
                                int_iq_used += 1
                            if uses_lq:
                                lq_used += 1
                            if uses_sq:
                                sq_used += 1
                                store_entries.append(entry)
                            if dest is not None:
                                if dest_fp:
                                    rename_fp_used += 1
                                else:
                                    rename_int_used += 1
                                rat[dest] = entry
                            rob.append(entry)
                            if entry.remaining == 0 and \
                                    (needs_fp_iq or needs_int_iq):
                                heappush(ready, (entry.seq, entry))
                            dispatched += 1
                        if dispatched:
                            n_dispatched += dispatched

                    # --------------------------------------------------- fetch
                    # stop_fetch is False while resident: the walk builds
                    # runners for fetching cores only, and the one op that
                    # sets it (HALT) ends the residency with this cycle,
                    # having stopped fetch (fetch_pc = -1) when fetched.
                    if cycle >= fetch_resume and fetch_pc >= 0:
                        fetched = 0
                        while fetched < fetch_width and \
                                len(fetch_queue) < queue_cap:
                            pc = fetch_pc
                            if pc < 0 or pc >= program_end:
                                break
                            line = pc >> 3
                            if line != last_fetch_line:
                                done = inst_fetch(index, pc, cycle)
                                last_fetch_line = line
                                if done > cycle + l1i_hit:
                                    fetch_resume = done
                                    cnt["icache_stall_cycles"] += \
                                        done - cycle
                                    break
                            fetch_meta = fetch_tab[pc]
                            kind = fetch_meta[1]
                            if kind == 0:
                                pred_next = pc + 1
                            elif kind == 1:
                                pred_next = fetch_meta[2] \
                                    if predict_direction(pc) else pc + 1
                            elif kind == 5:  # HALT: fetch stops dead
                                fetch_queue.append(
                                    (fetch_meta[0], pc, pc + 1, cycle))
                                fetched += 1
                                fetch_pc = -1
                                break
                            elif kind == 2:
                                pred_next = fetch_meta[2]
                            elif kind == 3:
                                ras_push(pc + 1)
                                pred_next = fetch_meta[2]
                            else:  # kind == 4: JR
                                target = ras_pop()
                                if target is None:
                                    target = btb_lookup(pc)
                                pred_next = -1 if target is None else target
                            fetch_queue.append(
                                (fetch_meta[0], pc, pred_next, cycle))
                            fetched += 1
                            fetch_pc = pred_next
                            if pred_next != pc + 1:
                                break
                        if fetched:
                            n_fetched += fetched

                    if observe is not None:
                        # The classifier reads ``fetch_resume`` off the
                        # core; every other input is shared or written
                        # through.
                        core.fetch_resume = fetch_resume
                        observe(cycle)
                    if not limit:
                        break
                    cycle += 1

                if limit:
                    limit = 0
                    cycle = yield cycle
                elif halted:
                    cycle = yield 5 if spl_ran else 4
                elif spl_ran:
                    # A serialized SPL op executed this cycle: it may
                    # have started a fabric job or freed queue space,
                    # so the walk must keep the controllers ticking.
                    cycle = yield 3
                elif hint and q0 == n_fetched + n_dispatched + n_issued:
                    cycle = yield 2
                else:
                    cycle = yield True
        finally:
            core._bg_resident = False
            if n_spl_stalls:
                cnt["spl_recv_stalls"] += n_spl_stalls
            if n_cycles:
                pend[0] += n_cycles
                pend[1] += n_fetched
                pend[2] += n_dispatched
                pend[3] += n_issued
                pend[4] += n_retired
                pend[5] += n_int
                pend[6] += n_fp
                pend[7] += n_loads
                pend[8] += n_stores
                pend[9] += n_br
                pend[10] += n_rob_stalls
                pend[11] += n_iq_stalls
                pend[12] += n_lsq_stalls
                pend[13] += n_ren_stalls
            core.seq = seq
            core.fetch_pc = fetch_pc
            core.fetch_resume = fetch_resume
            core.last_fetch_line = last_fetch_line
            core.sb_next_free = sb_next_free
            core.int_iq_used = int_iq_used
            core.fp_iq_used = fp_iq_used
            core.lq_used = lq_used
            core.sq_used = sq_used
            core.rename_int_used = rename_int_used
            core.rename_fp_used = rename_fp_used


def _tapped(data_access, inst_fetch, tap: list):
    """``data_access``/``inst_fetch`` wrappers that log into ``tap``."""
    def tapped_data(index, addr, is_write, cycle):
        tap.append((False, addr))
        return data_access(index, addr, is_write, cycle)

    def tapped_fetch(index, pc, cycle):
        tap.append((True, pc))
        return inst_fetch(index, pc, cycle)

    return tapped_data, tapped_fetch


#: Deferred counter layout shared by :meth:`BlockRunner.drive` (``pend``
#: slots) and the per-window flush in :class:`MultiBlockRunner`.
_CNT_KEYS = ("cycles", "fetched", "dispatched", "issued", "retired",
             "int_ops", "fp_ops", "loads", "stores", "branches_resolved",
             "rob_full_stalls", "iq_full_stalls", "lsq_full_stalls",
             "rename_stalls")

#: The wake cycle of an elided core that only an event poke can
#: resume (and the controllers' bound when none is scheduled).
_BG_NEVER = 1 << 62

#: In-window elide-probe backoff ceiling: probing a busy core's
#: quiescence every cycle costs more than the elision saves, and a long
#: backoff only delays *discovering* a quiesce window, never correctness.
_BG_PROBE_CAP = 256

#: Cycles between periodic-elision candidacy checks of a live compiled
#: core (:mod:`repro.cpu.periodic`): a core entering a barrier's sense
#: loop is seen within a few iterations.
_PE_RECHECK = 8


class MultiBlockRunner:
    """The walk: every running core per cycle, one Python loop.

    ``Machine.run``'s fast scheduler: the machine opens one per watchdog
    stride, whether one core is running or sixteen.  Exactness rests on
    three invariants, mirrored from the naive ``Machine.run`` loop:

    * **Core order.**  Cores advance in index order within each cycle —
      the interleaving that fixes shared-memory and snoop-invalidation
      semantics.  Compiled cores run as *resident*
      :meth:`BlockRunner.drive` generators (hoisted once per residency,
      not per cycle), so a sibling's store cannot snoop-flush them
      directly: ``_on_invalidation`` defers the line while a core is
      resident, and the walk replays it — after syncing the generator's
      state back — at the victim's next cycle slot.  The victim does
      not run between the snoop and its slot in either index order, so
      the deferred replay observes exactly the state the synchronous
      interpreter walk would have.
    * **Controller gating.**  The entry bound (min over controllers'
      ``next_event_cycle`` at ``start - 1``) proves skipped controller
      ticks are no-ops until that bound, so the walk skips them —
      *until* the bound arrives, a compiled cycle executes an SPL op,
      or a core tick interprets (either may act on an SPL/comm port).
      FENCE, the atomics and HALT touch no port and leave the gating
      alone.  From that cycle on, ``controllers_live`` sticks and every
      cycle ticks the controllers after the cores, in loop order, until
      a quiet cycle re-proves a bound.  A streaming controller (bound at
      or before ``start``) therefore runs live from the first cycle.
    * **Poke/elide contract.**  Quiescent cores are elided with the
      standard ``ff_elide`` plan and resumed at their cycle slot (poke
      consumed, skipped span bulk-credited); a delivery or invalidation
      poke lands before the affected cycle because pokes are only
      raised by controller ticks and sibling steps, both of which run
      inside the same per-cycle walk.  Compiled cores that spin are
      elided under periodic plans (:mod:`repro.cpu.periodic`) through
      the same contract.  When every running core is elided, no elided
      core is poked and the controllers are quiet, nothing runs before
      the earliest elided wake or controller bound, so the walk jumps
      there; a bounded jump raises the watchdog's progress floor
      (``Machine._ff_progress``).  The walk resumes every core still
      elided when it returns (``ff_resume``, as a wake at that cycle),
      so a pause, a snapshot, the naive loop and the watchdog never
      see an elided core.

    Every cycle of a core with a runner runs compiled, serialized ops
    included; only a draining core (no runner) and the multi-cycle
    send's poke fix-up tick interpret.  While exactly one core is live
    and the controllers are provably quiet, the walk gives that core's
    resident generator one *multi-cycle send* (see
    :meth:`BlockRunner.drive`) instead of one send per cycle — the
    single-core runs, barrier tails and producer/consumer phases — and
    keeps the residency when the send stops.

    Telemetry, one set for every walk: ``windows`` (walks opened) and
    ``fused_cycles`` (core-cycles run compiled).  The machine owns this
    object and passes itself to each walk, so no reference points back.
    """

    def __init__(self) -> None:
        self.windows = 0
        self.fused_cycles = 0

    def run_window(self, machine, start: int, end: int, cores,
                   runners) -> int:
        """Advance ``machine``'s ``cores`` (index order) through
        ``[start, end)``.

        ``runners[i]`` is the installed :class:`BlockRunner` for
        ``cores[i]`` or None (draining: interpret only).  The
        controllers' event bound at entry (min ``next_event_cycle``
        at ``start - 1``) is the first cycle a controller must tick;
        the walk goes controller-live at that cycle, so a streaming
        controller (bound at or before ``start``) runs live from the
        first cycle.  Returns the first cycle not run: ``end``, or
        earlier only when every core has halted; a core still elided
        then is resumed first, as a wake at that cycle would.  The
        caller guarantees: ``cores`` are every core with a bound
        context that has not halted (none elided), and ``end`` respects
        the watchdog/pause ceiling.  Every controller has
        ``next_event_cycle``.
        """
        controllers = machine._controllers
        n = len(cores)
        periodic = None
        spin_tabs = [None] * n
        if n > 1:
            # With one thread no other core can write a line a store-free
            # loop reads (the wake invariant, DESIGN.md section 10), so a
            # lone spinner never wakes: nothing to elide periodically.
            from repro.cpu import periodic
            spin_tabs = [periodic.spin_table(runner) if runner is not None
                         else None for runner in runners]
        pends = [[0] * len(_CNT_KEYS) for _ in range(n)]
        fused = 0
        probe_at = [start] * n
        probe_backoff = [1] * n
        park_on = [False] * n
        # Periodic elision: the running detection attempt per core, the
        # next cycle to probe (never, when the walk may not elide
        # periodically), and the failed-attempt backoff.
        attempts = [None] * n
        pe_at = [start if periodic is not None else _BG_NEVER] * n
        pe_backoff = [1] * n
        # states[i]: 0 = live, 1 = elided, 2 = halted; ``wake_at[i]`` is
        # an elided core's wake cycle.  The one copy of both: every core
        # arrives live, and none leaves elided.
        states = [0] * n
        wake_at = [0] * n
        # gens[i] is core i's resident ``drive`` generator, or None when
        # the core is draining / elided / synced.  A live entry
        # means the core's hoisted scalars live in the generator frame:
        # it must be synced (send(-1)) before anything outside the
        # generator reads or writes them — elide probes,
        # deferred-invalidation replay, and window exit.
        gens = [None] * n
        live = n
        # Controller gating: while live, controllers tick every cycle;
        # after a port-quiet cycle they may re-quiesce by proving a
        # bound (next_event_cycle) — ``controllers_resume`` is then the
        # cycle they must come back at, _BG_NEVER when only core
        # activity (an SPL op or an interpreted tick) can wake them.
        controllers_live = False
        controllers_resume = _BG_NEVER
        for controller in controllers:
            t = controller.next_event_cycle(start - 1)
            if t is not None and t < controllers_resume:
                controllers_resume = t
        ctl_probe_at = start
        ctl_backoff = 1
        enum_cores = list(enumerate(cores))
        cycle = start
        while cycle < end:
            if live == 0:
                # Every running core is elided or halted.  All halted:
                # stop here, as the naive loop does, whatever the
                # controllers are doing.  Otherwise, with the controllers
                # quiet and no elided core poked, nothing can run before
                # the earliest elided wake or the controllers' comeback
                # cycle: jump there.
                target = end if controllers_resume >= end \
                    else controllers_resume
                bounded = controllers_resume < _BG_NEVER
                elided = poked = False
                for i, core in enum_cores:
                    if states[i] == 1:
                        elided = True
                        if core.ff_poke:
                            poked = True
                        wake = wake_at[i]
                        if wake < _BG_NEVER:
                            bounded = True
                            if wake < target:
                                target = wake
                if not elided:
                    break
                if not controllers_live and not poked and target > cycle:
                    if bounded:
                        # Some tickable has an event scheduled: forward
                        # progress for the watchdog, even if no core
                        # retires for a long legal stall.
                        machine._ff_progress = target
                    cycle = target
                    continue
            if live == 1 and not controllers_live:
                # One live core, controllers provably quiet: give its
                # generator one multi-cycle send, bounded by the
                # controllers' comeback cycle and the earliest elided
                # wake, stopping the cycle after a store pokes an elided
                # sibling.
                target = -1
                watch = []
                limit = end if controllers_resume >= end \
                    else controllers_resume
                poked = False
                for i, core in enum_cores:
                    st = states[i]
                    if st == 2:
                        continue
                    if st:
                        if core.ff_poke:
                            # A lower-indexed sibling was poked late last
                            # cycle: the per-core walk must resume it on
                            # *this* cycle before anything else runs.
                            poked = True
                            break
                        watch.append(core)
                        wake = wake_at[i]
                        if wake < limit:
                            limit = wake
                    else:
                        target = i
                runner = runners[target] if target >= 0 else None
                if runner is not None:
                    # Periodic elision probes only on the per-core path:
                    # a core under a detection attempt, or a spin
                    # candidate whose probe is due, stays there.
                    if attempts[target] is not None:
                        runner = None
                    elif cycle >= pe_at[target]:
                        rob = cores[target].rob
                        if rob and spin_tabs[target][rob[0].pc]:
                            runner = None
                if not poked and runner is not None and cycle < limit \
                        and cycle >= cores[target].stall_until \
                        and not cores[target]._bg_pending_inval:
                    gen = gens[target]
                    if gen is None:
                        gen = runner.drive(pends[target])
                        gen.send(None)
                        gens[target] = gen
                    done = gen.send((cycle, limit, watch))
                    if done > cycle:
                        fused += done - cycle
                        # Poke fix-up: a store in the send's *last* cycle
                        # may have snoop-flushed elided siblings.  In
                        # core order, a sibling *after* the target ticks
                        # on that same cycle (its slot had not passed
                        # yet); one *before* it resumes next cycle
                        # through the per-core path.  The fix-up tick is
                        # interpreted and may touch an SPL/comm port, so
                        # controllers go live at that cycle.
                        fixup_ran = False
                        last = done - 1
                        for i, core in enum_cores:
                            if i <= target or states[i] != 1 \
                                    or not core.ff_poke:
                                continue
                            core.ff_resume(last - 1)
                            states[i] = 0
                            live += 1
                            probe_at[i] = done
                            probe_backoff[i] = 1
                            core.tick(last)
                            fixup_ran = True
                            if core.halted:
                                states[i] = 2
                                live -= 1
                        if fixup_ran:
                            controllers_live = True
                            for controller in controllers:
                                controller.tick(last)
                        cycle = done
                        continue
                # Stopped on its first cycle: run this cycle through the
                # per-core path.
            interp_ran = False
            ser_exec_ran = False
            for i, core in enum_cores:
                st = states[i]
                if st:
                    if st == 2:
                        continue
                    if cycle < wake_at[i] and not core.ff_poke:
                        continue
                    core.ff_resume(cycle - 1)
                    states[i] = 0
                    live += 1
                    probe_at[i] = cycle
                    probe_backoff[i] = 1
                    if periodic is not None:
                        pe_at[i] = cycle
                if core._bg_pending_inval:
                    # A sibling's store (or a controller write) snooped
                    # this core while its generator held the hoisted
                    # scalars: sync the residency and replay the
                    # deferred invalidations now, at this core's cycle
                    # slot — it has not run since the snoop, so the
                    # replay sees exactly the state the synchronous
                    # listener would have.
                    gen = gens[i]
                    if gen is not None:
                        gens[i] = None
                        try:
                            gen.send(-1)
                        except StopIteration:
                            pass
                    pending = core._bg_pending_inval
                    on_inv = core._on_invalidation
                    for line in pending:
                        on_inv(line)
                    del pending[:]
                if cycle < core.stall_until:
                    # tick() would return before counting; the elide
                    # probe below may still skip the stall window.  The
                    # stall's controller effects predate the window (or
                    # set controllers_live when its op ran).
                    pass
                else:
                    runner = runners[i]
                    if runner is None:
                        # Draining: interpret.
                        core.tick(cycle)
                        interp_ran = True
                        if core.halted:
                            states[i] = 2
                            live -= 1
                            continue
                    else:
                        gen = gens[i]
                        if gen is None:
                            gen = runner.drive(pends[i])
                            gen.send(None)
                            gens[i] = gen
                        stalled = False
                        if cycle >= pe_at[i]:
                            att = attempts[i]
                            rob = core.rob
                            if (att is None or att.gen is None) and (
                                    not rob or core.pending_stores
                                    or not spin_tabs[i][rob[0].pc]):
                                # Not a spin candidate: look again a few
                                # cycles on (the failure backoff stays).
                                attempts[i] = None
                                pe_at[i] = cycle + _PE_RECHECK
                            else:
                                verdict = periodic.probe(
                                    i, core, runner, cycle, gens, pends,
                                    attempts, pe_at, pe_backoff)
                                if verdict == periodic.ELIDED:
                                    states[i] = 1
                                    wake_at[i] = _BG_NEVER
                                    live -= 1
                                    continue
                                if verdict == periodic.STALLED:
                                    # Probe it for quiescence after this
                                    # cycle's step, like a parked core.
                                    stalled = True
                                    probe_at[i] = cycle
                                gen = gens[i]
                                if gen is None:
                                    # The probe retired an attempt's
                                    # tapped residency: step on a plain
                                    # one.
                                    gen = runner.drive(pends[i])
                                    gen.send(None)
                                    gens[i] = gen
                        res = gen.send(cycle)
                        fused += 1
                        if res is True:
                            park_on[i] = False
                            # A stalled spin candidate with work left to
                            # issue is not quiescent.
                            if not stalled or core.ready \
                                    or core.blocked_loads:
                                continue
                        elif res == 3:
                            # A serialized SPL op executed compiled:
                            # controllers must tick this cycle (fabric
                            # job started / queue space freed).
                            park_on[i] = False
                            ser_exec_ran = True
                            continue
                        elif res == 2:
                            # Park hint: the head waits on the fabric, on
                            # draining stores or on its own atomic, and
                            # the cycle ran compiled as a no-op retry.
                            # On the first parked cycle of an episode
                            # probe eagerly (the episode usually ends in
                            # a long idle wait); afterwards on the
                            # normal backoff.
                            if not park_on[i]:
                                park_on[i] = True
                                probe_at[i] = cycle
                                probe_backoff[i] = 1
                            if cycle < probe_at[i]:
                                continue
                        else:
                            # HALT retired (5: after an SPL op in the
                            # same cycle): end the residency.
                            if res == 5:
                                ser_exec_ran = True
                            gens[i] = None
                            try:
                                gen.send(-1)
                            except StopIteration:
                                pass
                            states[i] = 2
                            live -= 1
                            continue
                        # Publish the residency so the elide probe
                        # below reads authoritative scalars; it stays
                        # resident unless the probe elides.
                        gen.send(-2)
                if cycle >= probe_at[i]:
                    if core.ff_poke:
                        core.ff_poke = False
                    else:
                        t = core.next_event_cycle(cycle)
                        if t is None or t > cycle + 1:
                            gen = gens[i]
                            if gen is not None:
                                gens[i] = None
                                try:
                                    gen.send(-1)
                                except StopIteration:
                                    pass
                            core.ff_elide(cycle + 1)
                            states[i] = 1
                            wake_at[i] = _BG_NEVER if t is None else t
                            live -= 1
                            continue
                    backoff = probe_backoff[i]
                    if backoff < _BG_PROBE_CAP:
                        probe_backoff[i] = backoff * 2
                    probe_at[i] = cycle + backoff
            if interp_ran or ser_exec_ran or cycle >= controllers_resume:
                controllers_live = True
                ctl_probe_at = cycle
                ctl_backoff = 1
            if controllers_live:
                for controller in controllers:
                    controller.tick(cycle)
                if not interp_ran and not ser_exec_ran \
                        and cycle >= ctl_probe_at:
                    # Quiet cycle: try to prove the controllers dormant
                    # again so multi-cycle sends can re-arm and the
                    # remaining window skips their no-op ticks.
                    bound = _BG_NEVER
                    for controller in controllers:
                        t = controller.next_event_cycle(cycle)
                        if t is not None and t < bound:
                            bound = t
                    if bound > cycle + 1:
                        controllers_live = False
                        controllers_resume = bound
                    else:
                        if ctl_backoff < 64:
                            ctl_backoff *= 2
                        ctl_probe_at = cycle + ctl_backoff
            cycle += 1

        # Retire every residency (write the hoisted scalars back) and
        # resume every elided core as a wake at ``cycle`` would (it holds
        # no residency; a periodic plan replays its own deferred
        # snoops), then replay invalidations deferred during the final
        # cycle: the victim has not run since the snoop, so the replay
        # is the state the next walk, a pause or the naive loop must see
        # at ``cycle``.
        for i, core in enum_cores:
            gen = gens[i]
            if gen is not None:
                gens[i] = None
                try:
                    gen.send(-1)
                except StopIteration:
                    pass
            elif states[i] == 1:
                core.ff_resume(cycle - 1)
            pending = core._bg_pending_inval
            if pending:
                on_inv = core._on_invalidation
                for line in pending:
                    on_inv(line)
                del pending[:]

        for i, core in enum_cores:
            pend = pends[i]
            if pend[0]:
                cnt = core._cnt
                for j, key in enumerate(_CNT_KEYS):
                    value = pend[j]
                    if value:
                        cnt[key] += value
        self.windows += 1
        self.fused_cycles += fused
        return cycle
