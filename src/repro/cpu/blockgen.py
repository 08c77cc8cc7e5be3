"""Trace-cache block compilation of the OOO core hot loop (DESIGN.md §10).

The cycle-level interpreter in :mod:`repro.cpu.pipeline` pays per-cycle
Python dispatch for every stage of every instruction.  On compute-bound
runs (no SPL traffic, caches warm) almost all of that work is decided by
the static program text: which ALU expression runs, which registers
rename, which resources an instruction holds.  This module folds those
decisions out of the loop:

* The program is partitioned into **basic blocks** (leaders: entry 0,
  branch targets, and the successor of every branch or serialized op).
  On first fetch of a block's entry PC, one Python function per
  value-producing instruction is code-generated from the source templates
  in :mod:`repro.cpu.exec` (``ALU_EXPR``/``FP_EXPR``/``BRANCH_EXPR``)
  with immediates and branch targets folded in as literals.
* :meth:`BlockRunner.drive` is the one compiled core cycle: a
  specialized re-implementation of ``OutOfOrderCore.tick`` for the
  no-observer case, written as a generator so one core's hoisted
  scalars live in locals for a whole *residency*; per-PC metadata lives
  in dense tables, and hot counters accumulate locally and flush once
  per walk.  **Every architectural effect is cycle- and stats-exact
  against the interpreter** — tests/test_fastforward.py sweeps the two
  against each other, and ``repro bench --check`` gates on identical
  cycles.
* **The walk**: :class:`MultiBlockRunner` advances every running core
  — one or many — cycle by cycle in index order (the naive loop's
  order, which fixes the shared-memory / snoop-invalidation
  interleaving): each by one send to its resident generator (a
  sibling's snoop invalidation is *deferred* while the generator holds
  the core's scalars and replayed, bit-exact, at the victim's next
  cycle slot after a writeback sync) or by an interpreted
  ``core.tick``.  While exactly one core is live and the controllers
  are provably quiet, that core gets a *multi-cycle send* instead: the
  generator runs cycles up to a bound the walk sets and reports where
  it stopped, with a poke escape so snoop wakes of elided siblings
  still land on their exact cycle.
* **Deoptimization**: a *hard* serialized op (atomic, FENCE, HALT)
  within retire reach of the ROB head hands that one cycle of that
  one core to the interpreter; the walk continues.  SPL ops compile:
  a head ``spl_recv``/``spl_store`` that cannot proceed *parks* (the
  interpreter's failed retry, replayed compiled) and one that can runs
  the interpreter's own ``_exec_serialize`` in place.  Branch
  mispredicts, icache misses, and structural stalls are handled inline
  through the interpreter's own machinery (``_flush_from_seq``, stall
  counters), not by deopt — they are exactly replicable.
* **Controllers and elision**: controllers stay un-ticked (the §6
  event-horizon bound taken at window start) until an interpreted tick
  or a compiled SPL op may have touched a port; from then on they tick
  every cycle until a quiet cycle re-proves a bound.  Quiescent cores
  are handed to the fast-forward elision machinery *inside* the walk
  (``ff_elide``/``credit_fast_forward`` — the same plans the machine
  loop resumes).
* **Periodic elision** (:mod:`repro.cpu.periodic`): a compiled core
  spinning in a store-free loop (a software barrier's sense loop) is
  elided too, once its whole shift-normalized state repeats with a
  fixed period: the walk keeps one period's per-phase records and a
  snoop of a line the loop reads wakes the core into the exact state of
  the wake cycle's phase.

Compiled blocks are memoized on the ``Program`` object, keyed by
``BLOCKGEN_VERSION``, the core config, and a content fingerprint of the
instruction stream, so mutating a program or changing the config misses
the cache.  The whole mechanism is gated by ``RunOptions.blockgen`` /
``REPRO_NO_BLOCKGEN`` (see repro.common.config) and engaged by
``Machine.run`` under the same conditions as fast-forward elision.

Purity constraint: generated closures bind **no machine state** — only
the pure helpers in ``_NAMESPACE`` — because the compiled artifact is
shared across machines via the per-Program memo.  Anything touching
memory (load reads, store writes) lives in per-:class:`BlockRunner`
tables built in plain Python against the owning machine's memory.
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import attrgetter
from typing import Dict, List, Optional

from repro.common.errors import SimulationError
from repro.cpu.exec import (ALU_EXPR, BRANCH_EXPR, FP_EXPR, _div, _rem,
                            _wrap)
from repro.common.utils import to_unsigned
from repro.cpu.pipeline import (FRONTEND_DELAY, _LOAD_OPS, _STORE_OPS,
                                HOLD_FP_IQ, HOLD_INT_IQ, HOLD_LQ,
                                HOLD_REN_FP, HOLD_REN_INT, HOLD_SQ,
                                OutOfOrderCore, RobEntry)
from repro.isa.opcodes import FuClass, Op

#: Bump on any change to the generated code or table layout; part of the
#: per-Program memo key so stale caches from another version never hit.
BLOCKGEN_VERSION = 1

_BY_SEQ = attrgetter("seq")

#: Pure helper bindings available to generated block source.  Builtins
#: are withheld: the templates compile to closed expressions over these
#: names and the ``a``/``b`` source-value parameters only.
_NAMESPACE = {
    "_w": _wrap,
    "_u": to_unsigned,
    "_div": _div,
    "_rem": _rem,
    "_inf": float("inf"),
    "_ninf": float("-inf"),
    "_nan": float("nan"),
    "__builtins__": {},
}

_POOL_IDS = {"int": 0, "fp": 1, "branch": 2, "mem": 3}

#: Serialized ops the drive loop executes *compiled*, by
#: calling the interpreter's own ``_exec_serialize`` at the retire
#: stage's exact point in the cycle.  They only touch shared structures
#: (port/controller, memory, pending_stores, the ready heap via
#: ``_finish_serialize``) plus ``sb_next_free``, which the call site
#: syncs around the call.  Everything else serialized — HALT (retire-
#: side halt handling), FENCE (store-buffer purge per retry), atomics
#: (complete through the writeback queue) — deopts to the interpreter.
_EXEC_SER_OPS = frozenset((Op.SPL_LOAD, Op.SPL_LOADM, Op.SPL_LOADV,
                           Op.SPL_INIT, Op.SPL_RECV, Op.SPL_STORE))


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


class Block:
    """One basic block: a leader PC and the straight-line PCs behind it.

    ``fns`` is None until the block is first entered (the compile is the
    trace-cache "miss"); afterwards it maps each value-producing PC to
    its generated closure and ``source`` keeps the generated text for
    inspection (tests, the CI artifact).
    """

    __slots__ = ("bid", "entry", "pcs", "source", "fns", "hits")

    def __init__(self, bid: int, entry: int, pcs: range) -> None:
        self.bid = bid
        self.entry = entry
        self.pcs = pcs
        self.source: Optional[str] = None
        self.fns: Optional[Dict[int, object]] = None
        self.hits = 0


class BlockProgram:
    """The block partition of one program plus its compiled closures."""

    def __init__(self, instructions) -> None:
        self._instructions = instructions
        n = len(instructions)
        leaders = {0} if n else set()
        for pc, inst in enumerate(instructions):
            info = inst.info
            if info.is_branch or info.serialize:
                if pc + 1 < n:
                    leaders.add(pc + 1)
                # Only branch targets are PCs; e.g. SPL_LOADM reuses
                # ``target`` as a staging byte offset.
                if info.is_branch:
                    target = inst.target
                    if isinstance(target, int) and 0 <= target < n:
                        leaders.add(target)
        order = sorted(leaders)
        self.blocks: List[Block] = []
        self.block_of: List[Optional[Block]] = [None] * n
        for bid, start in enumerate(order):
            end = order[bid + 1] if bid + 1 < len(order) else n
            block = Block(bid, start, range(start, end))
            self.blocks.append(block)
            for pc in block.pcs:
                self.block_of[pc] = block
        self.compiles = 0

    # -- code generation ----------------------------------------------------

    def _expr_for(self, pc: int, inst) -> Optional[str]:
        """The generated expression over ``(a, b)`` for ``inst``, or None
        when the instruction has no pure evaluator (memory/serialized)."""
        info = inst.info
        op = inst.op
        if info.serialize or info.is_load or info.is_store:
            return None
        if info.is_branch:
            if op is Op.JR:
                return "a"
            if op is Op.J or op is Op.JAL:
                return repr(inst.target)
            cond = BRANCH_EXPR.get(op)
            if cond is None:
                return None
            return f"({inst.target}) if {cond} else ({pc + 1})"
        if info.fu is FuClass.FP:
            return FP_EXPR.get(op)
        template = ALU_EXPR.get(op)
        if template is None:
            return None
        return template.format(imm=f"({inst.imm})",
                               imm5=repr(inst.imm & 31),
                               imm_wrapped=f"({_wrap(inst.imm)})")

    def generate_source(self, block: Block) -> str:
        lines = [f"# block {block.bid} @ pc {block.entry} "
                 f"({len(block.pcs)} instructions)"]
        for pc in block.pcs:
            inst = self._instructions[pc]
            expr = self._expr_for(pc, inst)
            if expr is None:
                lines.append(f"# {pc}: {inst!r}  (interpreted)")
                continue
            lines.append(f"def _pc{pc}(a, b):  # {pc}: {inst!r}")
            lines.append(f"    return {expr}")
        lines.append("")
        return "\n".join(lines)

    def compile_block(self, block: Block,
                      code_memo: Optional[Dict[str, object]] = None) -> None:
        """Generate and install ``block``'s closures (idempotent).

        ``code_memo`` maps generated source to its code object.  A
        machine running several threads passes one memo to all its
        runners: the threads of a spec run programs that differ only in
        a few immediates, so most of their blocks generate identical
        source.  Code objects are
        immutable and each block still ``exec``s into a fresh namespace,
        so sharing them changes nothing but the ``compile()`` calls;
        ``compiles`` keeps counting this program's block installs.
        """
        if block.fns is not None:
            return
        source = self.generate_source(block)
        block.source = source
        code = None if code_memo is None else code_memo.get(source)
        if code is None:
            code = compile(source, f"<blockgen:block{block.bid}"
                                   f"@{block.entry}>", "exec")
            if code_memo is not None:
                code_memo[source] = code
        namespace = dict(_NAMESPACE)
        exec(code, namespace)
        block.fns = {pc: namespace[f"_pc{pc}"] for pc in block.pcs
                     if f"_pc{pc}" in namespace}
        self.compiles += 1

    # -- reporting ------------------------------------------------------------

    @property
    def entries(self) -> int:
        """Total block-entry fetches across all runners of this memo."""
        return sum(block.hits for block in self.blocks)

    def hit_rate(self) -> float:
        entries = self.entries
        if not entries:
            return 0.0
        return 1.0 - self.compiles / entries

    def source_dump(self) -> str:
        """Generated source of every block (compiling any not yet hot)."""
        for block in self.blocks:
            self.compile_block(block)
        return "\n".join(block.source for block in self.blocks)


def compiled_blocks(program, config) -> BlockProgram:
    """The memoized :class:`BlockProgram` for ``(program, config)``.

    The key carries the generator version, the core config, and a
    content fingerprint of the instruction stream, so a mutated program
    or a different configuration misses and recompiles.
    """
    cache = getattr(program, "_blockgen_cache", None)
    if cache is None:
        cache = program._blockgen_cache = {}
    key = (BLOCKGEN_VERSION, config, _fingerprint(program.instructions))
    block_program = cache.get(key)
    if block_program is None:
        block_program = cache[key] = BlockProgram(program.instructions)
    return block_program


def _fingerprint(instructions) -> tuple:
    return tuple((inst.op, inst.rd, inst.rs1, inst.rs2, inst.imm,
                  inst.target) for inst in instructions)


class BlockRunner:
    """Per-(machine core, context) specialized executor.

    Holds the dense per-PC tables (fetch, dispatch, execute, retire) and
    the machine-bound memory accessors that the memoized pure closures
    must not capture.  Rebuilt by the machine whenever the core's
    context changes.
    """

    def __init__(self, core: OutOfOrderCore,
                 code_memo: Optional[Dict[str, object]] = None) -> None:
        self.core = core
        self.ctx = core.ctx
        program = core.ctx.program
        self.bp = compiled_blocks(program, core.config)
        self.code_memo = code_memo
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
        block_of = self.bp.block_of
        # fetch_tab[pc] = (inst, fetch_kind, target, block-if-leader)
        self.fetch_tab = []
        # disp_tab[pc] = (needs_fp_iq, needs_int_iq, uses_lq, uses_sq,
        #                 dest, dest_fp, held_mask, rs1, rs2) with the
        # source registers normalized to None when absent or r0.
        self.disp_tab = []
        # exec_meta[pc]: None for serialized ops;
        #   [0, fn, latency]               int ALU (fn lazily installed)
        #   [1, fn, latency]               FP
        #   [2, fn, link_value]            branch (fn -> actual_next)
        #   (3, None, size, imm)           store
        #   (4, read_fn, size, imm, conv)  load
        # List rows are patched in place when their block compiles.
        self.exec_meta = []
        self.ser_tab = []      # info.serialize per pc
        self.park_tab = []     # 1=spl_recv, 2=spl_store: head park compiles
        self.hard_tab = []     # serialized op the compiled loop deopts for
        self.st_tab = []       # retire-time write closure, or None
        self.dest_tab = []     # inst._dest per pc
        self.br_tab = []       # (mode 1=cond/2=JR/0=direct, target) or None
        self.pool_tab = []     # (fu pool id, per-cycle unit limit)
        for pc in range(n):
            inst = instructions[pc]
            info = inst.info
            block = block_of[pc]
            self.fetch_tab.append(
                (inst, inst.fetch_kind, inst.target,
                 block if block is not None and block.entry == pc else None))
            rs1 = inst.rs1 if inst.rs1 else None
            rs2 = inst.rs2 if inst.rs2 else None
            self.disp_tab.append(
                (inst.needs_fp_iq, inst.needs_int_iq, inst.uses_lq,
                 inst.uses_sq, inst._dest, inst.dest_fp, inst.held_mask,
                 rs1, rs2))
            self.ser_tab.append(info.serialize)
            op = inst.op
            self.park_tab.append(
                1 if op is Op.SPL_RECV else (2 if op is Op.SPL_STORE else 0))
            self.hard_tab.append(
                info.serialize and op not in _EXEC_SER_OPS)
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
                meta = [2, None, link]
            elif info.fu is FuClass.FP:
                meta = [1, None, info.latency]
            else:
                meta = [0, None, info.latency]
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
            self.pool_tab.append((_POOL_IDS[pool_name], limit))
        self.installed = bytearray(len(self.bp.blocks))
        # Periodic elision (repro.cpu.periodic): its per-runner tables,
        # built when the runner first joins a walk that may elide, and
        # its telemetry — core-cycles elided, resumes, detection
        # attempts and failed attempts.
        self.spin = None
        self.pe_cycles = 0
        self.pe_wakes = 0
        self.pe_attempts = 0
        self.pe_failures = 0

    def _install(self, block: Block) -> None:
        """Compile ``block`` if needed and patch its closures into this
        runner's exec table (idempotent)."""
        self.bp.compile_block(block, self.code_memo)
        fns = block.fns
        exec_meta = self.exec_meta
        for pc in block.pcs:
            meta = exec_meta[pc]
            if meta is not None and meta.__class__ is list \
                    and meta[1] is None:
                fn = fns.get(pc)
                if fn is None:
                    raise SimulationError(
                        f"blockgen: no evaluator generated for pc {pc}")
                meta[1] = fn
        self.installed[block.bid] = 1

    # ---------------------------------------------------------------- drive

    def declines(self) -> bool:
        """True when :meth:`drive` would deopt on its first cycle: a
        *hard* serialized op (HALT / FENCE / atomic) within retire
        reach of the ROB head.  The walk checks this before
        building a generator, so sustained interpreted stretches never
        pay the hoist just to decline.  SPL ops do not decline — the
        drive loop parks or executes them compiled."""
        rob = self.core.rob
        if rob:
            hard_tab = self.hard_tab
            k = self.core._retire_width
            for entry in rob:
                if hard_tab[entry.pc]:
                    return True
                k -= 1
                if not k:
                    break
        return False

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
          True — or 2 when the cycle ran as a parked ``spl_recv`` /
          ``spl_store`` retry (head waiting on the output queue), a
          hint that the core may be quiescent and worth an elide
          probe, or 3 when an SPL op executed.  Cycles need not be
          consecutive (the walk skips a core's stall window), only
          monotone;
        * a *hard* serialized op (HALT / FENCE / atomic) entering
          retire reach *deopts* a one-cycle send: every hoisted scalar
          is written back and the generator returns, surfacing as
          StopIteration from the send — the caller interprets that
          cycle instead;
        * ``send((start, limit, watch))`` is a *multi-cycle send*: it
          runs cycles ``start, start + 1, ...`` and yields the first
          cycle it did not run, staying resident.  It stops before
          ``limit``, before any cycle with a serialized op of any kind
          within retire reach (so it never deopts, parks or executes
          an SPL op), and before the cycle after one of its stores
          poked a core in ``watch`` (``ff_poke``).  The walk sends one
          when this is its only live core, so controller ticks, elide
          probes and SPL cycles all stay on the one-cycle path;
        * ``send(-1)`` is the sync sentinel: write back and return;
        * ``send(-2)`` *publishes*: writes the hoisted scalars and the
          deferred counters back and yields None, staying resident, so
          the walk can read the core's exact state at the top of the
          next cycle (the periodic-elision probe).

        ``tap``, when a list, logs every cache access the core makes —
        ``(False, addr)`` per data access, ``(True, pc)`` per
        instruction-line fetch — for the periodic-elision record.

        While resident, the core's deque/dict structures stay shared in
        place (flush paths rebind them, and the body re-fetches before
        the next yield), and ``last_retire_cycle`` is written through
        (the periodic probe reads it), but the eleven hoisted scalars
        are stale on the core object — the walk must sync this
        generator before probing ``next_event_cycle``, eliding, or
        replaying a deferred invalidation.  Deferred hot counters
        accumulate into ``pend`` (one slot per ``_CNT_KEYS`` entry),
        flushed once per walk.

        The caller guarantees: ctx is bound, core not halted, not
        elided, and not stalled (``stall_until``) on any cycle it sends,
        observers off.
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
        retire_width = core._retire_width
        ser_tab = self.ser_tab
        park_tab = self.park_tab
        hard_tab = self.hard_tab
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
        installed = self.installed
        block_of = self.bp.block_of

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
        stats_bump = core.stats.bump
        ctx_read = ctx.read
        ctx_write = ctx.write
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
                        stats_bump("spl_recv_stalls", n_spl_stalls)
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
                        n_cycles = n_fetched = n_dispatched = n_issued = 0
                        n_retired = n_int = n_fp = n_loads = n_stores = 0
                        n_br = 0
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
                        parked = 0
                        ser_ran = False
                        if rob:
                            head0 = rob[0]
                            pc0 = head0.pc
                            if ser_tab[pc0] and not hard_tab[pc0]:
                                # SPL op already at the head.  The *park*
                                # — operands ready, output queue empty
                                # (or store queue full) — replays exactly
                                # as the interpreter's failed retry:
                                # nothing retires and at most the
                                # spl_recv_stalls counter bumps, so the
                                # cycle runs compiled and yields a park
                                # hint the walk can turn into an elide
                                # probe.  The queue is only filled by
                                # controller ticks (end of the walk
                                # cycle), so this pre-writeback check
                                # sees the state the retire stage would.
                                # When not parked — queue pending, or an
                                # operand still in flight that this
                                # cycle's writeback could complete — the
                                # retire stage below executes the op via
                                # the interpreter's own
                                # ``_exec_serialize``.
                                kind = park_tab[pc0]
                                if kind and head0.remaining == 0 \
                                        and head0.state == 0 \
                                        and output_pending is not None:
                                    if kind == 2:
                                        while pending_stores and \
                                                pending_stores[0] <= cycle:
                                            pending_stores.popleft()
                                        if len(pending_stores) >= \
                                                store_queue:
                                            parked = 1
                                        elif not output_pending():
                                            parked = 2
                                    elif not output_pending():
                                        parked = 2
                                if parked == 2:
                                    n_spl_stalls += 1
                                if parked:
                                    # Hint the walk only when this parked
                                    # cycle is also *quiet* (no frontend
                                    # or issue progress): during the
                                    # post-arrival frontend fill the probe
                                    # would fail anyway and its backoff
                                    # would delay the real elide by as
                                    # much as it grew.
                                    q0 = n_fetched + n_dispatched + n_issued
                            if not parked:
                                # A hard serialized op (HALT / FENCE /
                                # atomic) within retire reach deopts: the
                                # interpreter runs the whole cycle.  (A
                                # parked head retires nothing, so nothing
                                # deeper can reach it.)
                                k = retire_width
                                for entry in rob:
                                    if hard_tab[entry.pc]:
                                        return
                                    k -= 1
                                    if not k:
                                        break
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
                                        stats_bump("mispredicts")
                                        core._flush_from_seq(entry.seq + 1,
                                                             cycle, actual)
                                        rob = core.rob
                                        rat = core.rat
                                        store_entries = core.store_entries
                                        blocked_loads = core.blocked_loads
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
                                        or head.remaining != 0 \
                                        or not ser_tab[head.pc]:
                                    break
                                # An SPL op reached the head with operands
                                # ready (hard ops deopted at the cycle top,
                                # a parked head broke above): run the
                                # interpreter's own executor at its exact
                                # point in the cycle.  It reads and writes
                                # ``sb_next_free`` on the core, so sync the
                                # hoisted copy around the call, and flag
                                # the cycle so the walk keeps the
                                # controllers ticking.
                                core.sb_next_free = sb_next_free
                                ok = exec_serialize(head, cycle)
                                sb_next_free = core.sb_next_free
                                ser_ran = True
                                if not ok or head.state != 2:
                                    break
                            pc = head.pc
                            write_fn = st_tab[pc]
                            if write_fn is not None:
                                if len(pending_stores) >= store_queue:
                                    stats_bump("store_buffer_stalls")
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
                                ctx_write(dest, head.value)
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
                                fn = meta[1]
                                if fn is None:
                                    self._install(block_of[pc])
                                    fn = meta[1]
                                entry.value = fn(srcs[0], srcs[1])
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
                                    stats_bump("load_forwards")
                                else:
                                    entry.value = meta[1](addr)
                                    done = data_access(index, addr, False,
                                                       cycle)
                                n_loads += 1
                            elif kind == 2:
                                fn = meta[1]
                                if fn is None:
                                    self._install(block_of[pc])
                                    fn = meta[1]
                                entry.actual_next = fn(srcs[0], srcs[1])
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
                                fn = meta[1]
                                if fn is None:
                                    self._install(block_of[pc])
                                    fn = meta[1]
                                entry.value = fn(srcs[0], srcs[1])
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
                                stats_bump("rob_full_stalls")
                                break
                            (needs_fp_iq, needs_int_iq, uses_lq, uses_sq, dest,
                             dest_fp, held, rs1, rs2) = disp_tab[pc]
                            if needs_fp_iq and fp_iq_used >= fp_queue:
                                stats_bump("iq_full_stalls")
                                break
                            if needs_int_iq and int_iq_used >= int_queue:
                                stats_bump("iq_full_stalls")
                                break
                            if uses_lq and lq_used >= load_queue:
                                stats_bump("lsq_full_stalls")
                                break
                            if uses_sq and sq_used >= store_queue:
                                stats_bump("lsq_full_stalls")
                                break
                            if dest is not None:
                                if dest_fp:
                                    if rename_fp_used >= rename_limit_fp:
                                        stats_bump("rename_stalls")
                                        break
                                elif rename_int_used >= rename_limit_int:
                                    stats_bump("rename_stalls")
                                    break
                            fetch_queue.popleft()
                            entry = RobEntry(seq, inst, pc, pred_next)
                            seq += 1
                            srcs = entry.srcs
                            if rs1 is not None:
                                producer = rat.get(rs1)
                                if producer is None:
                                    srcs[0] = ctx_read(rs1)
                                elif producer.state == 2:
                                    srcs[0] = producer.value
                                else:
                                    producer.consumers.append((entry, 0))
                                    entry.remaining += 1
                                    srcs[0] = None
                            if rs2 is not None:
                                producer = rat.get(rs2)
                                if producer is None:
                                    srcs[1] = ctx_read(rs2)
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
                    # stop_fetch is constant False while resident: the
                    # walk builds runners for fetching cores only, and
                    # the one op that sets it (HALT) deopts first.
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
                                    stats_bump("icache_stall_cycles",
                                               done - cycle)
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
                            block = fetch_meta[3]
                            if block is not None:
                                block.hits += 1
                                if not installed[block.bid]:
                                    self._install(block)
                            fetch_queue.append(
                                (fetch_meta[0], pc, pred_next, cycle))
                            fetched += 1
                            fetch_pc = pred_next
                            if pred_next != pc + 1:
                                break
                        if fetched:
                            n_fetched += fetched

                    if not limit:
                        break
                    cycle += 1

                if limit:
                    limit = 0
                    cycle = yield cycle
                elif ser_ran:
                    # A serialized SPL op executed this cycle: it may
                    # have started a fabric job or freed queue space,
                    # so the walk must keep the controllers ticking.
                    cycle = yield 3
                elif parked and q0 == n_fetched + n_dispatched + n_issued:
                    cycle = yield 2
                else:
                    cycle = yield True
        finally:
            core._bg_resident = False
            if n_spl_stalls:
                stats_bump("spl_recv_stalls", n_spl_stalls)
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
             "int_ops", "fp_ops", "loads", "stores", "branches_resolved")

#: Mirrors ``repro.system.machine._FF_NEVER``: the ``ff_wake`` sentinel
#: for an elided core that only an event poke can resume.
_BG_NEVER = 1 << 62

#: In-window elide-probe backoff ceiling, mirroring the machine's
#: ``_FF_BACKOFF_CAP`` rationale: probing a busy core's quiescence every
#: cycle costs more than the elision saves.
_BG_PROBE_CAP = 256

#: Cycles between periodic-elision candidacy checks of a live compiled
#: core (:mod:`repro.cpu.periodic`): a core entering a barrier's sense
#: loop is seen within a few iterations.
_PE_RECHECK = 8


class MultiBlockRunner:
    """The fused walk: every running core per cycle, one Python loop.

    The machine opens one whenever blockgen is engaged, whether one core
    is running or sixteen.  Exactness rests on three invariants,
    mirrored from the naive ``Machine.run`` loop:

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
    * **Controller gating.**  The engagement bound (min over
      controllers' ``next_event_cycle`` at window start) proves skipped
      controller ticks are no-ops until that bound, so the walk skips
      them — *until* the bound arrives or a core tick interprets (it
      may execute a serialized op against an SPL/comm port).  From that
      cycle on, ``controllers_live`` sticks and every remaining window
      cycle ticks the controllers after the cores, in loop order, until
      a quiet cycle re-proves a bound.  A streaming controller (bound
      at or before window start) therefore runs live from the first
      cycle instead of blocking engagement.
    * **Poke/elide contract.**  Quiescent cores are elided with the
      standard ``ff_elide`` plan and resumed exactly like the machine
      loop (poke consumed, skipped span bulk-credited); a delivery or
      invalidation poke lands before the affected cycle because pokes
      are only raised by controller ticks and sibling steps, both of
      which run inside the same per-cycle walk.  Compiled cores that
      spin are elided under periodic plans (:mod:`repro.cpu.periodic`)
      through the same contract.

    Per-core deopt: a core whose ROB head nears a hard serialized op
    falls back to ``core.tick`` for that cycle only; the window
    continues for the rest.  While exactly one core is live and the
    controllers are provably quiet, the walk gives that core's resident
    generator one *multi-cycle send* (see :meth:`BlockRunner.drive`)
    instead of one send per cycle — the single-core runs, barrier tails
    and producer/consumer phases — and keeps the residency when the
    send stops.

    Telemetry, one set for every walk: ``windows`` (walks opened),
    ``fused_cycles`` (core-cycles run compiled) and ``deopts`` (compiled
    stretches a hard serialized op ended).
    """

    def __init__(self, machine) -> None:
        self.machine = machine
        self.windows = 0
        self.fused_cycles = 0
        self.deopts = 0

    def run_window(self, start: int, end: int, cores, runners,
                   allow_elide: bool, ctl_resume: int = _BG_NEVER):
        """Advance ``cores`` (index order) through ``[start, end)``.

        ``runners[i]`` is the installed :class:`BlockRunner` for
        ``cores[i]`` or None (backed off / draining: interpret only).
        ``allow_elide`` gates in-window ``ff_elide`` plans (False when
        the run disabled fast-forward: then quiescent cores tick
        naively, still exact).  ``ctl_resume`` is the controllers'
        event bound at engagement (min ``next_event_cycle`` observed at
        ``start - 1``): the first cycle a controller must tick.  The
        walk goes controller-live at that cycle — a streaming
        controller (``ctl_resume <= start``) keeps the window open with
        controllers ticking every cycle, rather than declining
        engagement.  Returns ``(done, stepped, attempted, elided)`` —
        the first un-executed cycle plus per-core compiled-cycle and
        engagement telemetry for the machine's per-core backoff.  The
        caller guarantees: every core has a bound context, at least one
        is neither halted nor elided, no elided core has a pending poke,
        observers off, and ``end`` respects the watchdog/pause ceiling.
        """
        controllers = self.machine._controllers
        n = len(cores)
        periodic = None
        spin_tabs = [None] * n
        if allow_elide and n > 1:
            # With one thread no other core can write a line a store-free
            # loop reads (the wake invariant, DESIGN.md section 10), so a
            # lone spinner never wakes: nothing to elide periodically.
            from repro.cpu import periodic
            spin_tabs = [periodic.spin_table(runner) if runner is not None
                         else None for runner in runners]
        pends = [[0] * 10 for _ in range(n)]
        stepped = [0] * n
        attempted = [False] * n
        was_compiled = [False] * n
        deopts = [0] * n
        probe_at = [start] * n
        probe_backoff = [1] * n
        park_on = [False] * n
        # Periodic elision: the running detection attempt per core, the
        # next cycle to probe (never, when the run may not elide), and
        # the failed-attempt backoff.
        attempts = [None] * n
        pe_at = [start if periodic is not None else _BG_NEVER] * n
        pe_backoff = [1] * n
        # states[i]: 0 = live, 1 = elided, 2 = halted.  Mirrors
        # ``core.halted`` and the in-window elide plan so the per-cycle
        # scan reads one list slot instead of three core attributes;
        # ``wake_at[i]`` mirrors ``core.ff_wake`` while elided.
        states = [0] * n
        wake_at = [0] * n
        # gens[i] is core i's resident ``drive`` generator, or None when
        # the core is interpreting / elided / declined.  A live entry
        # means the core's hoisted scalars live in the generator frame:
        # it must be synced (send(-1)) before anything outside the
        # generator reads or writes them — elide probes,
        # deferred-invalidation replay, and window exit.
        gens = [None] * n
        live = 0
        for i, core in enumerate(cores):
            core._obs_pipe = False
            if core.ff_skip_from >= 0:
                states[i] = 1
                wake_at[i] = core.ff_wake
            elif core.halted:
                states[i] = 2
            else:
                live += 1
        # Controller gating: while live, controllers tick every cycle;
        # after an interp-free cycle they may re-quiesce by proving a
        # bound (next_event_cycle, the same contract the machine's
        # engagement predicate uses) — ``controllers_resume`` is then the
        # cycle they must come back at, _BG_NEVER when only core
        # activity (an interpreted tick) can wake them.
        controllers_live = False
        controllers_resume = ctl_resume
        ctl_probe_at = start
        ctl_backoff = 1
        enum_cores = list(enumerate(cores))
        cycle = start
        while cycle < end:
            if live == 0:
                # Everyone is waiting on an external event: hand back to
                # the machine loop, whose fast-forward probe can *jump*
                # (and bound the watchdog floor) instead of iterating.
                break
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
                    if gen is None and not runner.declines():
                        gen = runner.drive(pends[target])
                        gen.send(None)
                        gens[target] = gen
                    if gen is not None:
                        attempted[target] = True
                        done = gen.send((cycle, limit, watch))
                        if done > cycle:
                            stepped[target] += done - cycle
                            was_compiled[target] = True
                            # Poke fix-up: a store in the send's *last*
                            # cycle may have snoop-flushed elided
                            # siblings.  In core order, a sibling
                            # *after* the target ticks on that same
                            # cycle (its slot had not passed yet); one
                            # *before* it resumes next cycle through the
                            # per-core path.  The fix-up tick is
                            # interpreted and may touch an SPL/comm port,
                            # so controllers go live at that cycle.
                            fixup_ran = False
                            last = done - 1
                            for i, core in enum_cores:
                                if i <= target or states[i] != 1 \
                                        or not core.ff_poke:
                                    continue
                                core.ff_poke = False
                                core.credit_fast_forward(
                                    core.ff_skip_from, last - 1)
                                core.ff_skip_from = -1
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
                # Declined, or stopped on its first cycle: run this cycle
                # through the per-core path.
            interp_ran = False
            ser_exec_ran = False
            for i, core in enum_cores:
                st = states[i]
                if st:
                    if st == 2:
                        continue
                    if cycle < wake_at[i] and not core.ff_poke:
                        continue
                    core.ff_poke = False
                    core.credit_fast_forward(core.ff_skip_from, cycle - 1)
                    core.ff_skip_from = -1
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
                    idx = core.index
                    for line in pending:
                        on_inv(idx, line)
                    del pending[:]
                deopted_now = False
                if cycle < core.stall_until:
                    # tick() would return before counting; the elide
                    # probe below may still skip the stall window.  The
                    # stall's controller effects predate the window (or
                    # set controllers_live when its op interpreted).
                    pass
                else:
                    runner = runners[i]
                    stepped_now = False
                    if runner is not None:
                        attempted[i] = True
                        gen = gens[i]
                        if gen is None and not runner.declines():
                            gen = runner.drive(pends[i])
                            gen.send(None)
                            gens[i] = gen
                        stalled = False
                        if gen is not None and cycle >= pe_at[i]:
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
                        if gen is not None:
                            res = None
                            try:
                                res = gen.send(cycle)
                            except StopIteration:
                                gens[i] = None
                            if res is not None:
                                stepped[i] += 1
                                was_compiled[i] = True
                                if res is True:
                                    park_on[i] = False
                                    # A stalled spin candidate with work
                                    # left to issue is not quiescent.
                                    if not stalled or core.ready \
                                            or core.blocked_loads:
                                        continue
                                elif res == 3:
                                    # A serialized SPL op executed
                                    # compiled: controllers must tick
                                    # this cycle (fabric job started /
                                    # queue space freed), exactly as
                                    # if the core had interpreted.
                                    park_on[i] = False
                                    ser_exec_ran = True
                                    continue
                                else:
                                    # Park hint: the head is an spl_recv
                                    # / spl_store waiting on the fabric,
                                    # and the cycle ran compiled as a
                                    # no-op retry.  On the first parked
                                    # cycle of an episode probe eagerly
                                    # (the episode usually ends in a
                                    # long idle wait); afterwards on the
                                    # normal backoff.
                                    if not park_on[i]:
                                        park_on[i] = True
                                        probe_at[i] = cycle
                                        probe_backoff[i] = 1
                                    if not allow_elide \
                                            or cycle < probe_at[i]:
                                        continue
                                # Sync the residency so the elide probe
                                # below reads authoritative scalars; a
                                # failed probe re-hoists next cycle
                                # (declines() accepts a parked head).
                                gens[i] = None
                                try:
                                    gen.send(-1)
                                except StopIteration:
                                    pass
                                stepped_now = True
                        if not stepped_now:
                            park_on[i] = False
                            deopted_now = True
                            if was_compiled[i]:
                                was_compiled[i] = False
                                deopts[i] += 1
                                # A fresh deopt usually means the core
                                # just parked on a serialized op
                                # (barrier / SPL recv): probe for
                                # elision right after this tick instead
                                # of waiting out the backoff.
                                probe_at[i] = cycle
                                probe_backoff[i] = 1
                    if not stepped_now:
                        core.tick(cycle)
                        interp_ran = True
                        if core.halted:
                            states[i] = 2
                            live -= 1
                            continue
                if allow_elide and cycle >= probe_at[i]:
                    if core.ff_poke:
                        core.ff_poke = False
                    else:
                        t = core.next_event_cycle(cycle)
                        if t is None:
                            core.ff_elide(cycle + 1, _BG_NEVER)
                            states[i] = 1
                            wake_at[i] = _BG_NEVER
                            live -= 1
                            continue
                        if t > cycle + 1:
                            core.ff_elide(cycle + 1, t)
                            states[i] = 1
                            wake_at[i] = t
                            live -= 1
                            continue
                    if deopted_now:
                        # Deopted cores are interpreting anyway (a
                        # serialized op is draining toward the ROB head);
                        # the moment that settles, next_event_cycle goes
                        # unbounded — keep probing every cycle so the
                        # park is elided as soon as it begins.
                        probe_at[i] = cycle + 1
                    else:
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

        # Retire every residency: write the hoisted scalars back, then
        # replay invalidations deferred during the final cycle (the
        # victim has not run since the snoop, so the replay is the state
        # the machine loop must see when it resumes at ``cycle``).
        for i, core in enum_cores:
            gen = gens[i]
            if gen is not None:
                gens[i] = None
                try:
                    gen.send(-1)
                except StopIteration:
                    pass
            pending = core._bg_pending_inval
            if pending:
                on_inv = core._on_invalidation
                idx = core.index
                for line in pending:
                    on_inv(idx, line)
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
        self.fused_cycles += sum(stepped)
        self.deopts += sum(deopts)
        return cycle, stepped, attempted, [st == 1 for st in states]
