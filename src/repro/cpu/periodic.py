"""Periodic elision of spinning cores in the multi-core walk.

DESIGN.md section 10 has the contract.  A compiled core spinning in a
store-free loop — a software barrier's ``li; lw; bne`` sense loop, a
software queue's poll — is exactly periodic once its pipeline has
filled: its state at cycles ``t`` and ``t + P`` differs only by a shift
of cycle stamps and seqs, and its counters grow by a fixed delta per
period.  :func:`probe`, called by
:meth:`repro.cpu.blockgen.MultiBlockRunner.run_window`, detects such a
core (:class:`_SpinAttempt`), records one period phase by phase, and
elides the core under a :class:`PeriodicPlan`, which
``OutOfOrderCore.ff_resume`` hands every resume to.  Under a
sink the record also keeps each phase's cycle-accounting class, and a
resume credits the elided cycles' spans with them.

The walk imports this module only when it may elide (fast-forward on)
and runs more than one core, so single-thread runs never load it.
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter
from typing import Dict, Optional

from repro.cpu.blockgen import (_BG_PROBE_CAP, _BY_SEQ, _CNT_KEYS,
                                _PE_RECHECK as _RECHECK)
from repro.cpu.pipeline import RobEntry
from repro.isa.opcodes import Op
from repro.mem.hierarchy import INST_SPACE

#: Longest loop period the probe looks for, and the cycles one detection
#: attempt may spend before giving up.
_MAX_PERIOD = 16
_BUDGET = 192
#: The retire gap past which a candidate is probed for quiescence
#: instead.
_STALL = 4
#: Register writes an attempt tolerates.  A spinning core reloads the
#: same values every iteration, so its registers settle after the first
#: one; a store-free compute loop (a scan, a reduction) keeps changing
#: them.  A candidate must also retire without changing a register over
#: one ``_RECHECK`` screen before an attempt starts.
_REG_CHANGES = 4

_ENTRY_FIELDS = attrgetter("pc", "pred_next", "state", "value", "remaining",
                           "addr", "size", "actual_next", "held")
_SRCS = attrgetter("srcs")
_CONSUMERS = attrgetter("consumers")
_COMPLETION = attrgetter("completion")

#: Port counters a periodic loop moves (read hits), and those that must
#: not move over the record period: a miss brings in the bus, the L2 and
#: the other sharers, none of which repeat with the loop.
_PORT_CREDIT = ("l1d_hits", "l1i_hits")
_PORT_FROZEN = ("l1d_misses", "l1d_upgrades", "l2_hits", "l2_misses",
                "l1i_misses", "l2_writebacks")


def _spin_key(core, now: int) -> tuple:
    """Cheap shift-invariant summary of ``core`` at the top of ``now``:
    equal whenever the full records are equal modulo the shift (for a
    core that retires every period, as attempts require), so a repeat
    proposes a period for the full check."""
    rob = core.rob
    head = rob[0]
    return (len(rob), head.pc, head.state, rob[-1].pc, core.seq - head.seq,
            len(core.fetch_queue), len(core.ready), core.fetch_pc,
            now - core.last_retire_cycle, core.predictor.history,
            core.int_iq_used, core.rename_int_used)


def _spin_record(core, now: int):
    """Shift-normalized state of ``core`` at the top of cycle ``now``.

    Returns ``(fingerprint, stamps, completions, seq, now)``, or None
    when a queue still holds an entry outside the ROB (a flushed or stale
    one), which a record of the ROB alone could not rebuild.  The
    fingerprint holds every ROB entry (seqs, fields, sources, consumer
    edges), the ready heap, the completion buckets, the rename table,
    the fetch queue, the occupancy scalars, the predictor history and
    RAS and the architectural registers, with seqs relative to
    ``core.seq`` and queue stamps relative to ``now``.  ``stamps`` are
    the three scalar cycle stamps, which either move with the period or
    rest at a past value (``fetch_resume``, ``last_retire_cycle``,
    ``sb_next_free``); ``completions`` are the write-only
    ``RobEntry.completion`` values, kept for the rebuild but left out of
    the comparison.
    """
    base = core.seq
    # The queues first: a flushed load can sit in a completion bucket
    # for a whole miss, and the probe keeps asking meanwhile.
    comp = []
    for at, bucket in core.completing.items():
        rels = []
        for e in bucket:
            if e.flushed or e.state != 1:
                return None
            rels.append(e.seq - base)
        rels.sort()
        comp.append((at - now, tuple(rels)))
    comp.sort()
    ready = []
    for seq, e in core.ready:
        if e.flushed or e.state:
            return None
        ready.append(seq - base)
    ready.sort()
    rob = core.rob
    seqs = tuple([seq - base for seq in map(_BY_SEQ, rob)])
    cons = []
    for index, consumers in enumerate(map(_CONSUMERS, rob)):
        if consumers:
            for consumer, _slot in consumers:
                if consumer.flushed:
                    return None
            cons.append((index, tuple([(c.seq - base, slot)
                                       for c, slot in consumers])))
    rat = sorted([(reg, e.seq - base) for reg, e in core.rat.items()])
    predictor = core.predictor
    ctx = core.ctx
    fingerprint = (
        seqs, tuple(map(_ENTRY_FIELDS, rob)),
        tuple(map(tuple, map(_SRCS, rob))), tuple(cons),
        tuple(ready), tuple(comp), tuple(rat),
        tuple([(pc, pred_next, fetched - now)
               for _inst, pc, pred_next, fetched in core.fetch_queue]),
        (core.fetch_pc, core.last_fetch_line, core.int_iq_used,
         core.fp_iq_used, core.lq_used, core.sq_used, core.rename_int_used,
         core.rename_fp_used),
        (predictor.history, tuple(predictor.ras)),
        (ctx.pc, tuple(ctx.int_regs), tuple(ctx.fp_regs)))
    stamps = (core.fetch_resume, core.last_retire_cycle, core.sb_next_free)
    return fingerprint, stamps, tuple(map(_COMPLETION, rob)), base, now


def _spin_shift(old, new, period: int):
    """Per-stamp move flags when record ``new`` is record ``old`` one
    ``period`` later (equal fingerprints; each stamp moved by exactly
    the period, or rests at a value already past at ``old``), else None.
    """
    if old[0] != new[0]:
        return None
    at = old[4]
    flags = []
    for before, after in zip(old[1], new[1]):
        if after == before + period:
            flags.append(True)
        elif after == before and before <= at:
            flags.append(False)
        else:
            return None
    return tuple(flags)


def _spin_rebuild(core, record, now: int, seq_shift: int, cycle_shift: int,
                  moving) -> None:
    """Rebuild ``core``'s pipeline at the top of ``now`` from ``record``
    moved by ``seq_shift`` seqs and ``cycle_shift`` cycles."""
    fingerprint, stamps, completions, base, _at = record
    (seqs, fields, srcs, cons, ready, comp, rat, fq, scalars, pred,
     arch) = fingerprint
    base += seq_shift
    insts = core._instructions
    new = RobEntry.__new__
    rob = []
    for rel, (pc, pred_next, state, value, remaining, addr, size,
              actual_next, held), (src0, src1), completion in zip(
                  seqs, fields, srcs, completions):
        e = new(RobEntry)
        e.seq = base + rel
        e.inst = insts[pc]
        e.pc = pc
        e.pred_next = pred_next
        e.state = state
        e.value = value
        e.completion = completion + cycle_shift if completion >= 0 \
            else completion
        e.remaining = remaining
        e.consumers = []
        e.srcs = [src0, src1]
        e.addr = addr
        e.size = size
        e.store_value = 0
        e.flushed = False
        e.started = False
        e.actual_next = actual_next
        e.held = held
        rob.append(e)
    by_rel = dict(zip(seqs, rob))
    for index, edges in cons:
        rob[index].consumers = [(by_rel[rel], slot) for rel, slot in edges]
    core.rob = deque(rob)
    core.ready[:] = [(base + rel, by_rel[rel]) for rel in ready]
    completing = core.completing
    completing.clear()
    for at, rels in comp:
        completing[now + at] = [by_rel[rel] for rel in rels]
    core.rat = {reg: by_rel[rel] for reg, rel in rat}
    fetch_queue = core.fetch_queue
    fetch_queue.clear()
    fetch_queue.extend([(insts[pc], pc, pred_next, now + fetched)
                        for pc, pred_next, fetched in fq])
    core.seq = base
    (core.fetch_pc, core.last_fetch_line, core.int_iq_used,
     core.fp_iq_used, core.lq_used, core.sq_used, core.rename_int_used,
     core.rename_fp_used) = scalars
    fetch_resume, last_retire, sb_next_free = stamps
    core.fetch_resume = fetch_resume + cycle_shift if moving[0] \
        else fetch_resume
    core.last_retire_cycle = last_retire + cycle_shift if moving[1] \
        else last_retire
    core.sb_next_free = sb_next_free + cycle_shift if moving[2] \
        else sb_next_free
    predictor = core.predictor
    predictor.history = pred[0]
    predictor.ras[:] = pred[1]
    ctx = core.ctx
    ctx.pc = arch[0]
    ctx.int_regs[:] = arch[1]
    ctx.fp_regs[:] = arch[2]


class PeriodicPlan:
    """One period of a spinning core, recorded phase by phase.

    Built by the multi-core walk when a compiled core's shift-normalized
    record repeats (see :class:`_SpinAttempt`), and installed as the
    core's elision plan (``OutOfOrderCore.ff_elide_periodic``) at cycle
    ``anchor``, the first it elides.  Cycle ``anchor + n`` of the elided
    core is phase ``n % period`` of the recorded period, moved by
    ``n // period + 1`` periods; every resume path reaches
    :meth:`resume` through ``ff_resume``.
    ``classes`` holds the accounting class of each phase's cycle (cycle
    ``anchor + n`` has class ``classes[n % period]``), or is None when
    no sink was attached.
    """

    __slots__ = ("runner", "anchor", "period", "dseq", "records", "moving",
                 "credits", "retired", "rp_credits", "touches", "watch",
                 "classes")

    def resume(self, core, end: int) -> None:
        """Put ``core`` in the state the naive loop reaches at the top of
        ``end + 1``, credit the elided cycles ``[anchor, end]``, then
        replay the snoops deferred meanwhile.

        Counters are *added* (``k`` whole periods plus the partial
        period up to the phase), so bumps that snoops made to the same
        scopes during the elision survive.  The rebuild is per phase,
        never "move whole periods, then tick the rest": a writer's store
        reaches memory before its snoop, so re-executed cycles would
        load the new value where the naive run loaded the old one.
        Under a sink the elided cycles' accounting spans are credited
        through ``_credit_span``, one call per run of equal phase
        classes (a one-class plan makes one call per resume), which
        extends the open span when the class continues it.
        """
        now = end + 1
        period = self.period
        periods, phase = divmod(now - self.anchor, period)
        _spin_rebuild(core, self.records[phase], now,
                      (periods + 1) * self.dseq, (periods + 1) * period,
                      self.moving)
        for counters, key, per, partial in self.credits:
            counters[key] += periods * per + partial[phase]
        per, partial = self.retired
        core.ctx.retired_instructions += periods * per + partial[phase]
        rp = core._retire_pcs
        if rp is not None:
            for pc, per, partial in self.rp_credits:
                rp[pc] = rp.get(pc, 0) + periods * per + partial[phase]
        # Cache LRU order: the naive core re-touched the loop's lines
        # every period; replaying the last period's touches in order
        # leaves them most recent, ranked as the naive run ranks them.
        # (Lines a snoop removed meanwhile stay removed.)
        touches = self.touches
        for i in range(phase, phase + period):
            for array, line in touches[i % period]:
                entries = array.sets.get(line & array.set_mask)
                if entries is not None and line in entries:
                    entries.move_to_end(line)
        classes = self.classes
        if classes is not None:
            credit = core._credit_span
            phase = 0
            t = self.anchor
            while t <= end:
                cls = classes[phase]
                run = 1
                while run < period and classes[(phase + run) % period] == cls:
                    run += 1
                last = end if run == period else min(t + run - 1, end)
                credit(cls, t, last)
                t = last + 1
                phase = (phase + run) % period
        runner = self.runner
        runner.pe_cycles += now - self.anchor
        runner.pe_wakes += 1
        core._bg_watch = None
        pending = core._bg_pending_inval
        if pending:
            on_inv = core._on_invalidation
            for line in pending:
                on_inv(line)
            del pending[:]


class _SpinAttempt:
    """One periodic-elision detection attempt on a resident core.

    Opens *screening*: it keeps the registers and retired count seen at
    the opening, and :meth:`screen` admits the core one ``_RECHECK``
    later only if it retired without changing a register.  Once active
    (:meth:`activate`) it is fed the core's published state at the top
    of each consecutive cycle.  A twice-repeated cheap :func:`_spin_key`
    proposes a period ``P``; the full record must then repeat after
    ``P`` cycles *twice*, with equal counter deltas over both periods,
    the predictor tables untouched (``table_versions``), no L1 miss and
    no load replay.  The second period runs on a tapped residency (every
    cache access logged); its records become the plan's phases, under a
    sink with the accounting class of each of its cycles, and elision
    starts at its end.  A state that is not periodic *yet* (the
    pipeline still filling, the predictor still training) sends the
    attempt back to looking for a period; leaving the loop, stalling,
    or changing registers more than a spin does ends it.
    """

    __slots__ = ("gen", "tap", "tapping", "tapped", "start", "last", "regs",
                 "retired", "changes", "high", "keys", "seen", "period",
                 "t0", "first", "v0", "moving", "records", "vecs", "marks",
                 "rps", "versions", "classes")

    def __init__(self, core) -> None:
        self.gen = None
        self.tap: list = []
        self.tapping = False
        self.tapped = False
        self.start = 0
        self.last = 0
        ctx = core.ctx
        self.regs = (tuple(ctx.int_regs), tuple(ctx.fp_regs))
        self.retired = ctx.retired_instructions
        self.changes = 0
        self._restart()

    def screen(self, core) -> bool:
        """True when the core retired since the attempt was opened and
        no register changed meanwhile."""
        ctx = core.ctx
        return (ctx.retired_instructions != self.retired
                and (tuple(ctx.int_regs), tuple(ctx.fp_regs)) == self.regs)

    def activate(self, gen, cycle: int) -> None:
        """Start observing: ``gen`` is the residency to watch."""
        self.gen = gen
        self.start = cycle
        self.last = cycle - 1
        self.high = 0

    def _restart(self) -> None:
        self.keys: list = []
        self.seen: Dict[tuple, int] = {}
        self.period = 0
        self.t0 = 0
        self.first = None
        self.v0 = None
        self.moving = None
        self.records: list = []
        self.vecs: list = []
        self.marks: list = []
        self.rps: list = []
        self.versions = None
        self.classes: list = []

    def observe(self, core, runner, cycle: int, pend: list):
        """Feed the state at the top of ``cycle``: None to go on, False
        when the attempt failed, or the finished :class:`PeriodicPlan`.
        Sets ``tapping`` when the record period starts: the caller then
        swaps in a residency that logs the core's cache accesses."""
        if cycle != self.last + 1 or cycle - self.start > _BUDGET:
            return False
        self.last = cycle
        rob = core.rob
        tables = runner.spin
        if not rob or not tables.spin_tab[rob[0].pc]:
            # Left the loop (:func:`probe` ends a stalled attempt).
            return False
        if not self.period:
            # While the ROB and fetch queue still fill (each new high
            # of their occupancy is a state never seen before), no key
            # can repeat: skip the publish and the key until they level.
            occupancy = len(rob) + len(core.fetch_queue)
            if occupancy > self.high:
                self.high = occupancy
                if self.keys:
                    # Keys must come from consecutive cycles.
                    self.keys = []
                    self.seen = {}
                return None
        self.gen.send(-2)
        ctx = core.ctx
        regs = (tuple(ctx.int_regs), tuple(ctx.fp_regs))
        if regs != self.regs:
            if self.regs is not None:
                self.changes += 1
                if self.changes > _REG_CHANGES:
                    return False
                self._restart()
            self.regs = regs
        period = self.period
        if not period:
            # Propose the period once the cheap key has repeated twice
            # at one distance; only then pay for a full record.
            keys = self.keys
            t = len(keys)
            key = _spin_key(core, cycle)
            keys.append(key)
            seen = self.seen.get(key)
            self.seen[key] = t
            if seen is None:
                return None
            period = t - seen
            if period > _MAX_PERIOD or t < 2 * period \
                    or keys[t - 2 * period] != key:
                return None
            record = _spin_record(core, cycle)
            if record is None:
                # Not recordable yet: wait for the key to repeat twice
                # more rather than asking again next cycle.
                self._restart()
            else:
                self.period = period
                self.t0 = cycle
                self.first = record
                self.v0 = tables.vector(pend)
            return None
        u = cycle - self.t0
        if u < period:
            return None
        if u > period and core.obs.active:
            # The accounting class of the record period's previous
            # cycle, by the classifier ``tick`` and ``drive`` call.  Its
            # inputs repeat with the period: the head's state is in the
            # record, its two stamps move with the period or rest in the
            # past, and a spin loop holds no serialized op.
            self.classes.append(core._classify_cycle(cycle - 1))
        record = _spin_record(core, cycle)
        if record is None:
            self._restart()
            return None
        if u == period:
            moving = _spin_shift(self.first, record, period)
            if moving is None:
                # Not periodic yet, or a key collision: look afresh.
                self._restart()
                return None
            self.moving = moving
            self.versions = core.predictor.table_versions()
            self.tapping = True
        elif u == 2 * period:
            plan = self._finish(core, runner, tables, record, pend)
            if plan is None:
                self._restart()
            return plan
        self.records.append(record)
        self.vecs.append(tables.vector(pend))
        self.marks.append(len(self.tap))
        rp = core._retire_pcs
        if rp is not None:
            self.rps.append(dict(rp))
        return None

    def _finish(self, core, runner, tables, record, pend):
        """The plan, None when the state is not periodic yet, or False
        when the loop touches something a plan cannot repeat (a miss, a
        snoop replay, an op outside the spin loop)."""
        period = self.period
        records = self.records
        if _spin_shift(records[0], record, period) != self.moving \
                or core.predictor.table_versions() != self.versions:
            return None
        end = tables.vector(pend)
        base = self.vecs[0]
        v0 = self.v0
        for pos in range(len(end)):
            if end[pos] - base[pos] != base[pos] - v0[pos]:
                return None
        for pos in tables.frozen:
            if end[pos] != base[pos]:
                return False
        if core.pending_stores or core.store_entries or core.blocked_loads:
            # Stores still draining: the records leave the store buffer
            # out, so it must already be empty (the loop adds none).
            return None
        spin_tab = tables.spin_tab
        for rec in records:
            fingerprint = rec[0]
            fetch_pc = fingerprint[8][0]
            if not 0 <= fetch_pc < len(spin_tab) or not spin_tab[fetch_pc]:
                return False
            for fields in fingerprint[1]:
                if not spin_tab[fields[0]]:
                    return False
            for pc, _pred, _fetched in fingerprint[7]:
                if not spin_tab[pc]:
                    return False
        plan = PeriodicPlan()
        plan.runner = runner
        plan.anchor = record[4]
        plan.period = period
        plan.dseq = record[3] - records[0][3]
        plan.records = records
        plan.moving = self.moving
        plan.classes = tuple(self.classes) if self.classes else None
        vecs = self.vecs
        credits = []
        for pos, (counters, key) in enumerate(tables.slots):
            per = end[pos] - base[pos]
            partial = tuple([vec[pos] - base[pos] for vec in vecs])
            if per or any(partial):
                credits.append((counters, key, per, partial))
        plan.credits = credits
        plan.retired = (end[-1] - base[-1],
                        tuple([vec[-1] - base[-1] for vec in vecs]))
        rp_credits = []
        rp = core._retire_pcs
        if rp is not None:
            first = self.rps[0]
            for pc, count in rp.items():
                before = first.get(pc, 0)
                partial = tuple([snap.get(pc, 0) - before
                                 for snap in self.rps])
                if count != before or any(partial):
                    rp_credits.append((pc, count - before, partial))
        plan.rp_credits = rp_credits
        port = core.mem_system.ports[core.index]
        l1d = port.l1d
        l1i = port.l1i
        tap = self.tap
        marks = self.marks + [len(tap)]
        touches = []
        watch = set()
        for phase in range(period):
            phase_touches = []
            for is_fetch, where in tap[marks[phase]:marks[phase + 1]]:
                if is_fetch:
                    phase_touches.append(
                        (l1i, l1i.line_addr(INST_SPACE + where * 4)))
                else:
                    line = l1d.line_addr(where)
                    phase_touches.append((l1d, line))
                    watch.add(line)
            touches.append(phase_touches)
        # Snoop replays match in-flight loads by ``addr >> 5``.
        for rec in records:
            for fields in rec[0][1]:
                addr = fields[5]
                if addr is not None:
                    watch.add(addr >> 5)
        plan.touches = touches
        plan.watch = frozenset(watch)
        return plan


def _spin_table(instructions) -> bytearray:
    """Per-PC flag: the PC lies in a backward loop body (a branch or jump
    to a target at or before it) holding no store, no serialized op and
    no call or return.  Only a core whose whole ROB and fetch stream sit
    in such bodies is a periodic-elision candidate: it writes no memory,
    touches no port, and leaves the BTB and RAS alone."""
    n = len(instructions)
    bad = [0] * (n + 1)
    for pc, inst in enumerate(instructions):
        info = inst.info
        bad[pc + 1] = bad[pc] + (info.serialize or info.is_store
                                 or inst.op is Op.JAL or inst.op is Op.JR)
    edges = [0] * (n + 1)
    for pc, inst in enumerate(instructions):
        target = inst.target
        if inst.info.is_branch and inst.op is not Op.JAL \
                and inst.op is not Op.JR and isinstance(target, int) \
                and 0 <= target <= pc and bad[pc + 1] == bad[target]:
            edges[target] += 1
            edges[pc + 1] -= 1
    table = bytearray(n)
    depth = 0
    for pc in range(n):
        depth += edges[pc]
        if depth:
            table[pc] = 1
    return table


class SpinTables:
    """Per-runner tables for the probe, built when the runner first
    joins a walk that may elide (``runner.spin``): the static spin-loop
    PC table, and the counter slots a periodic plan credits — every
    core counter, the predictor's, and the port's hit counters — with
    the positions that must not move over a recorded period
    (``frozen``)."""

    __slots__ = ("spin_tab", "slots", "pend", "frozen", "ctx")

    def __init__(self, runner) -> None:
        core = runner.core
        self.spin_tab = _spin_table(core.ctx.program.instructions)
        cnt = core._cnt
        port = core.mem_system.ports[core.index].stats.counters
        predictor = core.predictor.stats.counters
        self.slots = ([(cnt, key) for key in cnt]
                      + [(predictor, key) for key in predictor]
                      + [(port, key) for key in _PORT_CREDIT + _PORT_FROZEN])
        keys = list(cnt)
        self.pend = [(keys.index(key), j) for j, key in enumerate(_CNT_KEYS)]
        self.frozen = [keys.index("load_replays")] + [
            len(self.slots) - len(_PORT_FROZEN) + j
            for j in range(len(_PORT_FROZEN))]
        self.ctx = core.ctx

    def vector(self, pend: list) -> list:
        """Current values of ``slots`` (resident counters in ``pend``
        included) plus the context's retired-instruction count."""
        vec = [counters[key] for counters, key in self.slots]
        for pos, j in self.pend:
            vec[pos] += pend[j]
        vec.append(self.ctx.retired_instructions)
        return vec


def spin_table(runner) -> bytearray:
    """``runner``'s static spin-loop PC table (:func:`_spin_table`),
    which the walk reads to pick the cores it probes.  Builds the
    runner's probe tables on first use."""
    tables = runner.spin
    if tables is None:
        tables = runner.spin = SpinTables(runner)
    return tables.spin_tab


def _retire(gens, i, gen) -> None:
    """Sync core ``i``'s residency ``gen`` back to the core and end it."""
    gens[i] = None
    try:
        gen.send(-1)
    except StopIteration:
        pass


def _back_off(i, cycle, pe_at, pe_backoff) -> None:
    """Delay core ``i``'s next probe after a failed screen or attempt:
    ``_RECHECK`` cycles, doubling per failure up to ``_BG_PROBE_CAP``,
    until an elision resets it.  Leaving the loop does not reset it, so
    a poll loop woken before its attempts pay off (a software queue's)
    is tried ever more rarely."""
    backoff = pe_backoff[i]
    if backoff < _BG_PROBE_CAP // _RECHECK:
        pe_backoff[i] = backoff * 2
    pe_at[i] = cycle + _RECHECK * backoff


#: :func:`probe` verdicts besides None (step the core on).
ELIDED = 1
STALLED = 2


def probe(i, core, runner, cycle, gens, pends, attempts, pe_at,
          pe_backoff) -> Optional[int]:
    """Periodic-elision probe for resident core ``i`` at the top of
    ``cycle``.  The walk calls it for a candidate — ROB head inside a
    spin loop, no store in flight — or a core under a watched attempt.
    Returns ELIDED when the core was elided (its residency retired, its
    plan installed), STALLED when it has stopped retiring, else None.

    A candidate opens a screening attempt (:class:`_SpinAttempt`); an
    admitted attempt is fed the published state every cycle, and the
    caller's residency is swapped for a tapped one when its record
    period starts; a failed attempt backs off per core.  A stalled
    candidate (its loop load missing, typically) is left to the walk's
    quiescence probe after this cycle's step, so the miss wait is
    elided with an ``ff_elide`` plan once it settles.
    """
    att = attempts[i]
    gen = gens[i]
    watching = att is not None and att.gen is not None
    if cycle - core.last_retire_cycle > (_MAX_PERIOD if watching
                                         else _STALL):
        # Not retiring: a periodic core retires every period, so this
        # is a wait, not a spin.
        if watching and att.gen is gen:
            # Drop the attempt's tapped residency (the caller steps on
            # a plain one).
            _retire(gens, i, gen)
        attempts[i] = None
        pe_at[i] = cycle + 2
        return STALLED
    if att is None:
        attempts[i] = _SpinAttempt(core)
        pe_at[i] = cycle + _RECHECK
        return None
    if not watching:
        if not att.screen(core):
            # A store-free compute loop, not a spin.
            attempts[i] = None
            _back_off(i, cycle, pe_at, pe_backoff)
            return None
        # A poke left from an earlier event only vetoes elision for
        # one cycle, and the core ticks this cycle anyway.
        core.ff_poke = False
        att.activate(gen, cycle)
        runner.pe_attempts += 1
        verdict = att.observe(core, runner, cycle, pends[i])
    elif att.gen is not gen or core.ff_poke:
        # The residency was retired under the attempt (a park probe's
        # sync or a deferred snoop) or an event poked the core.
        verdict = False
    else:
        verdict = att.observe(core, runner, cycle, pends[i])
    if verdict is None:
        if att.tapping and not att.tapped:
            # The record period starts this cycle: step on a
            # residency that logs every cache access.
            _retire(gens, i, gen)
            att.tapped = True
            gen = runner.drive(pends[i], att.tap)
            gen.send(None)
            gens[i] = att.gen = gen
        return None
    attempts[i] = None
    if att.gen is gen:
        _retire(gens, i, gen)
    if verdict is False:
        runner.pe_failures += 1
        _back_off(i, cycle, pe_at, pe_backoff)
        return None
    pe_backoff[i] = 1
    core.ff_elide_periodic(verdict)
    return ELIDED
