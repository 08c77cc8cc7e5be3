"""The compiled walk (repro.cpu.blockgen).

Two properties are enforced:

1. **One copy of the semantics.**  ``tick``, the walk's ``drive`` and the
   golden interpreter all evaluate through the tables in
   :mod:`repro.cpu.exec`.  Every evaluated op has exactly one table
   entry (or is J/JAL/JR), every entry gives pinned results on edge
   operands, and one program runs every such op on both schedulers with
   equal cycles, stats, registers and memory.  The golden interpreter
   shares the tables, so only the pinned literals catch a table bug.
2. **Gating and integration.**  The ``REPRO_NO_FASTFORWARD`` escape
   hatch and mid-run snapshots preserve the simulation exactly; a
   mutated DFG recompiles its closures.
"""

import pytest

from repro.common.config import RunOptions, SystemConfig, ooo1_cluster, \
    ooo2_cluster
from repro.cpu import exec as exec_mod
from repro.isa.opcodes import Fmt, FuClass, Op, info
from repro.system.machine import Machine
from repro.workloads import registry

INT_MIN, INT_MAX = -2**31, 2**31 - 1
NAN, INF = float("nan"), float("inf")

#: op -> [(operands, result)] for every table entry: ALU operands are
#: ``(a, b, imm)``, FP and branch operands ``(a, b)``, and a branch's
#: result is whether it is taken.
_EDGE_CASES = {
    Op.ADD: [((INT_MAX, 1, 0), INT_MIN), ((-1, 1, 0), 0)],
    Op.SUB: [((INT_MIN, 1, 0), INT_MAX), ((0, INT_MIN, 0), INT_MIN)],
    Op.AND: [((-1, INT_MIN, 0), INT_MIN), ((INT_MAX, INT_MIN, 0), 0)],
    Op.OR: [((INT_MAX, INT_MIN, 0), -1), ((0, 0, 0), 0)],
    Op.XOR: [((-1, INT_MAX, 0), INT_MIN), ((1, 1, 0), 0)],
    Op.NOR: [((0, 0, 0), -1), ((INT_MAX, 0, 0), INT_MIN)],
    Op.SLL: [((1, 31, 0), INT_MIN), ((1, 32, 0), 1), ((1, 33, 0), 2)],
    Op.SRL: [((-1, 31, 0), 1), ((-1, 32, 0), -1),
             ((INT_MIN, 33, 0), 2**30)],
    Op.SRA: [((INT_MIN, 31, 0), -1), ((INT_MIN, 32, 0), INT_MIN),
             ((INT_MIN, 33, 0), -2**30)],
    Op.SLT: [((-1, 1, 0), 1), ((INT_MAX, INT_MIN, 0), 0)],
    Op.SLTU: [((-1, 1, 0), 0), ((0, INT_MIN, 0), 1)],
    Op.ADDI: [((INT_MAX, 0, 1), INT_MIN), ((0, 0, -1), -1)],
    Op.ANDI: [((-1, 0, -2048), -2048), ((INT_MIN, 0, 2047), 0)],
    Op.ORI: [((INT_MIN, 0, 1), INT_MIN + 1), ((0, 0, -1), -1)],
    Op.XORI: [((-1, 0, -1), 0), ((INT_MAX, 0, -1), INT_MIN)],
    Op.SLLI: [((1, 0, 31), INT_MIN), ((1, 0, 33), 2)],
    Op.SRLI: [((-1, 0, 31), 1), ((INT_MIN, 0, 33), 2**30)],
    Op.SRAI: [((INT_MIN, 0, 31), -1), ((INT_MIN, 0, 33), -2**30)],
    Op.SLTI: [((-1, 0, 0), 1), ((INT_MAX, 0, -1), 0)],
    Op.LI: [((0, 0, INT_MIN), INT_MIN), ((0, 0, 2**32 - 1), -1)],
    Op.MUL: [((INT_MIN, -1, 0), INT_MIN), ((65536, 65536, 0), 0),
             ((INT_MAX, 2, 0), -2)],
    Op.DIV: [((7, 0, 0), -1), ((INT_MIN, -1, 0), INT_MIN),
             ((-7, 2, 0), -3)],
    Op.REM: [((7, 0, 0), 7), ((INT_MIN, -1, 0), 0), ((-7, 2, 0), -1)],
    Op.NOP: [((5, 6, 7), 0)],
    Op.FADD: [((0.5, 0.25), 0.75), ((1.0, -1.0), 0.0)],
    Op.FSUB: [((0.5, 0.25), 0.25), ((0.0, 1.0), -1.0)],
    Op.FMUL: [((0.5, -1.0), -0.5), ((-1.0, 0.0), -0.0)],
    Op.FDIV: [((1.0, 0.0), INF), ((-1.0, 0.0), -INF), ((0.0, 0.0), NAN),
              ((0.25, 0.5), 0.5), ((1.0, -0.0), -INF), ((-1.0, -0.0), INF)],
    Op.FSLT: [((-1.0, 1.0), 1), ((1.0, 1.0), 0), ((NAN, 1.0), 0)],
    Op.BEQ: [((INT_MIN, INT_MIN), True), ((1, -1), False)],
    Op.BNE: [((1, -1), True), ((0, 0), False)],
    Op.BLT: [((-1, 1), True), ((INT_MAX, INT_MIN), False)],
    Op.BGE: [((0, 0), True), ((INT_MIN, INT_MAX), False)],
    Op.BLTU: [((-1, 1), False), ((1, -1), True)],
    Op.BGEU: [((-1, 1), True), ((0, INT_MIN), False)],
}

#: Evaluated ops that no table holds: J and JAL take their target, JR
#: its source value.
_JUMPS = (Op.J, Op.JAL, Op.JR)


def _evaluator(op):
    for table in (exec_mod.ALU_TABLE, exec_mod.FP_TABLE,
                  exec_mod.BRANCH_TABLE):
        if op in table:
            return table[op]
    raise KeyError(op)


def test_exec_tables_cover_every_evaluated_op():
    """Each op ``drive`` evaluates has exactly one entry, in the table
    its op class picks, and pinned edge results below."""
    tables = {"alu": exec_mod.ALU_TABLE, "fp": exec_mod.FP_TABLE,
              "branch": exec_mod.BRANCH_TABLE}
    for op in Op:
        op_info = info(op)
        homes = [name for name, table in tables.items() if op in table]
        if op_info.is_load or op_info.is_store or op_info.serialize \
                or op in _JUMPS:
            assert homes == [], op
        elif op_info.is_branch:
            assert homes == ["branch"], op
        elif op_info.fu is FuClass.FP:
            assert homes == ["fp"], op
        else:
            assert homes == ["alu"], op
    assert set(_EDGE_CASES) == {op for table in tables.values()
                                for op in table}


@pytest.mark.parametrize("op", sorted(_EDGE_CASES, key=lambda op: op.name))
def test_exec_table_pins_edge_results(op):
    """``repr`` compares NaN, the sign of zero and int/bool/float."""
    evaluate = _evaluator(op)
    for args, want in _EDGE_CASES[op]:
        assert repr(evaluate(*args)) == repr(want), f"{op.name}{args}"


def test_dfg_mutation_invalidates_compiled_closures():
    """Mutating a Dfg after first evaluation recompiles its closures."""
    from repro.core.dfg import Dfg, DfgOp
    from repro.core.function import SplFunction
    dfg = Dfg("f")
    x = dfg.input("x", offset=0, width=4)
    dfg.output("y", dfg.op(DfgOp.ADD, x, x))
    fn = SplFunction(dfg)
    first = fn.compiled
    assert fn.compiled is first  # unchanged graph: cached
    dfg.output("z", dfg.op(DfgOp.ADD, x, x))
    second = fn.compiled
    assert second is not first
    assert second.evaluate({"x": 3}) == {"y": 6, "z": 6}


# --------------------------------------------------------- gating, snapshot


def _run_small(options=None):
    spec = registry.REGISTRY["g721dec"].variants["seq"](items=4)
    machine = Machine(spec.system)
    machine.load(spec.workload)
    cycles = machine.run(options=options or
                         RunOptions(max_cycles=spec.max_cycles))
    return cycles, machine.total_retired(), machine


def test_blockgen_run_matches_interpreter_exactly():
    spec = registry.REGISTRY["g721dec"].variants["seq"](items=4)
    base_cycles, base_retired, base = _run_small(
        RunOptions(max_cycles=spec.max_cycles, fast_forward=False))
    fused_cycles, fused_retired, fused = _run_small(
        RunOptions(max_cycles=spec.max_cycles, fast_forward=True))
    assert (fused_cycles, fused_retired) == (base_cycles, base_retired)
    assert fused.stats.as_dict() == base.stats.as_dict()


@pytest.mark.parametrize("env", ["REPRO_NO_FASTFORWARD"])
def test_env_gates_preserve_simulation(env, monkeypatch):
    """The escape hatch must not change the simulated results."""
    reference = _run_small()[:2]
    monkeypatch.setenv(env, "1")
    assert _run_small()[:2] == reference


def test_snapshot_roundtrip_with_blockgen(tmp_path):
    """Pausing a blockgen run mid-flight, snapshotting to disk, and
    resuming reproduces the uninterrupted run exactly (the _bg_* machine
    fields are performance hints and deliberately not snapshotted)."""
    from repro.experiments.engine import request
    from repro.system.snapshot import (read_snapshot, restore_machine,
                                       write_snapshot)
    total, retired, _ = _run_small()

    spec = registry.REGISTRY["g721dec"].variants["seq"](items=4)
    paused = Machine(spec.system)
    paused.load(spec.workload)
    paused.run(options=RunOptions(max_cycles=spec.max_cycles,
                                  pause_at=total // 2))
    path = str(tmp_path / "snap.json")
    write_snapshot(path, paused, request("g721dec", "seq", items=4))
    restored, rebuilt = restore_machine(read_snapshot(path))
    cycles = restored.run(options=RunOptions(max_cycles=rebuilt.max_cycles))
    assert (cycles, restored.total_retired()) == (total, retired)


def test_compute_bound_run_engages_the_walk():
    """A compute-bound run builds runners and runs fused windows."""
    _, _, machine = _run_small()
    assert machine._bg_runners, "the walk never engaged on a " \
                                "compute-bound run"
    assert machine._bg_multi.windows > 0
    assert machine._bg_multi.fused_cycles > 0


# ------------------------------------------------------- multi-core windows


def _two_legs(spec_or_workload, system=None, max_cycles=2_000_000):
    """Run the naive loop and the fast scheduler; return
    [(cycles, stats, machine)] in that order."""
    legs = []
    for fast in (False, True):
        if system is None:
            machine = Machine(spec_or_workload.system)
            machine.load(spec_or_workload.workload)
            limit = spec_or_workload.max_cycles
        else:
            machine = Machine(system)
            machine.load(spec_or_workload)
            limit = max_cycles
        cycles = machine.run(options=RunOptions(max_cycles=limit,
                                                fast_forward=fast))
        legs.append((cycles, machine.stats.as_dict(), machine))
    return legs


def test_multi_core_windows_engage_and_match():
    """Barrier phases with all cores busy run fused multi-core windows,
    cycle- and stats-exact against the interpreter."""
    spec = registry.REGISTRY["ll2"].variants["barrier"](n=32, p=8)
    naive, fused = _two_legs(spec)
    assert fused[0] == naive[0]
    assert fused[1] == naive[1]
    machine = fused[2]
    assert machine._bg_multi.windows > 0
    assert machine._bg_multi.fused_cycles > 0


# ------------------------------------------ deferred dispatch-stall counters

_STALL_KEYS = ("rob_full_stalls", "iq_full_stalls", "lsq_full_stalls",
               "rename_stalls")

#: Specs that between them stall dispatch on all four causes: hmmer's
#: software queue (IQ, LSQ, rename) and cjpeg/compcomm (ROB, IQ, rename)
#: with several live cores, and a lone seq core (IQ, rename) on the
#: walk's multi-cycle sends.
_STALL_SPECS = (("hmmer", "swqueue", {"M": 48, "R": 1}),
                ("cjpeg", "compcomm", {"items": 40}),
                ("gsmtoast", "seq", {"items": 8}))


def test_deferred_dispatch_stall_counters_match_the_naive_loop():
    """``drive`` defers the four dispatch-stall counters with the other
    hot counters (``_CNT_KEYS``): whole runs, and runs paused mid-walk,
    have the naive loop's counters at the same cycle."""
    totals = dict.fromkeys(_STALL_KEYS, 0)
    for bench, variant, items in _STALL_SPECS:
        spec = registry.REGISTRY[bench].variants[variant](**items)
        naive, fused = _two_legs(spec)
        assert fused[0] == naive[0], bench
        assert fused[1] == naive[1], bench
        assert fused[2]._bg_multi.fused_cycles > 0
        for key in _STALL_KEYS:
            totals[key] += fused[2].stats.total(key)
        for pause in (fused[0] // 3, fused[0] // 2, 2 * fused[0] // 3):
            paused = []
            for fast in (False, True):
                machine = Machine(spec.system)
                machine.load(spec.workload)
                machine.run(options=RunOptions(max_cycles=spec.max_cycles,
                                               pause_at=pause,
                                               fast_forward=fast))
                assert machine.cycle == pause
                paused.append(machine.stats.as_dict())
            assert paused[1] == paused[0], (bench, pause)
    assert all(totals.values()), totals


def _invalidation_workload():
    """Two cores ping-pong one cache line: core 1 stores a counter into
    the line core 0 spin-reads, with a 12-cycle divide pinning core 0's
    ROB head so completed loads sit un-retired when the snoop
    invalidation lands — every hit must replay the load (and poke the
    core out of any fused window)."""
    from repro.isa import Asm
    from repro.isa.program import MemoryImage, ThreadSpec
    from repro.system.workload import Workload

    image = MemoryImage()
    flag = image.alloc_words([0])
    done = 200
    reader = Asm("inval_reader")
    reader.li("r3", flag)
    reader.li("r4", done)
    reader.li("r6", 7)
    reader.li("r9", 3)
    reader.li("r7", 0)
    reader.label("spin")
    reader.div("r8", "r6", "r9")
    reader.lw("r5", "r3", 0)
    reader.add("r7", "r7", "r5")
    reader.bne("r5", "r4", "spin")
    reader.halt()
    writer = Asm("inval_writer")
    writer.li("r3", flag)
    writer.li("r4", done)
    writer.li("r5", 0)
    writer.label("loop")
    writer.addi("r5", "r5", 1)
    writer.sw("r5", "r3", 0)
    writer.blt("r5", "r4", "loop")
    writer.halt()
    return Workload("inval_replay", image,
                    [ThreadSpec(reader.assemble(), 0),
                     ThreadSpec(writer.assemble(), 1)])


def test_invalidation_replay_inside_multi_core_window():
    """Cache-invalidation load replays landing inside a fused multi-core
    window stay exact: the replay flushes from outside tick(), and the
    window must resume the victim at the same cycle the interpreter
    would."""
    system = SystemConfig(clusters=[ooo1_cluster(4)])
    naive, fused = _two_legs(_invalidation_workload(), system=system)

    def replays(stats):
        return sum(v for k, v in stats.items()
                   if k.endswith("load_replays"))

    assert replays(naive[1]) > 0, "workload failed to trigger replays"
    assert fused[0] == naive[0]
    assert fused[1] == naive[1]
    assert fused[2]._bg_multi.windows > 0


def test_barrier_arrival_at_window_ceiling(monkeypatch):
    """Shrinking the watchdog stride forces window ceilings onto
    arbitrary cycles — including barrier arrivals landing exactly at the
    ceiling — without changing the simulation."""
    from repro.system import machine as machine_mod
    spec = registry.REGISTRY["ll3"].variants["barrier"](
        n=24, passes=2, p=4)
    reference = _two_legs(spec)[0]
    monkeypatch.setattr(machine_mod, "_WATCHDOG_STRIDE", 7)
    naive, fused = _two_legs(spec)
    assert (naive[0], fused[0]) == (reference[0],) * 2
    assert fused[1] == reference[1]


def test_hot_report_identical_across_legs():
    """`profile --hot` per-PC retire tallies must not depend on which
    loop ran the cycles (the naive interpreter loop, or the walk's
    multi-cycle sends, per-core compiled cycles and interpreted
    ticks)."""
    spec = registry.REGISTRY["ll3"].variants["barrier"](
        n=24, passes=2, p=4)
    reports = []
    for fast in (False, True):
        machine = Machine(spec.system)
        machine.load(spec.workload)
        for core in machine.cores:
            core._retire_pcs = {}
        machine.run(options=RunOptions(max_cycles=spec.max_cycles,
                                       fast_forward=fast))
        reports.append({core.index: dict(core._retire_pcs)
                        for core in machine.cores})
    assert reports[0] == reports[1]
    assert any(reports[0].values()), "hot report came back empty"


# ------------------------------------------------------- periodic elision


def _flag_workload(delay, spinner_first=True, decoy=False, writer=True):
    """A spinner polls a flag line with the software barrier's
    ``li; lw; bne`` sense loop; a writer counts down ``delay`` and sets
    the flag (after first storing to a *decoy* line the spinner read
    once, when ``decoy``).  Without a writer, a second spinner takes its
    place and nobody ever sets the flag."""
    from repro.isa import Asm
    from repro.isa.program import MemoryImage, ThreadSpec
    from repro.system.workload import Workload

    image = MemoryImage()
    flag = image.alloc(4, align=32)
    image.alloc(28)
    other = image.alloc(4, align=32)
    image.alloc(28)
    image.write_word(flag, 0)
    image.write_word(other, 0)

    def spinner(name):
        a = Asm(name)
        a.li("r6", 1)
        a.li("r3", other)
        a.lw("r7", "r3", 0)
        a.label("spin")
        a.li("r3", flag)
        a.lw("r4", "r3", 0)
        a.bne("r4", "r6", "spin")
        a.halt()
        return a.assemble()

    def countdown(a, label):
        a.li("r5", delay)
        a.label(label)
        a.addi("r5", "r5", -1)
        a.bne("r5", "r0", label)

    if writer:
        w = Asm("writer")
        countdown(w, "wait")
        if decoy:
            w.li("r3", other)
            w.li("r4", 7)
            w.sw("r4", "r3", 0)
            countdown(w, "wait2")
        w.li("r3", flag)
        w.li("r4", 1)
        w.sw("r4", "r3", 0)
        w.halt()
        programs = [spinner("spinner"), w.assemble()]
    else:
        programs = [spinner("spinner0"), spinner("spinner1")]
    if not spinner_first:
        programs.reverse()
    return Workload("flag_spin", image,
                    [ThreadSpec(program, i)
                     for i, program in enumerate(programs)])


def _spin_legs(workload_fn, system=None, max_cycles=200_000,
               observe=False):
    """Naive and fast runs of a fresh workload each:
    [(cycles, stats, machine, observed)].  With ``observe`` both run
    under a ProfilerSink and an unfiltered PerfettoSink, and
    ``observed`` is the profiler rows and the sorted trace events
    (None otherwise)."""
    import json

    from repro.obs.perfetto import PerfettoSink
    from repro.obs.profile import ProfilerSink

    system = system or SystemConfig(clusters=[ooo1_cluster(2)])
    legs = []
    for fast in (False, True):
        machine = Machine(system)
        machine.load(workload_fn())
        if observe:
            profiler = ProfilerSink()
            machine.obs.attach(profiler, ProfilerSink.KINDS)
            tracer = PerfettoSink()
            machine.obs.attach(tracer)
        cycles = machine.run(options=RunOptions(max_cycles=max_cycles,
                                                fast_forward=fast))
        observed = None
        if observe:
            machine.finish_observation()
            accounting = profiler.accounting()
            accounting.verify()
            observed = (accounting.rows(),
                        sorted(json.dumps(event, sort_keys=True)
                               for event in tracer.trace_events))
        legs.append((cycles, machine.stats.as_dict(), machine, observed))
    return legs


def _periodic(machine, name):
    return sum(getattr(runner, name)
               for runner in machine._bg_runners.values())


@pytest.fixture
def wake_phases(monkeypatch):
    """Spy on periodic resumes: (phase, period, per-phase accounting
    classes) of every wake."""
    from repro.cpu import periodic
    seen = []
    resume = periodic.PeriodicPlan.resume

    def spy(plan, core, end):
        seen.append(((end + 1 - plan.anchor) % plan.period, plan.period,
                     plan.classes))
        return resume(plan, core, end)

    monkeypatch.setattr(periodic.PeriodicPlan, "resume", spy)
    return seen


@pytest.mark.parametrize("spinner_first", [True, False],
                         ids=["victim-before-writer", "victim-after-writer"])
def test_periodic_wake_at_every_phase(spinner_first, wake_phases):
    """The flag store wakes the elided spinner at each phase offset of
    its period — the writer's countdown moves the store two cycles per
    step — and every wake rebuilds exactly the naive run's state, with
    the victim both before and after the writer in core order, and
    once under sinks too (same profiler rows and trace events)."""
    for delay, observe in ((600, False), (601, False), (602, False),
                           (600, True)):
        naive, fused = _spin_legs(
            lambda: _flag_workload(delay, spinner_first), observe=observe)
        assert fused[0] == naive[0]
        assert fused[1] == naive[1]
        assert fused[3] == naive[3]
        assert _periodic(fused[2], "pe_cycles") > 0
    periods = {period for _phase, period, _classes in wake_phases}
    assert len(periods) == 1, wake_phases
    assert {phase for phase, _period, _classes in wake_phases} == \
        set(range(periods.pop()))


def _chase_workload(delay):
    """A spinner that chases a pointer to itself twice (``lw r3,
    0(r3)``) before it polls the flag on the pointer's line; a writer
    counts down ``delay`` and sets the flag.  The chained loads leave a
    load in flight at the ROB head on some cycles of each period, so
    the period mixes the compute and mem_stall accounting classes."""
    from repro.isa import Asm
    from repro.isa.program import MemoryImage, ThreadSpec
    from repro.system.workload import Workload

    image = MemoryImage()
    ptr = image.alloc(8, align=32)
    image.alloc(24)
    image.write_word(ptr, ptr)
    image.write_word(ptr + 4, 0)
    a = Asm("chaser")
    a.li("r6", 1)
    a.li("r3", ptr)
    a.label("spin")
    a.lw("r3", "r3", 0)
    a.lw("r3", "r3", 0)
    a.lw("r4", "r3", 4)
    a.bne("r4", "r6", "spin")
    a.halt()
    w = Asm("writer")
    w.li("r5", delay)
    w.label("wait")
    w.addi("r5", "r5", -1)
    w.bne("r5", "r0", "wait")
    w.li("r3", ptr)
    w.li("r4", 1)
    w.sw("r4", "r3", 4)
    w.halt()
    return Workload("chase_spin", image,
                    [ThreadSpec(a.assemble(), 0), ThreadSpec(w.assemble(), 1)])


@pytest.mark.parametrize("cluster", [ooo1_cluster, ooo2_cluster],
                         ids=["ooo1", "ooo2"])
def test_periodic_plan_with_mixed_classes(cluster, wake_phases):
    """A spinner whose period mixes accounting classes, under a
    ProfilerSink and an unfiltered PerfettoSink: each elided cycle is
    credited with its phase's class, so cycles, stats, profiler rows
    and trace events equal the naive run's whichever phase the flag
    store wakes it at."""
    system = SystemConfig(clusters=[cluster(2)])
    for delay in range(600, 606):
        naive, fused = _spin_legs(lambda: _chase_workload(delay),
                                  system=system, observe=True)
        assert fused[0] == naive[0]
        assert fused[1] == naive[1]
        assert fused[3] == naive[3]
        assert _periodic(fused[2], "pe_cycles") > 0
    assert any(len(set(classes)) > 1
               for _phase, _period, classes in wake_phases), wake_phases
    periods = {period for _phase, period, _classes in wake_phases}
    assert len(periods) == 1, wake_phases
    assert {phase for phase, _period, _classes in wake_phases} == \
        set(range(periods.pop()))


def test_periodic_elision_ignores_lines_the_loop_does_not_read():
    """A store to a line the spinner cached once but does not poll
    invalidates it while the spinner is elided; nothing in the loop
    depends on that line, so the spinner stays elided — only the flag
    store wakes it — and the run stays exact."""
    naive, fused = _spin_legs(
        lambda: _flag_workload(600, decoy=True))
    assert fused[0] == naive[0]
    assert fused[1] == naive[1]
    assert naive[1]["machine.mem.core0.snoop_invalidations"] == 2
    machine = fused[2]
    assert _periodic(machine, "pe_wakes") == 1
    assert _periodic(machine, "pe_cycles") > 2 * 600


def test_snapshot_inside_periodic_elision(monkeypatch):
    """Pausing inside a periodic elision resumes the spinner in the
    naive state of the pause cycle; snapshot + restore + continue then
    equals the never-paused run (and the naive one)."""
    import json
    from repro.cpu.pipeline import OutOfOrderCore

    anchors = []
    elide = OutOfOrderCore.ff_elide_periodic

    def spy(core, plan):
        anchors.append((plan.anchor, plan.period))
        return elide(core, plan)

    system = SystemConfig(clusters=[ooo1_cluster(2)])
    with monkeypatch.context() as patch:
        patch.setattr(OutOfOrderCore, "ff_elide_periodic", spy)
        naive, full = _spin_legs(lambda: _flag_workload(600),
                                 system=system)
    assert anchors, "periodic elision never engaged"
    anchor, period = anchors[0]
    pause_at = anchor + 20 * period + 1

    paused = Machine(system)
    paused.load(_flag_workload(600))
    paused.run(options=RunOptions(max_cycles=200_000, pause_at=pause_at))
    assert paused.cycle == pause_at
    assert all(core._ff_plan is None or isinstance(core._ff_plan, tuple)
               for core in paused.cores)
    state = json.loads(json.dumps(paused.snapshot()))
    restored = Machine(system)
    restored.load(_flag_workload(600))
    restored.restore(state)
    cycles = restored.run(options=RunOptions(max_cycles=200_000))
    assert cycles == full[0] == naive[0]
    assert restored.stats.as_dict() == full[1] == naive[1]


def test_livelocked_spinners_end_like_the_naive_loop():
    """Every thread spins on a flag nobody writes: the naive loop runs
    to ``max_cycles`` and raises SimulationError, never DeadlockError
    (spinners retire every iteration).  The walk resumes its elided
    spinners whenever it returns, so the watchdog reads their last
    retire as the naive loop's, and the stats at the limit match."""
    from repro.common.errors import DeadlockError, SimulationError
    system = SystemConfig(clusters=[ooo1_cluster(2)], deadlock_cycles=3000)
    results = []
    for fast in (False, True):
        machine = Machine(system)
        machine.load(_flag_workload(0, writer=False))
        with pytest.raises(SimulationError) as info:
            machine.run(options=RunOptions(max_cycles=12_000,
                                           fast_forward=fast))
        assert not isinstance(info.value, DeadlockError)
        assert "exceeded" in str(info.value)
        results.append((machine.cycle, machine.stats.as_dict(), machine))
    naive, fused = results
    assert fused[0] == naive[0]
    assert fused[1] == naive[1]
    assert _periodic(fused[2], "pe_cycles") > 12_000


def _ll2_sw():
    return registry.REGISTRY["ll2"].variants["sw"](n=16, p=8, passes=1)


def test_hot_report_identical_across_legs_with_periodic_elision():
    """Per-PC retire tallies (``repro profile --hot``) include the
    retirements an elided spinner is credited with, so they match the
    interpreter's on the software-barrier run."""
    reports = []
    for fast in (False, True):
        spec = _ll2_sw()
        machine = Machine(spec.system)
        machine.load(spec.workload)
        for core in machine.cores:
            core._retire_pcs = {}
        machine.run(options=RunOptions(max_cycles=spec.max_cycles,
                                       fast_forward=fast))
        reports.append({core.index: dict(core._retire_pcs)
                        for core in machine.cores})
    assert reports[0] == reports[1]
    assert _periodic(machine, "pe_cycles") > 0


def test_periodic_elision_engages_on_software_barriers():
    """Engagement guard: on ll2/sw p=8 the sense-loop spinners must be
    elided for a large share of the run (about half of all core-cycles
    when this test was written), cycle- and stats-exact."""
    naive, fused = _two_legs(_ll2_sw())
    assert fused[0] == naive[0]
    assert fused[1] == naive[1]
    machine = fused[2]
    core_cycles = fused[0] * len(machine.cores)
    assert _periodic(machine, "pe_cycles") >= core_cycles // 4
    assert _periodic(machine, "pe_wakes") > 0
    assert _periodic(machine, "pe_attempts") > 0


# ----------------------------------------------------- multi-cycle sends


def _stalled_workload(stall):
    """A short store loop on core 0, re-attached with a ``stall``-cycle
    attach stall, so the walk's first cycles sit inside its
    ``stall_until`` window."""
    from repro.isa import Asm
    from repro.isa.program import MemoryImage, ThreadSpec
    from repro.system.workload import Workload

    image = MemoryImage()
    out = image.alloc_words([0])
    a = Asm("count")
    a.li("r1", 0)
    a.li("r2", 40)
    a.li("r3", out)
    a.label("loop")
    a.addi("r1", "r1", 1)
    a.sw("r1", "r3", 0)
    a.blt("r1", "r2", "loop")
    a.halt()

    def setup(machine):
        core = machine.cores[0]
        core.attach(core.ctx, machine.cycle, stall=stall)

    return Workload("stalled", image, [ThreadSpec(a.assemble(), 0)],
                    setup=setup)


def test_send_never_starts_inside_an_attach_stall():
    """A lone core attached with a stall is the walk's only live core
    from the first cycle: no multi-cycle send may run its stalled
    cycles, which the naive loop does not count."""
    naive, fused = _spin_legs(lambda: _stalled_workload(700))
    assert naive[0] > 700
    assert fused[0] == naive[0]
    assert fused[1] == naive[1]


# ------------------------------------------------- compiled serialized ops


def _serialized_program(shape, k=0):
    """One core's program around FENCE, the atomics or HALT; ``k``
    sizes the shape.  Data sits at 0x1000 and 32 lines up from it."""
    from repro.isa import Asm

    a = Asm(shape)
    a.li("r1", 0x1000)
    a.li("r2", 5)
    if shape == "fence_drain":
        # A FENCE behind ``k`` stores to cold lines, twice: the first
        # time they miss and drain slowly, the second time they hit.
        for rep in range(2):
            for j in range(k):
                a.sw("r2", "r1", 32 * j + 4 * rep)
            a.fence()
            a.addi("r3", "r3", 1)
    elif shape == "amo_consumers":
        # AMO_ADD and AMO_SWAP whose results feed the next op at once,
        # including the next atomic's operand.
        for _ in range(k):
            a.amo_add("r3", "r1", "r2")
            a.add("r4", "r3", "r3")
            a.amo_swap("r5", "r1", "r4")
            a.addi("r2", "r5", 1)
            a.sw("r2", "r1", 4)
    elif shape == "amo_blocked_load":
        # The store's address waits on the AMO's result, so the load
        # behind it is blocked when the AMO retires.
        for j in range(k):
            a.amo_add("r3", "r1", "r2")
            a.slli("r6", "r3", 2)
            a.add("r6", "r1", "r6")
            a.sw("r2", "r6", 64 + 4 * j)
            a.lw("r7", "r1", 8 + 4 * j)
            a.add("r8", "r8", "r7")
    elif shape == "fence_halt":
        a.sw("r2", "r1", 0)
        a.fence()
    elif shape == "amo_halt":
        a.amo_swap("r3", "r1", "r2")
    a.halt()
    return a.assemble()


def _lock_program(name, counter, lock, rounds):
    """``rounds`` increments of ``counter`` under an AMO_SWAP
    test-and-set spin lock at ``lock``."""
    from repro.isa import Asm

    a = Asm(name)
    a.li("r1", lock)
    a.li("r2", 1)
    a.li("r3", counter)
    for _ in range(rounds):
        acquire = a.fresh_label("acquire")
        a.label(acquire)
        a.amo_swap("r4", "r1", "r2")
        a.bne("r4", "r0", acquire)
        a.lw("r5", "r3", 0)
        a.addi("r5", "r5", 1)
        a.sw("r5", "r3", 0)
        a.fence()
        a.sw("r0", "r1", 0)
    a.halt()
    return a.assemble()


def _exact_legs(programs, cluster, monkeypatch, fp_regs=None, words=64):
    """Naive and fast runs of one thread per core of ``cluster``,
    unobserved and under a ProfilerSink: the naive observed leg's
    ``(cycles, stats, profiler rows, memory words, registers)``,
    asserted equal across legs, plus the fast legs'
    ``OutOfOrderCore.tick`` calls.  Every thread starts with
    ``fp_regs``; FP registers compare by ``repr``, so NaN equals NaN."""
    from repro.cpu.pipeline import OutOfOrderCore
    from repro.isa.program import MemoryImage, ThreadSpec
    from repro.obs.profile import ProfilerSink
    from repro.system.workload import Workload

    ticks = [0]
    tick = OutOfOrderCore.tick

    def counting(core, cycle):
        ticks[0] += 1
        return tick(core, cycle)

    monkeypatch.setattr(OutOfOrderCore, "tick", counting)
    legs = {}
    fast_ticks = 0
    for fast in (False, True):
        for observe in (False, True):
            machine = Machine(SystemConfig(
                clusters=[cluster(len(programs))]))
            machine.load(Workload("serialized", MemoryImage(), [
                ThreadSpec(program, i, fp_regs=fp_regs)
                for i, program in enumerate(programs)]))
            sink = None
            if observe:
                sink = ProfilerSink()
                machine.obs.attach(sink, ProfilerSink.KINDS)
            ticks[0] = 0
            cycles = machine.run(options=RunOptions(max_cycles=200_000,
                                                    fast_forward=fast))
            if fast:
                fast_ticks += ticks[0]
            rows = None
            if observe:
                machine.finish_observation()
                rows = sink.accounting().rows()
            memory = [machine.memory.read_word(0x1000 + 4 * w)
                      for w in range(words)]
            regs = [(ctx.int_regs, [repr(v) for v in ctx.fp_regs])
                    for ctx in machine.contexts]
            legs[fast, observe] = (cycles, machine.stats.as_dict(), rows,
                                   memory, regs)
    for observe in (False, True):
        assert legs[True, observe] == legs[False, observe], observe
    return legs[False, True], fast_ticks


#: One- and two-wide cores: at retire width 2 a serialized op can
#: retire in the same cycle as the op before it.
_CLUSTERS = pytest.mark.parametrize(
    "cluster", [ooo1_cluster, ooo2_cluster], ids=["ooo1", "ooo2"])


@_CLUSTERS
@pytest.mark.parametrize("shape,k", [
    ("fence_drain", k) for k in range(5)] + [
    ("amo_consumers", 1), ("amo_consumers", 4),
    ("amo_blocked_load", 1), ("amo_blocked_load", 3),
    ("fence_halt", 0), ("amo_halt", 0)])
def test_serialized_ops_run_compiled_and_exact(shape, k, cluster,
                                               monkeypatch):
    """FENCE, AMO_ADD/AMO_SWAP and HALT run inside the compiled walk:
    a lone core is never interpreted, and cycles, every counter, the
    profiler rows and memory match the naive loop."""
    naive, fast_ticks = _exact_legs([_serialized_program(shape, k)],
                                         cluster, monkeypatch)
    assert naive[0] > 0
    assert fast_ticks == 0


@_CLUSTERS
def test_two_core_amo_swap_spin_lock(cluster, monkeypatch):
    """Two cores contend for an AMO_SWAP spin lock on one line, around
    a counter on the next: the walk matches the naive loop and no
    increment is lost."""
    rounds = 6
    programs = [_lock_program(f"locker{i}", 0x1020, 0x1000, rounds)
                for i in range(2)]
    naive, _ = _exact_legs(programs, cluster, monkeypatch)
    assert naive[3][8] == 2 * rounds
    stats = naive[1]
    assert stats["machine.cpu0.atomics"] + stats["machine.cpu1.atomics"] \
        > 2 * rounds  # the lock was contended


# ------------------------------------ every evaluated op on both schedulers


def _edge_program():
    """One program that runs every ``_EDGE_CASES`` row, then J and a
    JAL/JR call: integer results and branch outcomes (1: taken) land in
    words from 0x1000 on, FP results in f8 upward.  Returns the program,
    the FP operand registers, and the expected words and FP registers."""
    from repro.isa import Asm

    a = Asm("edge_ops")
    a.li("r10", 0x1000)
    fp_regs, words, results = {}, [], {}

    def fp_operand(value):
        for name, held in fp_regs.items():
            if repr(held) == repr(value):
                return name
        name = f"f{len(fp_regs) + 1}"
        fp_regs[name] = value
        return name

    def store(reg, value):
        a.sw(reg, "r10", 4 * len(words))
        words.append(value & 0xFFFFFFFF)

    for op in sorted(_EDGE_CASES, key=lambda op: op.name):
        op_info = info(op)
        for args, want in _EDGE_CASES[op]:
            if op_info.is_branch:
                taken = a.fresh_label("taken")
                a.li("r1", args[0])
                a.li("r2", args[1])
                a.li("r3", 1)
                getattr(a, op.value)("r1", "r2", taken)
                a.li("r3", 0)
                a.label(taken)
                store("r3", int(want))
            elif op_info.fu is FuClass.FP:
                x, y = fp_operand(args[0]), fp_operand(args[1])
                if op is Op.FSLT:
                    a.fslt("r3", x, y)
                    store("r3", want)
                else:
                    dest = f"f{8 + len(results)}"
                    getattr(a, op.value)(dest, x, y)
                    results[dest] = want
            elif op is Op.NOP:
                a.nop()
            else:
                x, y, imm = args
                a.li("r1", x)
                a.li("r2", y)
                if op is Op.LI:
                    a.li("r3", imm)
                elif op_info.fmt is Fmt.RRI:
                    getattr(a, op.value)("r3", "r1", imm)
                else:
                    getattr(a, op.value)("r3", "r1", "r2")
                store("r3", want)
    a.jal("r31", "callee")
    store("r11", 7)
    a.j("done")
    a.label("callee")
    a.li("r11", 7)
    a.jr("r31")
    a.label("done")
    a.halt()
    return a.assemble(), fp_regs, words, results


@_CLUSTERS
def test_every_evaluated_op_runs_exact_on_both_schedulers(cluster,
                                                          monkeypatch):
    """Every op the exec tables evaluate, plus J, JAL and JR, runs on
    edge operands under the naive loop and the walk: cycles, stats,
    registers and memory agree, a lone core is never interpreted, and
    every result is the pinned literal."""
    from repro.isa.instruction import FP_BASE, reg_index

    program, fp_regs, words, results = _edge_program()
    assert 0 < len(fp_regs) < 8 and 8 + len(results) <= 32
    naive, fast_ticks = _exact_legs([program], cluster, monkeypatch,
                                    fp_regs=fp_regs, words=len(words))
    assert fast_ticks == 0
    assert naive[3] == words
    fp_file = naive[4][0][1]
    for name, want in results.items():
        assert fp_file[reg_index(name) - FP_BASE] == repr(want), name
