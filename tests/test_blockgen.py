"""Trace-cache block compilation (repro.cpu.blockgen).

Three properties are enforced:

1. **Template fidelity.**  The source templates the block compiler folds
   into generated closures (``ALU_EXPR``/``FP_EXPR``/``BRANCH_EXPR``) are
   swept against the authoritative evaluators (``ALU_TABLE``,
   :func:`repro.cpu.exec.fp`, :func:`repro.cpu.exec.branch_taken`) on
   randomized operands — any divergence is a silent wrong-result bug in
   the fused loop.
2. **Cache keying.**  Compiled blocks are memoized per program keyed by
   (BLOCKGEN_VERSION, core config, instruction fingerprint): same inputs
   hit, a different config or a mutated program must miss.  The same
   invalidation contract holds one layer down for DFG codegen.
3. **Gating and integration.**  The ``REPRO_NO_BLOCKGEN`` /
   ``REPRO_NO_CODEGEN`` escape hatches and mid-run snapshots preserve the
   simulation exactly; the generated source stays inspectable.
"""

import math
import random

import pytest

from repro.common.config import RunOptions, SystemConfig, ooo1_cluster, \
    ooo2_cluster
from repro.common.utils import to_unsigned
from repro.cpu import exec as exec_mod
from repro.cpu.blockgen import compiled_blocks
from repro.isa.opcodes import Op
from repro.system import Machine
from repro.workloads import registry

_EXPR_NAMESPACE = {
    "_w": exec_mod._wrap,
    "_u": to_unsigned,
    "_div": exec_mod._div,
    "_rem": exec_mod._rem,
    "_inf": float("inf"),
    "_ninf": float("-inf"),
    "_nan": float("nan"),
}


def _fold(template, imm):
    """Fold an immediate into a template like the block compiler does."""
    return template.format(imm=f"({imm})", imm5=repr(imm & 31),
                           imm_wrapped=f"({exec_mod._wrap(imm)})")


def test_alu_expr_covers_alu_table():
    assert set(exec_mod.ALU_EXPR) == set(exec_mod.ALU_TABLE)


@pytest.mark.parametrize("op", sorted(exec_mod.ALU_EXPR,
                                      key=lambda op: op.name))
def test_alu_expr_matches_table(op):
    rng = random.Random(f"alu-{op.name}")
    edge = [0, 1, -1, 31, 32, 2**31 - 1, -2**31, -2048, 2047]
    for trial in range(200):
        if trial < len(edge) ** 2:
            a = edge[trial % len(edge)]
            b = edge[trial // len(edge) % len(edge)]
        else:
            a = rng.randint(-2**31, 2**31 - 1)
            b = rng.randint(-2**31, 2**31 - 1)
        imm = rng.randint(-2048, 2047)
        got = eval(_fold(exec_mod.ALU_EXPR[op], imm),
                   dict(_EXPR_NAMESPACE), {"a": a, "b": b})
        assert got == exec_mod.ALU_TABLE[op](a, b, imm), \
            f"{op.name}(a={a}, b={b}, imm={imm})"


@pytest.mark.parametrize("op", sorted(exec_mod.FP_EXPR,
                                      key=lambda op: op.name))
def test_fp_expr_matches_fp(op):
    rng = random.Random(f"fp-{op.name}")
    values = [0.0, -0.0, 1.0, -1.0, 0.5, 1e30, -1e30]
    for trial in range(200):
        if trial < len(values) ** 2:
            a = values[trial % len(values)]
            b = values[trial // len(values) % len(values)]
        else:
            a = rng.uniform(-1e6, 1e6)
            b = rng.uniform(-1e6, 1e6)
        got = eval(exec_mod.FP_EXPR[op], dict(_EXPR_NAMESPACE),
                   {"a": a, "b": b})
        want = exec_mod.fp(op, a, b)
        if isinstance(want, float) and math.isnan(want):
            assert isinstance(got, float) and math.isnan(got)
        else:
            assert got == want, f"{op.name}(a={a}, b={b})"


@pytest.mark.parametrize("op", sorted(exec_mod.BRANCH_EXPR,
                                      key=lambda op: op.name))
def test_branch_expr_matches_branch_taken(op):
    rng = random.Random(f"br-{op.name}")
    edge = [0, 1, -1, 2**31 - 1, -2**31]
    for trial in range(200):
        if trial < len(edge) ** 2:
            a = edge[trial % len(edge)]
            b = edge[trial // len(edge) % len(edge)]
        else:
            a = rng.randint(-2**31, 2**31 - 1)
            b = rng.randint(-2**31, 2**31 - 1)
        got = bool(eval(exec_mod.BRANCH_EXPR[op], dict(_EXPR_NAMESPACE),
                        {"a": a, "b": b}))
        assert got == exec_mod.branch_taken(op, a, b), \
            f"{op.name}(a={a}, b={b})"


# ------------------------------------------------------------- cache keying


def _program():
    from repro.isa import Asm
    a = Asm("loop")
    a.li("r1", 0)
    a.li("r2", 10)
    a.label("loop")
    a.addi("r1", "r1", 1)
    a.blt("r1", "r2", "loop")
    a.halt()
    return a.assemble()


def _core_configs():
    machine = Machine(SystemConfig(clusters=[ooo1_cluster(n_cores=1),
                                             ooo2_cluster(n_cores=1)]))
    return machine.cores[0].config, machine.cores[-1].config


def test_compiled_blocks_memoized_per_program_and_config():
    prog = _program()
    cfg1, cfg2 = _core_configs()
    assert cfg1 != cfg2
    bp = compiled_blocks(prog, cfg1)
    assert compiled_blocks(prog, cfg1) is bp
    assert compiled_blocks(prog, cfg2) is not bp


def test_compiled_blocks_miss_on_program_mutation():
    prog = _program()
    cfg, _ = _core_configs()
    bp = compiled_blocks(prog, cfg)
    prog.instructions[0].imm = 7  # li r1, 0 -> li r1, 7
    assert compiled_blocks(prog, cfg) is not bp


def test_dfg_mutation_invalidates_compiled_closures():
    """Mutating a Dfg after first evaluation recompiles its closures."""
    from repro.core.dfg import Dfg, DfgOp
    from repro.core.function import SplFunction
    dfg = Dfg("f")
    x = dfg.input("x", offset=0, width=4)
    dfg.output("y", dfg.op(DfgOp.ADD, x, x))
    fn = SplFunction(dfg)
    first = fn.compiled
    if first is None:
        pytest.skip("codegen disabled in this environment")
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
        RunOptions(max_cycles=spec.max_cycles, fast_forward=False,
                   blockgen=False))
    fused_cycles, fused_retired, fused = _run_small(
        RunOptions(max_cycles=spec.max_cycles, fast_forward=True,
                   blockgen=True))
    assert (fused_cycles, fused_retired) == (base_cycles, base_retired)
    assert fused.stats.as_dict() == base.stats.as_dict()


@pytest.mark.parametrize("env", ["REPRO_NO_BLOCKGEN", "REPRO_NO_CODEGEN"])
def test_env_gates_preserve_simulation(env, monkeypatch):
    """Each escape hatch alone must not change the simulated results."""
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


def test_generated_source_is_inspectable():
    """A compute-bound run leaves fused windows and readable source."""
    _, _, machine = _run_small()
    runners = list(machine._bg_runners.values())
    assert runners, "blockgen never engaged on a compute-bound run"
    assert machine._bg_multi.windows > 0
    assert machine._bg_multi.fused_cycles > 0
    dump = runners[0].bp.source_dump()
    assert "def _pc" in dump
    assert runners[0].bp.hit_rate() > 0.5


# ------------------------------------------------------- multi-core windows


def _three_legs(spec_or_workload, system=None, max_cycles=2_000_000):
    """Run naive / fast-forward / fast-forward+blockgen; return
    [(cycles, stats, machine)] in that order."""
    legs = []
    for ff, bg in ((False, False), (True, False), (True, True)):
        if system is None:
            machine = Machine(spec_or_workload.system)
            machine.load(spec_or_workload.workload)
            limit = spec_or_workload.max_cycles
        else:
            machine = Machine(system)
            machine.load(spec_or_workload)
            limit = max_cycles
        cycles = machine.run(options=RunOptions(
            max_cycles=limit, fast_forward=ff, blockgen=bg))
        legs.append((cycles, machine.stats.as_dict(), machine))
    return legs


def test_multi_core_windows_engage_and_match():
    """Barrier phases with all cores busy run fused multi-core windows,
    cycle- and stats-exact against the interpreter."""
    spec = registry.REGISTRY["ll2"].variants["barrier"](n=32, p=8)
    naive, ff, fused = _three_legs(spec)
    assert fused[0] == ff[0] == naive[0]
    assert fused[1] == naive[1]
    machine = fused[2]
    assert machine._bg_multi.windows > 0
    assert machine._bg_multi.fused_cycles > 0


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
    naive, ff, fused = _three_legs(_invalidation_workload(), system=system)

    def replays(stats):
        return sum(v for k, v in stats.items()
                   if k.endswith("load_replays"))

    assert replays(naive[1]) > 0, "workload failed to trigger replays"
    assert fused[0] == ff[0] == naive[0]
    assert fused[1] == naive[1]
    assert fused[2]._bg_multi.windows > 0


def test_barrier_arrival_at_window_ceiling(monkeypatch):
    """Shrinking the watchdog stride forces window ceilings onto
    arbitrary cycles — including barrier arrivals landing exactly at the
    ceiling — without changing the simulation."""
    from repro.system import machine as machine_mod
    spec = registry.REGISTRY["ll3"].variants["barrier"](
        n=24, passes=2, p=4)
    reference = _three_legs(spec)[0]
    monkeypatch.setattr(machine_mod, "_WATCHDOG_STRIDE", 7)
    naive, ff, fused = _three_legs(spec)
    assert (naive[0], ff[0], fused[0]) == (reference[0],) * 3
    assert fused[1] == reference[1]


def test_hot_report_identical_across_legs():
    """`profile --hot` per-PC retire tallies must not depend on which
    execution mode ran the cycles (interpreter, single-core blockgen, or
    the multi-core window path)."""
    spec = registry.REGISTRY["ll3"].variants["barrier"](
        n=24, passes=2, p=4)
    reports = []
    for ff, bg in ((False, False), (True, False), (True, True)):
        machine = Machine(spec.system)
        machine.load(spec.workload)
        for core in machine.cores:
            core._retire_pcs = {}
        machine.run(options=RunOptions(max_cycles=spec.max_cycles,
                                       fast_forward=ff, blockgen=bg))
        reports.append({core.index: dict(core._retire_pcs)
                        for core in machine.cores})
    assert reports[0] == reports[1] == reports[2]
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


def _spin_legs(workload_fn, system=None, max_cycles=200_000):
    """Naive / fast-forward / fast-forward+blockgen runs of a fresh
    workload each: [(cycles, stats, machine)]."""
    system = system or SystemConfig(clusters=[ooo1_cluster(2)])
    legs = []
    for ff, bg in ((False, False), (True, False), (True, True)):
        machine = Machine(system)
        machine.load(workload_fn())
        cycles = machine.run(options=RunOptions(
            max_cycles=max_cycles, fast_forward=ff, blockgen=bg))
        legs.append((cycles, machine.stats.as_dict(), machine))
    return legs


def _periodic(machine, name):
    return sum(getattr(runner, name)
               for runner in machine._bg_runners.values())


@pytest.fixture
def wake_phases(monkeypatch):
    """Spy on periodic resumes: (phase, period) of every wake."""
    from repro.cpu import periodic
    seen = []
    resume = periodic.PeriodicPlan.resume

    def spy(plan, core, start, end):
        seen.append(((end + 1 - plan.anchor) % plan.period, plan.period))
        return resume(plan, core, start, end)

    monkeypatch.setattr(periodic.PeriodicPlan, "resume", spy)
    return seen


@pytest.mark.parametrize("spinner_first", [True, False],
                         ids=["victim-before-writer", "victim-after-writer"])
def test_periodic_wake_at_every_phase(spinner_first, wake_phases):
    """The flag store wakes the elided spinner at each phase offset of
    its period — the writer's countdown moves the store two cycles per
    step — and every wake rebuilds exactly the naive run's state, with
    the victim both before and after the writer in core order."""
    for delay in (600, 601, 602):
        naive, ff, fused = _spin_legs(
            lambda: _flag_workload(delay, spinner_first))
        assert fused[0] == ff[0] == naive[0]
        assert fused[1] == ff[1] == naive[1]
        assert _periodic(fused[2], "pe_cycles") > 0
    periods = {period for _phase, period in wake_phases}
    assert len(periods) == 1, wake_phases
    assert {phase for phase, _period in wake_phases} == \
        set(range(periods.pop()))


def test_periodic_elision_ignores_lines_the_loop_does_not_read():
    """A store to a line the spinner cached once but does not poll
    invalidates it while the spinner is elided; nothing in the loop
    depends on that line, so the spinner stays elided — only the flag
    store wakes it — and the run stays exact."""
    naive, ff, fused = _spin_legs(
        lambda: _flag_workload(600, decoy=True))
    assert fused[0] == ff[0] == naive[0]
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

    def spy(core, start, wake, plan):
        anchors.append((start, plan.period))
        return elide(core, start, wake, plan)

    system = SystemConfig(clusters=[ooo1_cluster(2)])
    with monkeypatch.context() as patch:
        patch.setattr(OutOfOrderCore, "ff_elide_periodic", spy)
        naive, _ff, full = _spin_legs(lambda: _flag_workload(600),
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
    (spinners retire every iteration).  Elided spinners retire every
    period, so the watchdog counts them as progress, and the end-of-run
    flush leaves the same stats."""
    from repro.common.errors import DeadlockError, SimulationError
    system = SystemConfig(clusters=[ooo1_cluster(2)], deadlock_cycles=3000)
    results = []
    for ff, bg in ((False, False), (True, False), (True, True)):
        machine = Machine(system)
        machine.load(_flag_workload(0, writer=False))
        with pytest.raises(SimulationError) as info:
            machine.run(options=RunOptions(max_cycles=12_000,
                                           fast_forward=ff, blockgen=bg))
        assert not isinstance(info.value, DeadlockError)
        assert "exceeded" in str(info.value)
        results.append((machine.cycle, machine.stats.as_dict(), machine))
    naive, ff, fused = results
    assert fused[0] == ff[0] == naive[0]
    assert fused[1] == ff[1] == naive[1]
    assert _periodic(fused[2], "pe_cycles") > 12_000


def _ll2_sw():
    return registry.REGISTRY["ll2"].variants["sw"](n=16, p=8, passes=1)


def test_hot_report_identical_across_legs_with_periodic_elision():
    """Per-PC retire tallies (``repro profile --hot``) include the
    retirements an elided spinner is credited with, so they match the
    interpreter's on the software-barrier run."""
    reports = []
    for ff, bg in ((False, False), (True, False), (True, True)):
        spec = _ll2_sw()
        machine = Machine(spec.system)
        machine.load(spec.workload)
        for core in machine.cores:
            core._retire_pcs = {}
        machine.run(options=RunOptions(max_cycles=spec.max_cycles,
                                       fast_forward=ff, blockgen=bg))
        reports.append({core.index: dict(core._retire_pcs)
                        for core in machine.cores})
    assert reports[0] == reports[1] == reports[2]
    assert _periodic(machine, "pe_cycles") > 0


def test_periodic_elision_engages_on_software_barriers():
    """Engagement guard: on ll2/sw p=8 the sense-loop spinners must be
    elided for a large share of the run (about half of all core-cycles
    when this test was written), cycle- and stats-exact."""
    naive, ff, fused = _three_legs(_ll2_sw())
    assert fused[0] == ff[0] == naive[0]
    assert fused[1] == naive[1]
    machine = fused[2]
    core_cycles = fused[0] * len(machine.cores)
    assert _periodic(machine, "pe_cycles") >= core_cycles // 4
    assert _periodic(machine, "pe_wakes") > 0
    assert _periodic(machine, "pe_attempts") > 0


def test_block_code_shared_within_a_machine():
    """Threads of one spec generate mostly identical block source: a
    machine compiles each distinct source once, while every program's
    ``compiles`` still counts its own block installs.  A single-thread
    machine keeps no memo."""
    spec = _ll2_sw()
    machine = Machine(spec.system)
    machine.load(spec.workload)
    machine.run(options=RunOptions(max_cycles=spec.max_cycles))
    programs = {id(runner.bp): runner.bp
                for runner in machine._bg_runners.values()}
    installs = sum(bp.compiles for bp in programs.values())
    assert installs == sum(block.fns is not None
                           for bp in programs.values() for block in bp.blocks)
    assert 0 < len(machine._bg_code) < installs

    spec = registry.REGISTRY["g721dec"].variants["seq"](items=4)
    machine = Machine(spec.system)
    machine.load(spec.workload)
    machine.run(options=RunOptions(max_cycles=spec.max_cycles))
    assert machine._bg_runners and not machine._bg_code


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
    naive, ff, fused = _spin_legs(lambda: _stalled_workload(700))
    assert naive[0] > 700
    assert fused[0] == ff[0] == naive[0]
    assert fused[1] == ff[1] == naive[1]
