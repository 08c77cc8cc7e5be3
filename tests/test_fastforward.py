"""Cycle-exact equivalence of the quiescence-aware fast-forward scheduler.

The contract (DESIGN.md, "Scheduler contract"): for every workload the
fast-forward scheduler must produce the *same simulation* as the naive
per-cycle loop — identical final cycle, identical retired-instruction
count, identical stats down to every counter, and an identical cycle-
accounting profile.  These tests sweep the full benchmark registry plus
the paths with scheduler-visible side effects: migration, the deadlock
watchdog, and the observability sinks.
"""

import pytest

from repro.common.config import (RunOptions, SystemConfig, ooo1_cluster,
                                 remap_cluster)
from repro.common.errors import DeadlockError
from repro.experiments.runner import execute
from repro.isa import Asm, MemoryImage, ThreadSpec
from repro.system import Machine, Workload
from repro.workloads import registry

#: Small spec kwargs per benchmark (mirrors tests/test_workload_variants).
_SMALL = {
    "g721enc": {"items": 10}, "g721dec": {"items": 10},
    "mpeg2enc": {"items": 6}, "mpeg2dec": {"items": 48},
    "gsmtoast": {"items": 32}, "gsmuntoast": {"items": 24},
    "libquantum": {"items": 8, "passes": 3}, "wc": {"items": 64},
    "unepic": {"items": 64}, "cjpeg": {"items": 64},
    "adpcm": {"items": 96}, "twolf": {"items": 64},
    "hmmer": {"M": 48, "R": 2}, "astar": {"items": 48},
}

_COMP_VARIANTS = ("seq", "seq_ooo2", "spl")
_COMM_VARIANTS = ("seq", "seq_ooo2", "spl", "comm", "compcomm", "ooo2comm",
                  "swqueue")

_BARRIER_CASES = [
    ("ll2", "barrier", {"n": 16, "passes": 2, "p": 4}),
    ("ll2", "hwbar", {"n": 16, "passes": 2, "p": 4}),
    ("ll3", "barrier", {"n": 64, "passes": 3, "p": 4}),
    ("ll3", "barrier_comp", {"n": 64, "passes": 3, "p": 8}),
    ("ll3", "hwbar", {"n": 64, "passes": 3, "p": 8}),
    ("ll3", "barrier", {"n": 64, "passes": 2, "p": 16}),
    ("ll6", "barrier", {"n": 16, "passes": 2, "p": 4}),
    ("dijkstra", "barrier", {"n": 20, "p": 16}),
    ("dijkstra", "barrier_comp", {"n": 16, "p": 8}),
    ("dijkstra", "hwbar", {"n": 16, "p": 4}),
]


def _registry_cases():
    cases = []
    for info in registry.computation_only():
        for variant in _COMP_VARIANTS:
            cases.append((info.name, variant, dict(_SMALL[info.name])))
    for info in registry.communicating():
        for variant in _COMM_VARIANTS:
            kwargs = dict(_SMALL[info.name])
            if info.name != "libquantum":
                kwargs.pop("passes", None)
            cases.append((info.name, variant, kwargs))
    return cases + _BARRIER_CASES


def _flat(tree, prefix="", out=None):
    if out is None:
        out = {}
    for key, value in tree.items():
        if isinstance(value, dict):
            _flat(value, prefix + key + ".", out)
        else:
            out[prefix + key] = value
    return out


def _run(bench, variant, kwargs, fast_forward, blockgen=False):
    # Workload images are consumed by execution: build a fresh spec per run.
    spec = registry.REGISTRY[bench].variants[variant](**kwargs)
    return execute(spec, options=RunOptions(fast_forward=fast_forward,
                                            blockgen=blockgen))


@pytest.mark.parametrize(
    "bench,variant,kwargs", _registry_cases(),
    ids=lambda v: v if isinstance(v, str) else "")
def test_differential_sweep(bench, variant, kwargs):
    """Every registry bench x variant: the naive per-cycle loop, the
    fast-forward scheduler, and fast-forward with trace-cache block
    compilation on top (the default configuration) are the same
    simulation — identical final cycle and identical stats tree."""
    naive = _run(bench, variant, kwargs, fast_forward=False)
    flat = _flat(naive.stats.as_dict())
    fast = _run(bench, variant, kwargs, fast_forward=True)
    assert fast.cycles == naive.cycles
    assert _flat(fast.stats.as_dict()) == flat
    fused = _run(bench, variant, kwargs, fast_forward=True, blockgen=True)
    assert fused.cycles == naive.cycles
    assert _flat(fused.stats.as_dict()) == flat


#: SPL-heavy cases for the codegen on/off leg of the sweep (compute-only,
#: communication+computation, and barrier flavours; every SPL evaluation
#: path gets covered without doubling the full-registry sweep).
_CODEGEN_CASES = [
    ("g721dec", "spl", {"items": 10}),
    ("adpcm", "compcomm", {"items": 96}),
    ("gsmtoast", "spl", {"items": 32}),
    ("hmmer", "compcomm", {"M": 48, "R": 2}),
    ("ll3", "barrier_comp", {"n": 64, "passes": 3, "p": 8}),
    ("dijkstra", "barrier", {"n": 20, "p": 16}),
]


@pytest.mark.parametrize(
    "bench,variant,kwargs", _CODEGEN_CASES,
    ids=lambda v: v if isinstance(v, str) else "")
def test_codegen_off_same_simulation(bench, variant, kwargs, monkeypatch):
    """REPRO_NO_CODEGEN=1 (interpreter fallback) is the same simulation.

    The env gate is sampled when SplFunctions are constructed, so it is
    set before the spec is built.  Compiled fast-forward (the default
    production mode) is compared against the interpreted runs under both
    schedulers: identical final cycle and identical stats tree.
    """
    compiled = _run(bench, variant, kwargs, fast_forward=True)
    monkeypatch.setenv("REPRO_NO_CODEGEN", "1")
    interp_naive = _run(bench, variant, kwargs, fast_forward=False)
    interp_ff = _run(bench, variant, kwargs, fast_forward=True)
    assert interp_naive.cycles == compiled.cycles
    assert interp_ff.cycles == compiled.cycles
    flat = _flat(compiled.stats.as_dict())
    assert _flat(interp_naive.stats.as_dict()) == flat
    assert _flat(interp_ff.stats.as_dict()) == flat


# ---------------------------------------------------------------- profiler


def _profiled(bench, variant, kwargs, fast_forward):
    from repro.obs.profile import ProfilerSink
    spec = registry.REGISTRY[bench].variants[variant](**kwargs)
    machine = Machine(spec.system)
    machine.load(spec.workload)
    sink = ProfilerSink()
    machine.obs.attach(sink, ProfilerSink.KINDS)
    cycles = machine.run(options=RunOptions(max_cycles=spec.max_cycles,
                                            fast_forward=fast_forward))
    machine.finish_observation()
    accounting = sink.accounting()
    accounting.verify()  # spans exactly tile the ticked cycles
    return cycles, accounting.rows()


@pytest.mark.parametrize("bench,variant,kwargs", [
    ("ll3", "barrier", {"n": 64, "passes": 3, "p": 4}),
    ("dijkstra", "hwbar", {"n": 16, "p": 4}),
    ("hmmer", "compcomm", {"M": 48, "R": 2}),
    ("g721dec", "seq", {"items": 10}),
])
def test_profiler_identical_under_fast_forward(bench, variant, kwargs):
    """Cycle-accounting rows are bit-identical under both schedulers."""
    naive_cycles, naive_rows = _profiled(bench, variant, kwargs, False)
    ff_cycles, ff_rows = _profiled(bench, variant, kwargs, True)
    assert ff_cycles == naive_cycles
    assert ff_rows == naive_rows


def test_perfetto_events_identical_under_fast_forward():
    """Same Perfetto slices either way (order may differ: elided cores
    close their spans at credit time; 'X' events carry timestamps)."""
    import json

    from repro.obs.perfetto import PERFETTO_KINDS, PerfettoSink

    def trace(fast_forward):
        spec = registry.REGISTRY["ll3"].variants["barrier"](
            n=64, passes=3, p=4)
        machine = Machine(spec.system)
        machine.load(spec.workload)
        sink = PerfettoSink()
        machine.obs.attach(sink, PERFETTO_KINDS)
        machine.run(options=RunOptions(max_cycles=spec.max_cycles,
                                       fast_forward=fast_forward))
        machine.finish_observation()
        return sorted(json.dumps(event, sort_keys=True)
                      for event in sink.trace_events)

    assert trace(True) == trace(False)


# --------------------------------------------------------------- migration


def _counting_program(n, out, tid=1):
    a = Asm(f"count{tid}")
    a.li("r1", 0)
    a.li("r2", n)
    a.label("loop")
    a.addi("r1", "r1", 1)
    a.blt("r1", "r2", "loop")
    a.li("r3", out)
    a.sw("r1", "r3", 0)
    a.halt()
    return a.assemble()


def _migrating_run(fast_forward):
    from repro.common.config import ooo2_cluster
    image = MemoryImage()
    out = image.alloc_zeroed(1)
    workload = Workload("w", image,
                        [ThreadSpec(_counting_program(40_000, out), 1)],
                        placement=[0])
    machine = Machine(SystemConfig(
        clusters=[ooo1_cluster(), ooo2_cluster()]))
    machine.load(workload)
    machine.run(options=RunOptions(
        max_cycles=2_000, until=lambda: machine.cycle >= 1_000))
    machine.migrate(1, dest_core=4)  # drain + 500-cycle context switch
    final = machine.run(options=RunOptions(max_cycles=5_000_000,
                                           fast_forward=fast_forward))
    assert machine.memory.read_word_signed(out) == 40_000
    return final


def test_migrate_resumes_on_same_cycle_under_fast_forward():
    """After a drain + 500-cycle switch, fast-forward finishes the run on
    exactly the cycle the naive loop does."""
    assert _migrating_run(True) == _migrating_run(False)


# ---------------------------------------------------------------- watchdog


def _stalled_machine(deadlock_cycles, stall):
    image = MemoryImage()
    out = image.alloc_zeroed(1)
    workload = Workload("w", image,
                        [ThreadSpec(_counting_program(10, out), 1)],
                        placement=[0])
    machine = Machine(SystemConfig(clusters=[ooo1_cluster()],
                                   deadlock_cycles=deadlock_cycles))
    machine.load(workload)
    # Re-attach with a long legal stall (a modelled reconfiguration /
    # context-switch delay far longer than the watchdog window).
    machine.cores[0].attach(machine.cores[0].ctx, machine.cycle, stall=stall)
    return machine, out


def test_watchdog_tolerates_legal_bounded_quiesce():
    """A bounded multi-thousand-cycle quiesce is forward progress: the
    fast-forward scheduler jumps it in bounded steps and must not let the
    watchdog call it a hang."""
    machine, out = _stalled_machine(deadlock_cycles=1_000, stall=6_000)
    machine.run(options=RunOptions(max_cycles=100_000, fast_forward=True))
    assert machine.memory.read_word_signed(out) == 10


def test_watchdog_naive_loop_still_trips_on_long_quiesce():
    """The naive loop has no event horizon, so the same legal stall still
    trips its retirement-based watchdog — the documented improvement the
    fast-forward progress floor provides."""
    machine, _ = _stalled_machine(deadlock_cycles=1_000, stall=6_000)
    with pytest.raises(DeadlockError):
        machine.run(options=RunOptions(max_cycles=100_000, fast_forward=False))


def test_true_deadlock_still_raises_under_fast_forward():
    """A consumer parked forever on an empty SPL queue has no bounded
    wake-up: the fast-forward scheduler must not outrun the watchdog."""
    from repro.core.function import identity_function
    a = Asm("t")
    a.spl_recv("r1")  # nobody ever sends
    a.halt()
    machine = Machine(SystemConfig(clusters=[remap_cluster()],
                                   deadlock_cycles=3_000))
    machine.load(Workload(
        "t", MemoryImage(), [ThreadSpec(a.assemble(), 1)],
        placement=[0],
        setup=lambda m: m.configure_spl(0, 1, identity_function())))
    with pytest.raises(DeadlockError):
        machine.run(options=RunOptions(max_cycles=100_000, fast_forward=True))


# ------------------------------------------------------------ escape hatch


def test_no_fastforward_env_forces_naive_loop(monkeypatch):
    """REPRO_NO_FASTFORWARD=1 must keep the scheduler off the fast path."""
    monkeypatch.setenv("REPRO_NO_FASTFORWARD", "1")

    def boom(self, now, ceiling):
        raise AssertionError("fast-forward probe ran despite escape hatch")

    monkeypatch.setattr(Machine, "_ff_probe", boom)
    result = _run("g721dec", "seq", {"items": 4}, fast_forward=None)
    assert result.cycles > 0


def test_no_blockgen_env_forces_interpreter_loop(monkeypatch):
    """REPRO_NO_BLOCKGEN=1 must keep the run off the compiled windows."""
    monkeypatch.setenv("REPRO_NO_BLOCKGEN", "1")

    def boom(self, start, ceiling, allow_elide=False):
        raise AssertionError("block window ran despite escape hatch")

    monkeypatch.setattr(Machine, "_try_block_window", boom)
    result = _run("g721dec", "seq", {"items": 4},
                  fast_forward=None, blockgen=None)
    assert result.cycles > 0


def test_blockgen_engages_by_default(monkeypatch):
    """The compiled hot loop is on by default for compute-bound runs —
    the window probe must actually be consulted."""
    probes = [0]
    original = Machine._try_block_window

    def counting(self, start, ceiling, allow_elide=False):
        probes[0] += 1
        return original(self, start, ceiling, allow_elide)

    monkeypatch.setattr(Machine, "_try_block_window", counting)
    result = _run("g721dec", "seq", {"items": 4},
                  fast_forward=None, blockgen=None)
    assert result.cycles > 0
    assert probes[0] > 0


def test_fast_forward_skips_ticks_on_barrier_wait():
    """The point of the redesign: barrier waiters stop being ticked."""
    from repro.cpu.pipeline import OutOfOrderCore

    def count_ticks(fast_forward):
        ticks = [0]
        original = OutOfOrderCore.tick

        def counting(self, cycle):
            ticks[0] += 1
            return original(self, cycle)

        OutOfOrderCore.tick = counting
        try:
            spec = registry.REGISTRY["ll3"].variants["barrier"](
                n=64, passes=3, p=4)
            machine = Machine(spec.system)
            machine.load(spec.workload)
            cycles = machine.run(options=RunOptions(
                max_cycles=spec.max_cycles, fast_forward=fast_forward))
        finally:
            OutOfOrderCore.tick = original
        return cycles, ticks[0]

    naive_cycles, naive_ticks = count_ticks(False)
    ff_cycles, ff_ticks = count_ticks(True)
    assert ff_cycles == naive_cycles
    assert ff_ticks < naive_ticks * 0.8  # >20% of core ticks elided
