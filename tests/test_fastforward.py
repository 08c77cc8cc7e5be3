"""Cycle-exact equivalence of the fast scheduler and the naive loop.

The contract (DESIGN.md, "Scheduler contract"): for every workload the
fast scheduler (the compiled walk, with its elision and jumps) must
produce the *same simulation* as the naive per-cycle loop — identical
final cycle, identical retired-instruction count, identical stats down
to every counter, and an identical cycle-accounting profile.  These
tests sweep the full benchmark registry plus the paths with
scheduler-visible side effects: migration, the deadlock watchdog, and
the observability sinks.  The promise the elision rests on,
``next_event_cycle``, is checked directly against the naive loop.
"""

import pytest

from repro.common.config import (RunOptions, SystemConfig, ooo1_cluster,
                                 remap_cluster)
from repro.common.errors import DeadlockError
from repro.experiments.runner import execute
from repro.isa import Asm, MemoryImage, ThreadSpec
from repro.system.machine import Machine
from repro.system.workload import Workload
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
    ("ll2", "sw", {"n": 16, "passes": 2, "p": 4}),
    ("ll3", "sw", {"n": 64, "passes": 3, "p": 4}),
    ("ll3", "sw", {"n": 64, "passes": 2, "p": 16}),
    ("ll6", "sw", {"n": 16, "passes": 2, "p": 4}),
    ("dijkstra", "sw", {"n": 16, "p": 4}),
]

#: ``fast_forward`` of the two schedulers every exactness test compares:
#: the naive per-cycle loop and the default, the compiled walk.
_LEGS = (False, True)


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


def _run(bench, variant, kwargs, fast_forward):
    # Workload images are consumed by execution: build a fresh spec per run.
    spec = registry.REGISTRY[bench].variants[variant](**kwargs)
    return execute(spec, options=RunOptions(fast_forward=fast_forward))


@pytest.mark.parametrize(
    "bench,variant,kwargs", _registry_cases(),
    ids=lambda v: v if isinstance(v, str) else "")
def test_differential_sweep(bench, variant, kwargs):
    """Every registry bench x variant: the naive per-cycle loop and the
    fast scheduler (the default configuration) are the same simulation
    — identical final cycle and identical stats tree."""
    naive = _run(bench, variant, kwargs, fast_forward=False)
    fast = _run(bench, variant, kwargs, fast_forward=True)
    assert fast.cycles == naive.cycles
    assert _flat(fast.stats.as_dict()) == _flat(naive.stats.as_dict())


# ---------------------------------------------------------------- profiler


def _pe_cycles(machine):
    """Core-cycles the walk elided under periodic plans."""
    return sum(runner.pe_cycles for runner in machine._bg_runners.values())


def _profiled(bench, variant, kwargs, fast_forward, observe=True):
    """``(cycles, profiler rows, fused core-cycles, periodically elided
    core-cycles)`` of one run, under a ProfilerSink when ``observe``
    (rows None otherwise)."""
    from repro.obs.profile import ProfilerSink
    spec = registry.REGISTRY[bench].variants[variant](**kwargs)
    machine = Machine(spec.system)
    machine.load(spec.workload)
    sink = None
    if observe:
        sink = ProfilerSink()
        machine.obs.attach(sink, ProfilerSink.KINDS)
    cycles = machine.run(options=RunOptions(max_cycles=spec.max_cycles,
                                            fast_forward=fast_forward))
    rows = None
    if sink is not None:
        machine.finish_observation()
        accounting = sink.accounting()
        accounting.verify()  # spans exactly tile the ticked cycles
        rows = accounting.rows()
    return (cycles, rows, machine._bg_multi.fused_cycles,
            _pe_cycles(machine))


@pytest.mark.parametrize("bench,variant,kwargs", [
    ("ll3", "barrier", {"n": 64, "passes": 3, "p": 4}),
    ("dijkstra", "hwbar", {"n": 16, "p": 4}),
    ("hmmer", "compcomm", {"M": 48, "R": 2}),
    ("g721dec", "seq", {"items": 10}),
    ("ll2", "sw", {"n": 16, "passes": 2, "p": 4}),
    ("ll3", "sw", {"n": 64, "passes": 2, "p": 16}),
])
def test_profiler_identical_under_fast_forward(bench, variant, kwargs):
    """Cycle-accounting rows are bit-identical under both schedulers,
    and a profiler sink changes no scheduling decision of the walk: it
    fuses and periodically elides the same core-cycles as an unobserved
    run, single-thread (g721dec/seq) or multi-thread alike, and the
    software barriers' spinners (sw) are elided periodically."""
    naive, fast = (_profiled(bench, variant, kwargs, leg) for leg in _LEGS)
    assert fast[:2] == naive[:2]
    assert fast[2] > 0
    unobserved = _profiled(bench, variant, kwargs, True, observe=False)
    assert fast[2:] == unobserved[2:]
    if variant == "sw":
        assert fast[3] > 0


def _perfetto(bench, variant, kwargs, kinds, fast_forward):
    import json

    from repro.obs.perfetto import PerfettoSink
    spec = registry.REGISTRY[bench].variants[variant](**kwargs)
    machine = Machine(spec.system)
    machine.load(spec.workload)
    sink = PerfettoSink()
    machine.obs.attach(sink, kinds)
    machine.run(options=RunOptions(max_cycles=spec.max_cycles,
                                   fast_forward=fast_forward))
    machine.finish_observation()
    events = sorted(json.dumps(event, sort_keys=True)
                    for event in sink.trace_events)
    return events, machine._bg_multi.fused_cycles, _pe_cycles(machine)


def test_perfetto_events_identical_under_fast_forward():
    """Same Perfetto slices under both schedulers (order may differ:
    elided cores close their spans at credit time; 'X' events carry
    timestamps), and the sink keeps the compiled walk engaged whether
    it subscribes to the exporter's declared kinds or to everything,
    periodic spin elision (ll2/sw) included."""
    from repro.obs.perfetto import PERFETTO_KINDS
    for kinds in (PERFETTO_KINDS, None):
        for bench, variant, kwargs in (
                ("ll3", "barrier", {"n": 64, "passes": 3, "p": 4}),
                ("hmmer", "compcomm", {"M": 48, "R": 2}),
                ("ll2", "sw", {"n": 16, "passes": 2, "p": 4})):
            naive, fast = (_perfetto(bench, variant, kwargs, kinds, leg)
                           for leg in _LEGS)
            assert fast[0] == naive[0], (bench, variant, kinds)
            assert fast[1] > 0, (bench, variant, kinds)
            if variant == "sw":
                assert fast[2] > 0, (bench, variant, kinds)


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


def _fence_workload(n):
    """``li; addi x n; fence; halt`` on one core."""
    a = Asm(f"fence{n}")
    a.li("r1", 0)
    for _ in range(n):
        a.addi("r1", "r1", 1)
    a.fence()
    a.halt()
    return Workload("w", MemoryImage(), [ThreadSpec(a.assemble(), 1)],
                    placement=[0])


def _fence_run(n, fast_forward):
    machine = Machine(SystemConfig(clusters=[ooo1_cluster()]))
    machine.load(_fence_workload(n))
    return machine.run(options=RunOptions(max_cycles=100_000,
                                          fast_forward=fast_forward))


def test_drained_fence_at_head_wakes_next_cycle():
    """A FENCE at the ROB head with ready operands and an empty store
    buffer retires next cycle, so ``next_event_cycle`` must not report
    it as externally woken: with nothing else pending, an elided core
    would never wake."""
    for n in range(60):
        naive, fast = (_fence_run(n, leg) for leg in _LEGS)
        assert fast == naive, n


# ------------------------------------------------- next_event_cycle contract


def _broken_promises(machine, max_cycles, monkeypatch):
    """Run ``machine`` on the naive loop, checking every promise its
    cores' ``next_event_cycle`` makes; returns the broken ones as
    ``(core, cycle promised at, cycle promised until)``.

    At the top of each cycle ``c``, a running core with no promise
    pending is asked for ``t = next_event_cycle(c - 1)``.  A ``t`` after
    ``c`` promises that every tick up to ``t`` leaves the core's state
    unchanged; None promises it until a poke.  A poke voids the promise
    (the naive loop ignores ``ff_poke`` on live cores, so reading and
    clearing it here changes nothing).  The state is the core's
    ``snapshot_state`` without the poke and span fields, plus its
    context's; the predictor's counter tables stand in by their
    versions, which every write bumps (copying the tables every cycle
    would make the check far slower).
    """
    from repro.cpu.branch import HybridPredictor

    def predictor_state(predictor):
        return (predictor.table_versions(), predictor.history,
                list(predictor.btb), list(predictor.ras))

    monkeypatch.setattr(HybridPredictor, "snapshot_state", predictor_state)

    def state(core):
        record = core.snapshot_state()
        for key in ("last_tick", "ff_poke", "span_class", "span_start"):
            del record[key]
        return record, core.ctx.snapshot_state()

    promises = {}
    broken = []

    def check():
        cycle = machine.cycle
        for core in machine.cores:
            if core.ctx is None:
                continue
            if core.ff_poke:
                core.ff_poke = False
                promises.pop(core.index, None)
            promise = promises.get(core.index)
            if promise is not None:
                saved, made, until = promise
                if state(core) != saved:
                    broken.append((core.index, made, until))
                elif until is None or cycle < until:
                    continue
                del promises[core.index]
            if core.halted:
                continue
            until = core.next_event_cycle(cycle - 1)
            if until is None or until > cycle:
                promises[core.index] = (state(core), cycle, until)
        return False

    machine.run(options=RunOptions(max_cycles=max_cycles, until=check))
    return broken


def test_next_event_cycle_promises_hold_on_fences(monkeypatch):
    """A drained FENCE at the ROB head retires next cycle: no promise
    may outlast it (``li; addi x n; fence; halt``, n = 0..59)."""
    for n in range(60):
        machine = Machine(SystemConfig(clusters=[ooo1_cluster()]))
        machine.load(_fence_workload(n))
        assert _broken_promises(machine, 100_000, monkeypatch) == [], n


@pytest.mark.parametrize("bench,variant,kwargs", [
    ("ll2", "sw", {"n": 16, "passes": 2, "p": 4}),
    ("hmmer", "compcomm", {"M": 48, "R": 2}),
])
def test_next_event_cycle_promises_hold(bench, variant, kwargs,
                                        monkeypatch):
    """Software barriers (AMOs, FENCEs, sense-loop spins) and SPL
    streaming (parked ``spl_recv``, deliveries): every quiescence
    promise holds tick by tick on the naive loop."""
    spec = registry.REGISTRY[bench].variants[variant](**kwargs)
    machine = Machine(spec.system)
    machine.load(spec.workload)
    assert _broken_promises(machine, spec.max_cycles, monkeypatch) == []


# ------------------------------------------------------------ escape hatch


def test_no_fastforward_env_forces_naive_loop(monkeypatch):
    """REPRO_NO_FASTFORWARD=1 must keep the scheduler off the fast path."""
    monkeypatch.setenv("REPRO_NO_FASTFORWARD", "1")

    def boom(self, start, end):
        raise AssertionError("the walk ran despite the escape hatch")

    monkeypatch.setattr(Machine, "_walk", boom)
    result = _run("g721dec", "seq", {"items": 4}, fast_forward=None)
    assert result.cycles > 0


def test_blockgen_engages_by_default(monkeypatch):
    """The compiled walk is on by default for compute-bound runs."""
    walks = [0]
    original = Machine._walk

    def counting(self, start, end):
        walks[0] += 1
        return original(self, start, end)

    monkeypatch.setattr(Machine, "_walk", counting)
    result = _run("g721dec", "seq", {"items": 4}, fast_forward=None)
    assert result.cycles > 0
    assert walks[0] > 0


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
