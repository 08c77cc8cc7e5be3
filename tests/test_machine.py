"""System-level tests: machine assembly, migration, SPL integration,
snoop routing and object ownership."""

import gc
import weakref

import pytest

from repro.analysis import compute_bounds, lint_spec
from repro.baselines.comm_network import CommPort, DedicatedCommController
from repro.common.config import (RunOptions, SystemConfig, ooo1_cluster,
                                 ooo2_cluster, remap_cluster, remap_system)
from repro.common.errors import ConfigError, SimulationError
from repro.core.controller import CoreSplPort, SplClusterController
from repro.core.function import identity_function
from repro.core.manager import FabricManager
from repro.cpu.blockgen import BlockRunner, MultiBlockRunner
from repro.cpu.pipeline import OutOfOrderCore
from repro.experiments.engine import ExperimentEngine, request
from repro.experiments.runner import execute, finalize
from repro.isa import Asm, MemoryImage, ThreadSpec
from repro.mem.hierarchy import CoherentMemorySystem, _CorePort
from repro.obs.perfetto import PERFETTO_KINDS, PerfettoSink
from repro.obs.profile import ProfilerSink
from repro.system.machine import Machine
from repro.system.workload import Workload
from repro.workloads import registry


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


class TestMachineAssembly:
    def test_clusters_and_ports(self):
        machine = Machine(remap_system())
        assert len(machine.cores) == 8
        assert machine.clusters[0].controller is not None
        assert machine.clusters[1].controller is None
        for index in range(4):
            assert machine.cores[index].spl_port is not None
        for index in range(4, 8):
            assert machine.cores[index].spl_port is None

    def test_core_slot_lookup(self):
        machine = Machine(remap_system())
        cluster, slot = machine.core_slot(5)
        assert cluster.index == 1 and slot == 1
        with pytest.raises(ConfigError):
            machine.core_slot(99)

    def test_configure_spl_on_conventional_rejected(self):
        machine = Machine(remap_system())
        with pytest.raises(ConfigError):
            machine.configure_spl(5, 1, identity_function())

    def test_placement_validation(self):
        image = MemoryImage()
        program = _counting_program(5, image.alloc_zeroed(1))
        with pytest.raises(Exception):
            Workload("w", image, [ThreadSpec(program, 1),
                                  ThreadSpec(program, 2)],
                     placement=[0, 0])


class TestExecution:
    def test_two_threads_finish(self):
        image = MemoryImage()
        out_a = image.alloc_zeroed(1)
        out_b = image.alloc_zeroed(1)
        workload = Workload(
            "w", image,
            [ThreadSpec(_counting_program(50, out_a, 1), 1),
             ThreadSpec(_counting_program(80, out_b, 2), 2)],
            placement=[0, 1])
        machine = Machine(SystemConfig(clusters=[ooo1_cluster()]))
        machine.load(workload)
        machine.run(options=RunOptions(max_cycles=100_000))
        assert machine.finished()
        assert machine.memory.read_word_signed(out_a) == 50
        assert machine.memory.read_word_signed(out_b) == 80
        assert machine.total_retired() > 0

    def test_run_until_predicate(self):
        image = MemoryImage()
        out = image.alloc_zeroed(1)
        workload = Workload("w", image,
                            [ThreadSpec(_counting_program(10_000, out), 1)],
                            placement=[0])
        machine = Machine(SystemConfig(clusters=[ooo1_cluster()]))
        machine.load(workload)
        machine.run(options=RunOptions(
            max_cycles=1_000_000, until=lambda: machine.cycle >= 500))
        assert 500 <= machine.cycle < 600

    def test_cycle_limit_raises(self):
        image = MemoryImage()
        out = image.alloc_zeroed(1)
        workload = Workload("w", image,
                            [ThreadSpec(_counting_program(100_000, out), 1)],
                            placement=[0])
        machine = Machine(SystemConfig(clusters=[ooo1_cluster()]))
        machine.load(workload)
        with pytest.raises(SimulationError):
            machine.run(options=RunOptions(max_cycles=1_000))


class TestMigration:
    def test_migrate_preserves_state(self):
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
        machine.migrate(1, dest_core=4)
        assert machine.thread_core[1] == 4
        machine.run(options=RunOptions(max_cycles=5_000_000))
        assert machine.memory.read_word_signed(out) == 40_000
        assert machine.stats.get("migrations") == 1

    def test_migrate_to_occupied_core_rejected(self):
        image = MemoryImage()
        out_a = image.alloc_zeroed(1)
        out_b = image.alloc_zeroed(1)
        workload = Workload(
            "w", image,
            [ThreadSpec(_counting_program(100_000, out_a, 1), 1),
             ThreadSpec(_counting_program(100_000, out_b, 2), 2)],
            placement=[0, 1])
        machine = Machine(SystemConfig(clusters=[ooo1_cluster()]))
        machine.load(workload)
        with pytest.raises(SimulationError):
            machine.migrate(1, dest_core=1)

    def test_migration_charges_switch_cycles(self):
        image = MemoryImage()
        out = image.alloc_zeroed(1)
        workload = Workload("w", image,
                            [ThreadSpec(_counting_program(10, out), 1)],
                            placement=[0])
        machine = Machine(SystemConfig(clusters=[ooo1_cluster()]))
        machine.load(workload)
        machine.run(options=RunOptions(max_cycles=100_000))
        baseline = machine.cycle

        image2 = MemoryImage()
        out2 = image2.alloc_zeroed(1)
        workload2 = Workload("w2", image2,
                             [ThreadSpec(_counting_program(10, out2), 1)],
                             placement=[0])
        machine2 = Machine(SystemConfig(clusters=[ooo1_cluster()]))
        machine2.load(workload2)
        machine2.run(options=RunOptions(
            max_cycles=1_000, until=lambda: machine2.cycle >= 20))
        machine2.migrate(1, dest_core=1)
        machine2.run(options=RunOptions(max_cycles=100_000))
        # The migrated run pays the drain + 500-cycle context switch.
        assert machine2.cycle >= baseline + 400


class TestSplIntegration:
    def test_switch_out_blocked_by_in_flight(self):
        """A consumer with fabric results in flight cannot be migrated
        until the data is delivered (Section II-B1)."""
        image = MemoryImage()
        out = image.alloc_zeroed(1)
        producer = Asm("prod")
        producer.li("r1", 123)
        producer.spl_load("r1", 0)
        producer.spl_init(1)
        producer.halt()
        consumer = Asm("cons")
        consumer.spl_recv("r1")
        consumer.li("r2", out)
        consumer.sw("r1", "r2", 0)
        consumer.halt()
        workload = Workload(
            "w", image,
            [ThreadSpec(producer.assemble(), 1),
             ThreadSpec(consumer.assemble(), 2)],
            placement=[0, 1],
            setup=lambda m: m.configure_spl(0, 1, identity_function(),
                                            dest_thread=2))
        system = SystemConfig(clusters=[remap_cluster(), ooo1_cluster()])
        machine = Machine(system)
        machine.load(workload)
        machine.run(options=RunOptions(max_cycles=100_000))
        assert machine.memory.read_word_signed(out) == 123


# -- snoop routing ---------------------------------------------------------


@pytest.mark.parametrize("fast_forward", [False, True],
                         ids=["naive", "walk"])
def test_snoop_invalidation_reaches_only_its_core(monkeypatch,
                                                  fast_forward):
    """Each line a snoop drops from a hierarchy calls the hook of the
    core on that hierarchy, once, and no other core's.  The walk may
    call the hook again later, outside the snoop, to replay a line it
    deferred; the naive loop never does."""
    reached = []
    drops = []
    drop = CoherentMemorySystem._drop
    hook = OutOfOrderCore._on_invalidation

    def counting_drop(self, port, line):
        mark = len(reached)
        drop(self, port, line)
        drops.append((port.index, reached[mark:]))

    def counting_hook(self, line):
        reached.append(self.index)
        hook(self, line)

    monkeypatch.setattr(CoherentMemorySystem, "_drop", counting_drop)
    monkeypatch.setattr(OutOfOrderCore, "_on_invalidation", counting_hook)
    spec = registry.REGISTRY["ll2"].variants["sw"](n=16, passes=2, p=4)
    execute(spec, options=RunOptions(fast_forward=fast_forward))
    assert len({index for index, _ in drops}) > 1
    assert all(cores == [index] for index, cores in drops)
    if not fast_forward:
        assert len(reached) == len(drops)


# -- object ownership ------------------------------------------------------

#: What a machine owns.  None of it may be left to the cyclic collector:
#: every back-reference in the machine's object graph is non-owning
#: (DESIGN.md §3), so a finished machine is freed by reference counting.
_OWNED = (Machine, OutOfOrderCore, CoherentMemorySystem, _CorePort,
          SplClusterController, CoreSplPort, DedicatedCommController,
          CommPort, FabricManager, MultiBlockRunner, BlockRunner)


def _assert_freed_by_refcount(monkeypatch, action):
    """Run ``action`` with the cyclic collector off; every Machine it
    builds must be dead when it returns, and a collection afterwards
    must find no object a machine owns."""
    built = []
    init = Machine.__init__

    def tracking_init(self, config):
        init(self, config)
        built.append(weakref.ref(self))

    monkeypatch.setattr(Machine, "__init__", tracking_init)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        action()
        alive = sum(1 for ref in built if ref() is not None)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        left = sorted({type(obj).__name__ for obj in gc.garbage
                       if isinstance(obj, _OWNED)})
    finally:
        gc.set_debug(0)
        del gc.garbage[:]
        if enabled:
            gc.enable()
    assert built, "no machine was built"
    assert not alive, f"{alive} of {len(built)} machines outlived " \
        f"their last reference"
    assert not left, f"left to the cyclic collector: {left}"


#: One small spec per wiring: a lone core, the SPL fabric, the dedicated
#: network, software queues, and the four barrier flavours.
_WIRINGS = [
    ("g721dec", "seq", {"items": 10}),
    ("g721dec", "seq_ooo2", {"items": 10}),
    ("g721dec", "spl", {"items": 10}),
    ("wc", "comm", {"items": 64}),
    ("wc", "compcomm", {"items": 64}),
    ("wc", "ooo2comm", {"items": 64}),
    ("wc", "swqueue", {"items": 64}),
    ("ll2", "sw", {"n": 16, "passes": 2, "p": 4}),
    ("ll2", "barrier", {"n": 16, "passes": 2, "p": 4}),
    ("ll3", "barrier_comp", {"n": 64, "passes": 3, "p": 8}),
    ("ll2", "hwbar", {"n": 16, "passes": 2, "p": 4}),
]


def _spec(bench, variant, kwargs):
    return registry.REGISTRY[bench].variants[variant](**kwargs)


class TestOwnership:
    @pytest.mark.parametrize("bench,variant,kwargs", _WIRINGS,
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_run_machine_freed(self, monkeypatch, bench, variant, kwargs):
        _assert_freed_by_refcount(
            monkeypatch, lambda: execute(_spec(bench, variant, kwargs)))

    def test_managed_fabric_machine_freed(self, monkeypatch):
        from repro.experiments.ablations import manager_spec
        _assert_freed_by_refcount(
            monkeypatch, lambda: execute(manager_spec(n=32, managed=True)))

    @pytest.mark.parametrize("sink_type,kinds",
                             [(ProfilerSink, ProfilerSink.KINDS),
                              (PerfettoSink, PERFETTO_KINDS)],
                             ids=["profiler", "perfetto"])
    def test_observed_machine_freed(self, monkeypatch, sink_type, kinds):
        sink = sink_type()

        def observed():
            spec = _spec("ll2", "barrier", {"n": 16, "passes": 2, "p": 4})
            machine = Machine(spec.system)
            machine.obs.attach(sink, kinds=kinds)
            machine.load(spec.workload)
            cycles = machine.run(
                options=RunOptions(max_cycles=spec.max_cycles))
            finalize(machine, spec, cycles)

        _assert_freed_by_refcount(monkeypatch, observed)

    def test_restored_machine_freed(self, monkeypatch):
        def paused_and_restored():
            kwargs = {"n": 16, "passes": 2, "p": 4}
            spec = _spec("ll2", "barrier", kwargs)
            paused = Machine(spec.system)
            paused.load(spec.workload)
            paused.run(options=RunOptions(pause_at=500))
            state = paused.snapshot()
            spec = _spec("ll2", "barrier", kwargs)
            restored = Machine(spec.system)
            restored.load(spec.workload)
            restored.restore(state)
            cycles = restored.run(
                options=RunOptions(max_cycles=spec.max_cycles))
            finalize(restored, spec, cycles)

        _assert_freed_by_refcount(monkeypatch, paused_and_restored)

    def test_analysis_machines_freed(self, monkeypatch):
        def analysed():
            spec = _spec("ll3", "barrier_comp",
                         {"n": 64, "passes": 3, "p": 8})
            lint_spec(spec)
            compute_bounds(spec)

        _assert_freed_by_refcount(monkeypatch, analysed)

    def test_engine_machines_freed(self, monkeypatch, tmp_path):
        def cold_batch():
            engine = ExperimentEngine(jobs=1, use_cache=True,
                                      cache_dir=tmp_path, lint=True)
            engine.run_batch([request("wc", "spl", items=64),
                              request("ll2", "sw", n=16, passes=2, p=4)])

        _assert_freed_by_refcount(monkeypatch, cold_batch)


class TestCollectorPolicy:
    """``Machine.run`` keeps the cyclic collector off for the whole run
    and gives the caller back its own setting (DESIGN.md §3)."""

    @staticmethod
    def _machine(p=4, sink=None):
        spec = _spec("ll2", "sw", {"n": 16, "passes": 1, "p": p})
        machine = Machine(spec.system)
        if sink is not None:
            machine.obs.attach(sink)
        machine.load(spec.workload)
        return machine, spec

    @pytest.fixture
    def collector(self):
        enabled = gc.isenabled()
        yield
        if enabled:
            gc.enable()
        else:
            gc.disable()

    @pytest.mark.parametrize("fast_forward", [True, False],
                             ids=["walk", "naive"])
    @pytest.mark.parametrize("enabled", [True, False],
                             ids=["enabled", "disabled"])
    def test_caller_setting_restored(self, collector, enabled,
                                     fast_forward):
        (gc.enable if enabled else gc.disable)()
        machine, spec = self._machine()
        machine.run(options=RunOptions(max_cycles=spec.max_cycles,
                                       fast_forward=fast_forward))
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("fast_forward", [True, False],
                             ids=["walk", "naive"])
    def test_restored_when_the_run_raises(self, collector, fast_forward):
        gc.enable()
        machine, _ = self._machine()
        with pytest.raises(SimulationError):
            machine.run(options=RunOptions(max_cycles=100,
                                           fast_forward=fast_forward))
        assert gc.isenabled()

    def test_sink_sees_the_collector_off(self, collector):
        from repro.obs.bus import Sink

        class CollectorProbe(Sink):
            def __init__(self):
                self.seen = set()

            def accept(self, event):
                self.seen.add(gc.isenabled())

        gc.enable()
        probe = CollectorProbe()
        machine, spec = self._machine(sink=probe)
        machine.run(options=RunOptions(max_cycles=spec.max_cycles))
        assert probe.seen == {False}
        assert gc.isenabled()

    def test_run_leaves_nothing_for_the_collector(self, collector):
        gc.enable()
        machine, spec = self._machine(p=8)
        gc.collect()
        machine.run(options=RunOptions(max_cycles=spec.max_cycles))
        assert gc.collect() == 0
