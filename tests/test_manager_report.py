"""Tests for the dynamic fabric manager, machine reports, and ASCII plots."""

import json

from repro.common.config import RunOptions, remap_system
from repro.core.compile import compile_expression
from repro.core.manager import FabricManager, attach_fabric_manager
from repro.experiments.plots import ascii_plot
from repro.isa import Asm, MemoryImage, ThreadSpec
from repro.system.machine import Machine
from repro.system.workload import Workload
from repro.system.report import core_summary, fabric_summary, machine_report


def _stream_program(name, src, dst, n, config):
    a = Asm(name)
    a.li("r1", src)
    a.li("r2", dst)
    a.li("r3", 0)
    a.li("r4", n)
    a.label("loop")
    a.spl_loadm("r1", 0)
    a.spl_init(config)
    a.spl_recv("r5")
    a.sw("r5", "r2", 0)
    a.addi("r1", "r1", 4)
    a.addi("r2", "r2", 4)
    a.addi("r3", "r3", 1)
    a.blt("r3", "r4", "loop")
    a.halt()
    return a.assemble()


def _mixed_function_workload(n=96):
    """Four threads, two different fabric functions (thrash-prone)."""
    image = MemoryImage()
    fn_a = compile_expression("o = x * 3 + 1;", inputs={"x": 0}, name="fa")
    fn_b = compile_expression("o = max(x, -x) - 2;", inputs={"x": 0},
                              name="fb")
    sources, dests, expected = [], [], []
    for tid in range(4):
        values = [(tid * 11 + i * 7) % 300 - 150 for i in range(n)]
        sources.append(image.alloc_words(values))
        dests.append(image.alloc_zeroed(n))
        if tid % 2 == 0:
            expected.append([v * 3 + 1 for v in values])
        else:
            expected.append([abs(v) - 2 for v in values])

    def setup(machine):
        for core in range(4):
            machine.configure_spl(core, 1, fn_a if core % 2 == 0 else fn_b)

    threads = [ThreadSpec(_stream_program(f"t{t}", sources[t], dests[t],
                                          n, 1), thread_id=t + 1)
               for t in range(4)]
    workload = Workload("mixed", image, threads, placement=[0, 1, 2, 3],
                        setup=setup)
    return workload, dests, expected


class TestFabricManager:
    def _run(self, managed, n=96, interval=512):
        workload, dests, expected = _mixed_function_workload(n)
        machine = Machine(remap_system())
        machine.load(workload)
        if managed:
            attach_fabric_manager(machine, 0, interval=interval)
        cycles = machine.run(options=RunOptions(max_cycles=3_000_000))
        for dst, exp in zip(dests, expected):
            assert machine.memory.read_words(dst, n) == exp
        return machine, cycles

    def test_manager_repartitions_mixed_demand(self):
        machine, _ = self._run(managed=True)
        assert machine.stats.find("mgr0").get("repartitions") >= 1
        controller = machine.clusters[0].controller
        assert len(controller.partitions) >= 2

    def test_manager_reduces_reconfiguration_thrash(self):
        unmanaged, cycles_static = self._run(managed=False)
        managed, cycles_managed = self._run(managed=True)
        static_reconfigs = unmanaged.stats.find("spl0").get(
            "reconfigurations")
        managed_reconfigs = managed.stats.find("spl0").get(
            "reconfigurations")
        assert managed_reconfigs < static_reconfigs
        assert cycles_managed < cycles_static

    def _managed(self, interval):
        workload, dests, expected = _mixed_function_workload()
        machine = Machine(remap_system())
        machine.load(workload)
        attach_fabric_manager(machine, 0, interval=interval)
        return machine, dests, expected

    def test_managed_run_takes_the_walk(self):
        """The manager bounds its events (``next_event_cycle``), so a
        managed run takes the compiled walk and matches the naive loop:
        same cycles, stats and memory."""
        for interval in (256, 512):
            runs = []
            for fast in (False, True):
                machine, dests, expected = self._managed(interval)
                cycles = machine.run(options=RunOptions(
                    max_cycles=3_000_000, fast_forward=fast))
                for dst, exp in zip(dests, expected):
                    assert machine.memory.read_words(dst, 96) == exp
                runs.append((cycles, machine.stats.as_dict(),
                             machine.memory.snapshot_state(), machine))
            naive, fused = runs
            assert fused[:3] == naive[:3]
            assert fused[3]._bg_multi.fused_cycles > 0

    def test_managed_machine_snapshot_roundtrip(self):
        """A managed machine paused, snapshotted through JSON, restored
        and continued equals the never-paused run, before and after the
        manager's repartitions."""
        full, _, _ = self._managed(256)
        total = full.run(options=RunOptions(max_cycles=3_000_000))
        assert full.stats.find("mgr0").get("repartitions") >= 1
        for pause in (300, 1000, 2500, 4000, 6000):
            assert pause < total
            paused, _, _ = self._managed(256)
            paused.run(options=RunOptions(pause_at=pause))
            assert paused.cycle == pause
            state = json.loads(json.dumps(paused.snapshot()))
            restored, dests, expected = self._managed(256)
            restored.restore(state)
            assert restored.run(
                options=RunOptions(max_cycles=3_000_000)) == total
            assert restored.stats.as_dict() == full.stats.as_dict()
            for dst, exp in zip(dests, expected):
                assert restored.memory.read_words(dst, 96) == exp

    def test_homogeneous_demand_keeps_shared_fabric(self):
        """All four threads on one function: the manager must not split."""
        image = MemoryImage()
        fn = compile_expression("o = x + 5;", inputs={"x": 0})
        n = 64
        dests = []
        threads = []
        for tid in range(4):
            values = list(range(n))
            src = image.alloc_words(values)
            dst = image.alloc_zeroed(n)
            dests.append(dst)
            threads.append(ThreadSpec(
                _stream_program(f"t{tid}", src, dst, n, 1),
                thread_id=tid + 1))
        workload = Workload(
            "homog", image, threads, placement=[0, 1, 2, 3],
            setup=lambda m: [m.configure_spl(c, 1, fn) for c in range(4)])
        machine = Machine(remap_system())
        machine.load(workload)
        attach_fabric_manager(machine, 0, interval=256)
        machine.run(options=RunOptions(max_cycles=3_000_000))
        assert len(machine.clusters[0].controller.partitions) == 1


class TestReports:
    def _machine(self):
        workload, dests, expected = _mixed_function_workload(n=32)
        machine = Machine(remap_system())
        machine.load(workload)
        machine.run(options=RunOptions(max_cycles=3_000_000))
        return machine

    def test_core_summary(self):
        machine = self._machine()
        summary = core_summary(machine, 0)
        assert 0 < summary["ipc"] <= 2
        assert 0 <= summary["branch_accuracy"] <= 1
        assert "l1d_hit_rate" in summary

    def test_fabric_summary(self):
        machine = self._machine()
        summary = fabric_summary(machine, 0)
        assert summary["issues"] == 4 * 32
        assert 0 < summary["row_utilization"] <= 1

    def test_machine_report_text(self):
        machine = self._machine()
        text = machine_report(machine)
        assert "IPC" in text and "spl 0" in text

    def test_idle_core_skipped(self):
        machine = self._machine()
        assert core_summary(machine, 7) is None


class TestAsciiPlot:
    def test_plot_renders_all_series(self):
        series = {"sizes": [8, 16, 32],
                  "Seq": [100.0, 200.0, 400.0],
                  "Barrier-p8": [50.0, 60.0, 80.0]}
        text = ascii_plot(series)
        assert "S = Seq" in text and "w = Barrier-p8" in text
        assert "8" in text and "32" in text

    def test_log_and_linear(self):
        series = {"sizes": [1, 2], "a": [1.0, 1000.0]}
        assert ascii_plot(series, log_y=True) != \
            ascii_plot(series, log_y=False)

    def test_empty(self):
        assert "nothing" in ascii_plot({"sizes": [1], "a": [None]})
