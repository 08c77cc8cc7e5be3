"""Fine-grained timing and misconfiguration tests."""

import pytest

from repro.common.config import (RunOptions, SystemConfig, ooo2_cluster,
                                 remap_cluster, remap_system, spl_config)
from repro.common.errors import SplError
from repro.common.stats import Stats
from repro.core.controller import SplClusterController
from repro.core.dfg import Dfg, DfgOp
from repro.core.function import SplFunction, identity_function
from repro.core.tables import BarrierBus
from repro.isa import Asm, MemoryImage, ThreadSpec
from repro.system.machine import Machine
from repro.system.workload import Workload


def _controller():
    config = spl_config()
    controller = SplClusterController(
        0, config, BarrierBus(config.barrier_bus_latency), Stats("spl"))
    for slot in range(4):
        controller.table.set_thread(slot, slot + 1, app_id=1)
    return controller


def _throughput(fn, use_second_beat: bool, count: int = 12) -> int:
    """Cycles for ``count`` back-to-back issues of ``fn``."""
    controller = _controller()
    controller.configure(0, 1, fn)
    port = controller.port(0)
    for i in range(count):
        port.stage_load(i, 0, 0)
        if use_second_beat:
            port.stage_load(i, 16, 0)
        assert port.init(1, 0)
    cycle = 0
    received = 0
    while received < count:
        controller.tick(cycle)
        if port.recv(cycle) is not None:
            received += 1
        cycle += 1
        assert cycle < 100_000
    return cycle


class TestBeatTiming:
    def test_two_beat_entries_halve_throughput(self):
        one_beat = identity_function("one", 1)
        g = Dfg("two")
        a = g.input("a", 0)
        b = g.input("b", 16)  # second beat
        g.output("o", g.add(a, b))
        two_beat = SplFunction(g)
        t1 = _throughput(one_beat, use_second_beat=False)
        t2 = _throughput(two_beat, use_second_beat=True)
        assert t2 > t1 * 1.5  # II doubles from 1 to 2 fabric cycles

    def test_stateful_feedback_limits_throughput(self):
        g = Dfg("acc")
        x = g.input("x", 0)
        d = g.delay()
        # A deep feedback path: mul chain before the state update.
        node = g.add(d, x)
        for _ in range(2):
            node = g.op(DfgOp.MUL, node, g.const(1))
        g.set_delay_source(d, node)
        g.output("o", node)
        stateful = SplFunction(g)
        assert stateful.feedback_ii > 2
        plain = identity_function("p", 1)
        assert _throughput(stateful, False) > _throughput(plain, False)


class TestOoo2Behaviour:
    def test_dual_retire(self):
        """OOO2 must retire two independent instructions per cycle."""
        image = MemoryImage()
        a = Asm("t")
        a.li("r1", 0)
        a.li("r2", 4000)
        a.label("loop")
        a.addi("r3", "r3", 1)
        a.addi("r4", "r4", 1)
        a.addi("r5", "r5", 1)
        a.addi("r1", "r1", 1)
        a.blt("r1", "r2", "loop")
        a.halt()
        machine = Machine(SystemConfig(clusters=[ooo2_cluster()]))
        machine.load(Workload("t", image, [ThreadSpec(a.assemble(), 1)],
                              placement=[0]))
        machine.run(options=RunOptions(max_cycles=500_000))
        stats = machine.stats.find("cpu0")
        assert stats.get("retired") / stats.get("cycles") > 1.5


class TestMisconfiguration:
    def test_unregistered_barrier_errors_at_init(self):
        from repro.core.function import barrier_token_function
        controller = _controller()
        controller.configure(0, 2, barrier_token_function(4), barrier_id=9)
        controller.port(0).stage_load(0, 0, 0)
        with pytest.raises(SplError):
            controller.port(0).init(2, 0)  # barrier 9 never registered

    def test_workload_level_unbound_config(self):
        """A program issuing an unbound config id dies loudly, not
        silently."""
        a = Asm("t")
        a.li("r1", 1)
        a.spl_load("r1", 0)
        a.spl_init(42)
        a.halt()
        machine = Machine(remap_system())
        machine.load(Workload("t", MemoryImage(),
                              [ThreadSpec(a.assemble(), 1)],
                              placement=[0]))
        with pytest.raises(SplError):
            machine.run(options=RunOptions(max_cycles=10_000))


class TestSplLoadVTiming:
    def test_line_crossing_vector_load_verifies(self):
        """A 16-byte beat straddling a cache line still stages correctly."""
        image = MemoryImage()
        base = image.alloc(64, align=32)
        values = [11, 22, 33, 44]
        for i, value in enumerate(values):
            image.write_word(base + 20 + 4 * i, value)  # offset 20: crosses
        out = image.alloc_zeroed(4)
        fn = identity_function("route4", 4)
        a = Asm("t")
        a.li("r1", base + 20)
        a.spl_loadv("r1", 0)
        a.spl_init(1)
        a.li("r2", out)
        for i in range(4):
            a.spl_store("r2", 4 * i)
        a.halt()
        machine = Machine(SystemConfig(clusters=[remap_cluster()]))
        machine.load(Workload(
            "t", image, [ThreadSpec(a.assemble(), 1)], placement=[0],
            setup=lambda m: m.configure_spl(0, 1, fn)))
        machine.run(options=RunOptions(max_cycles=100_000))
        assert machine.memory.read_words(out, 4) == values


class TestSubwordDifferential:
    def test_subword_and_fp_ops_match_interpreter(self):
        from repro.isa.interpreter import Interpreter
        from repro.mem.memory import MainMemory
        image = MemoryImage()
        buf = image.alloc(16)
        image.write_word(buf, 0x80FF7F01)
        out = image.alloc_zeroed(6)
        a = Asm("t")
        a.li("r1", buf)
        a.li("r9", out)
        a.lb("r2", "r1", 3)
        a.lhu("r3", "r1", 0)
        a.sb("r2", "r1", 4)
        a.sh("r3", "r1", 6)
        a.lw("r4", "r1", 4)
        a.sw("r2", "r9", 0)
        a.sw("r3", "r9", 4)
        a.sw("r4", "r9", 8)
        a.fadd("f1", "f1", "f2")
        a.fsw("f1", "r9", 12)
        a.flw("f3", "r9", 12)
        a.fmul("f3", "f3", "f3")
        a.fsw("f3", "r9", 16)
        a.halt()
        program = a.assemble()
        machine = Machine(SystemConfig(clusters=[remap_cluster()]))
        machine.load(Workload(
            "t", image,
            [ThreadSpec(program, 1, fp_regs={"f1": 1.25, "f2": 2.5})],
            placement=[0]))
        machine.run(options=RunOptions(max_cycles=100_000))
        memory = MainMemory()
        memory.load_image(image)
        interp = Interpreter(program, memory)
        interp.fp_regs[1], interp.fp_regs[2] = 1.25, 2.5
        interp.run()
        for word in set(machine.memory.words) | set(memory.words):
            assert machine.memory.words.get(word, 0) == \
                memory.words.get(word, 0)
