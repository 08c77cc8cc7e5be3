"""Integration tests of the out-of-order pipeline via small programs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import (RunOptions, SystemConfig, ooo1_cluster,
                                 ooo2_cluster)
from repro.common.errors import DeadlockError, SimulationError
from repro.cpu.exec import alu, branch_taken
from repro.isa import Asm, MemoryImage, Op, ThreadSpec
from repro.system import Machine, Workload


def run_program(asm, image=None, regs=None, system=None, max_cycles=500_000):
    image = image or MemoryImage()
    workload = Workload("t", image,
                        [ThreadSpec(asm.assemble(), thread_id=1,
                                    int_regs=regs or {})],
                        placement=[0])
    machine = Machine(system or SystemConfig(clusters=[ooo1_cluster()]))
    machine.load(workload)
    cycles = machine.run(options=RunOptions(max_cycles=max_cycles))
    return machine, cycles


class TestArithmetic:
    def test_alu_chain(self):
        image = MemoryImage()
        out = image.alloc_zeroed(1)
        a = Asm("t")
        a.li("r1", 10)
        a.li("r2", 3)
        a.mul("r3", "r1", "r2")     # 30
        a.div("r4", "r3", "r2")     # 10
        a.rem("r5", "r3", "r1")     # 0
        a.sub("r6", "r3", "r4")     # 20
        a.li("r7", out)
        a.sw("r6", "r7", 0)
        a.halt()
        machine, _ = run_program(a, image)
        assert machine.memory.read_word_signed(out) == 20

    def test_negative_division_truncates(self):
        image = MemoryImage()
        out = image.alloc_zeroed(2)
        a = Asm("t")
        a.li("r1", -7)
        a.li("r2", 2)
        a.div("r3", "r1", "r2")
        a.rem("r4", "r1", "r2")
        a.li("r5", out)
        a.sw("r3", "r5", 0)
        a.sw("r4", "r5", 4)
        a.halt()
        machine, _ = run_program(a, image)
        assert machine.memory.read_words(out, 2) == [-3, -1]

    def test_shift_ops(self):
        image = MemoryImage()
        out = image.alloc_zeroed(3)
        a = Asm("t")
        a.li("r1", -8)
        a.srai("r2", "r1", 1)     # -4
        a.srli("r3", "r1", 28)    # 15
        a.slli("r4", "r1", 1)     # -16
        a.li("r5", out)
        a.sw("r2", "r5", 0)
        a.sw("r3", "r5", 4)
        a.sw("r4", "r5", 8)
        a.halt()
        machine, _ = run_program(a, image)
        assert machine.memory.read_words(out, 3) == [-4, 15, -16]

    def test_fp_ops(self):
        image = MemoryImage()
        out = image.alloc_zeroed(1)
        a = Asm("t")
        a.li("r9", out)
        a.fadd("f3", "f1", "f2")
        a.fmul("f4", "f3", "f3")
        a.fsw("f4", "r9", 0)
        a.fslt("r1", "f1", "f2")
        a.sw("r1", "r9", 0)  # overwrite: f1 < f2 -> 1
        a.halt()
        workload = Workload("t", image,
                            [ThreadSpec(a.assemble(), thread_id=1,
                                        fp_regs={"f1": 1.5, "f2": 2.5})],
                            placement=[0])
        machine = Machine(SystemConfig(clusters=[ooo1_cluster()]))
        machine.load(workload)
        machine.run(options=RunOptions(max_cycles=100_000))
        assert machine.memory.read_word_signed(out) == 1


class TestMemoryOps:
    def test_store_to_load_forwarding(self):
        image = MemoryImage()
        buf = image.alloc_zeroed(1)
        out = image.alloc_zeroed(1)
        a = Asm("t")
        # A slow divide chain keeps the ROB head busy so the store cannot
        # retire before the load issues — the load must forward.
        a.li("r8", 1000)
        a.li("r9", 3)
        a.div("r8", "r8", "r9")
        a.div("r8", "r8", "r9")
        a.li("r1", buf)
        a.li("r2", 42)
        a.sw("r2", "r1", 0)
        a.lw("r3", "r1", 0)   # should forward 42
        a.li("r4", out)
        a.sw("r3", "r4", 0)
        a.halt()
        machine, _ = run_program(a, image)
        assert machine.memory.read_word_signed(out) == 42
        assert machine.stats.find("cpu0").get("load_forwards") >= 1

    def test_subword_loads(self):
        image = MemoryImage()
        src = image.alloc_words([0])
        image.write_word(src, 0x80FF7F01)
        out = image.alloc_zeroed(4)
        a = Asm("t")
        a.li("r1", src)
        a.li("r9", out)
        a.lb("r2", "r1", 1)    # 0x7F = 127
        a.lbu("r3", "r1", 3)   # 0x80 = 128
        a.lh("r4", "r1", 2)    # 0x80FF = -32513
        a.lhu("r5", "r1", 0)   # 0x7F01
        a.sw("r2", "r9", 0)
        a.sw("r3", "r9", 4)
        a.sw("r4", "r9", 8)
        a.sw("r5", "r9", 12)
        a.halt()
        machine, _ = run_program(a, image)
        assert machine.memory.read_words(out, 4) == \
            [127, 128, -32513, 0x7F01]

    def test_amo_add_returns_old(self):
        image = MemoryImage()
        counter = image.alloc_words([10])
        out = image.alloc_zeroed(1)
        a = Asm("t")
        a.li("r1", counter)
        a.li("r2", 5)
        a.amo_add("r3", "r1", "r2")
        a.li("r4", out)
        a.sw("r3", "r4", 0)
        a.halt()
        machine, _ = run_program(a, image)
        assert machine.memory.read_word_signed(out) == 10
        assert machine.memory.read_word_signed(counter) == 15

    def test_amo_atomicity_two_cores(self):
        image = MemoryImage()
        counter = image.alloc_words([0])
        n = 50

        def prog():
            a = Asm("inc")
            a.li("r1", counter)
            a.li("r2", 1)
            a.li("r3", 0)
            a.li("r4", n)
            a.label("loop")
            a.amo_add("r5", "r1", "r2")
            a.addi("r3", "r3", 1)
            a.blt("r3", "r4", "loop")
            a.halt()
            return a.assemble()

        workload = Workload("t", image,
                            [ThreadSpec(prog(), 1), ThreadSpec(prog(), 2)],
                            placement=[0, 1])
        machine = Machine(SystemConfig(clusters=[ooo1_cluster()]))
        machine.load(workload)
        machine.run(options=RunOptions(max_cycles=500_000))
        assert machine.memory.read_word_signed(counter) == 2 * n

    def test_fence_waits_for_stores(self):
        image = MemoryImage()
        out = image.alloc_zeroed(1)
        a = Asm("t")
        a.li("r1", out)
        a.li("r2", 9)
        a.sw("r2", "r1", 0)
        a.fence()
        a.halt()
        machine, _ = run_program(a, image)
        assert machine.memory.read_word_signed(out) == 9


class TestControlFlow:
    def test_loop_and_branches(self):
        image = MemoryImage()
        out = image.alloc_zeroed(1)
        a = Asm("t")
        a.li("r1", 0)
        a.li("r2", 100)
        a.li("r3", 0)
        a.label("loop")
        a.add("r3", "r3", "r1")
        a.addi("r1", "r1", 1)
        a.blt("r1", "r2", "loop")
        a.li("r4", out)
        a.sw("r3", "r4", 0)
        a.halt()
        machine, _ = run_program(a, image)
        assert machine.memory.read_word_signed(out) == sum(range(100))

    def test_data_dependent_branches(self):
        """Unpredictable branches must still give correct results."""
        image = MemoryImage()
        values = [(i * 2654435761) % 97 - 48 for i in range(60)]
        arr = image.alloc_words(values)
        out = image.alloc_zeroed(1)
        a = Asm("t")
        a.li("r1", arr)
        a.li("r2", 0)
        a.li("r3", len(values))
        a.li("r4", 0)
        a.label("loop")
        a.lw("r5", "r1", 0)
        skip = a.fresh_label("skip")
        a.blt("r5", "r0", skip)
        a.add("r4", "r4", "r5")   # only sum non-negatives
        a.label(skip)
        a.addi("r1", "r1", 4)
        a.addi("r2", "r2", 1)
        a.blt("r2", "r3", "loop")
        a.li("r6", out)
        a.sw("r4", "r6", 0)
        a.halt()
        machine, _ = run_program(a, image)
        expected = sum(v for v in values if v >= 0)
        assert machine.memory.read_word_signed(out) == expected
        assert machine.stats.find("cpu0").get("mispredicts") > 0

    def test_jal_jr_call_return(self):
        image = MemoryImage()
        out = image.alloc_zeroed(1)
        a = Asm("t")
        a.li("r10", 0)
        a.li("r11", 3)
        a.label("loop")
        a.jal("r31", "func")
        a.addi("r10", "r10", 1)
        a.blt("r10", "r11", "loop")
        a.li("r2", out)
        a.sw("r1", "r2", 0)
        a.halt()
        a.label("func")
        a.addi("r1", "r1", 7)
        a.jr("r31")
        machine, _ = run_program(a, image)
        assert machine.memory.read_word_signed(out) == 21

    def test_mispredict_recovery_no_sideeffects(self):
        """Wrong-path stores must never reach memory."""
        image = MemoryImage()
        guard = image.alloc_words([123])
        a = Asm("t")
        a.li("r1", guard)
        a.li("r2", 0)
        a.li("r3", 40)
        a.label("loop")
        a.addi("r2", "r2", 1)
        # taken until the very end: the final not-taken is mispredicted,
        # and the wrong-path would run into the store below.
        a.blt("r2", "r3", "loop")
        a.j("end")
        a.li("r4", 999)
        a.sw("r4", "r1", 0)
        a.label("end")
        a.halt()
        machine, _ = run_program(a, image)
        assert machine.memory.read_word_signed(guard) == 123


class TestWidths:
    def test_ooo2_faster_than_ooo1(self):
        def build():
            a = Asm("t")
            a.li("r1", 0)
            a.li("r2", 2000)
            a.li("r3", 0)
            a.li("r4", 0)
            a.label("loop")
            a.addi("r3", "r3", 1)
            a.addi("r4", "r4", 2)
            a.xor("r5", "r3", "r4")
            a.addi("r1", "r1", 1)
            a.blt("r1", "r2", "loop")
            a.halt()
            return a

        _, cycles1 = run_program(build())
        _, cycles2 = run_program(
            build(), system=SystemConfig(clusters=[ooo2_cluster()]))
        assert cycles2 < cycles1 * 0.65


class TestRobustness:
    def test_spl_op_without_port_raises(self):
        a = Asm("t")
        a.spl_init(1)
        a.halt()
        with pytest.raises(SimulationError):
            run_program(a)

    def test_deadlock_detected(self):
        a = Asm("t")
        a.li("r1", 0x8000)
        a.li("r2", 1)
        a.label("spin")          # spin on a flag nobody sets...
        a.lw("r3", "r1", 0)
        a.bne("r3", "r2", "spin")
        a.halt()
        machine = Machine(SystemConfig(clusters=[ooo1_cluster()],
                                       deadlock_cycles=5_000))
        workload = Workload("t", MemoryImage(),
                            [ThreadSpec(a.assemble(), 1)], placement=[0])
        machine.load(workload)
        # The spinner retires instructions, so this is NOT a deadlock: it
        # must hit the cycle limit instead.
        with pytest.raises(SimulationError):
            machine.run(options=RunOptions(max_cycles=20_000))


SAFE_OPS = [Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.SLT, Op.SLTU, Op.MUL]


class TestRandomPrograms:
    @given(st.lists(
        st.tuples(st.sampled_from(SAFE_OPS), st.integers(1, 7),
                  st.integers(1, 7), st.integers(1, 7)),
        min_size=1, max_size=30),
        st.lists(st.integers(-1000, 1000), min_size=7, max_size=7))
    @settings(max_examples=20, deadline=None)
    def test_straightline_matches_interpreter(self, ops, init):
        """Random straight-line ALU programs match direct evaluation."""
        regs = {f"r{i + 1}": value for i, value in enumerate(init)}
        image = MemoryImage()
        out = image.alloc_zeroed(7)
        a = Asm("rand")
        for op, rd, rs1, rs2 in ops:
            a._op(op, f"r{rd}", f"r{rs1}", f"r{rs2}")
        a.li("r8", out)
        for i in range(7):
            a.sw(f"r{i + 1}", "r8", 4 * i)
        a.halt()
        machine, _ = run_program(a, image, regs=regs)
        model = [0] + list(init)
        for op, rd, rs1, rs2 in ops:
            model[rd] = alu(op, model[rs1], model[rs2], 0)
        assert machine.memory.read_words(out, 7) == model[1:]


class TestExecHelpers:
    @given(st.integers(-(2 ** 31), 2 ** 31 - 1),
           st.integers(-(2 ** 31), 2 ** 31 - 1))
    @settings(max_examples=50)
    def test_branch_semantics(self, a_val, b_val):
        assert branch_taken(Op.BEQ, a_val, b_val) == (a_val == b_val)
        assert branch_taken(Op.BLT, a_val, b_val) == (a_val < b_val)
        assert branch_taken(Op.BGE, a_val, b_val) == (a_val >= b_val)

    def test_unsigned_branches(self):
        assert branch_taken(Op.BLTU, -1, 1) is False  # 0xFFFFFFFF > 1
        assert branch_taken(Op.BGEU, -1, 1) is True
