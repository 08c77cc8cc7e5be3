"""Differential testing: the OOO pipeline vs the golden-model interpreter.

Random programs — with branches, loops, memory traffic, and SPL traffic —
must leave identical architectural state (registers + memory) on the
cycle-level simulator and on the sequential interpreter.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import RunOptions, SystemConfig, ooo1_cluster, \
    ooo2_cluster, remap_system
from repro.core.dfg import Dfg, DfgOp
from repro.core.function import SplFunction
from repro.isa import Asm, MemoryImage, Op, ThreadSpec
from repro.isa.interpreter import FunctionalSpl, Interpreter
from repro.mem.memory import MainMemory
from repro.system import Machine, Workload

_ALU_OPS = [Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.NOR, Op.SLT,
            Op.SLTU, Op.MUL, Op.DIV, Op.REM, Op.SLL, Op.SRL, Op.SRA]
_IMM_OPS = [Op.ADDI, Op.ANDI, Op.ORI, Op.XORI, Op.SLTI]


def _run_both(asm, image, regs=None, system=None):
    """Run the program on the pipeline and the interpreter; compare."""
    program = asm.assemble()
    # Pipeline run.
    workload = Workload("diff", image,
                        [ThreadSpec(program, thread_id=1,
                                    int_regs=regs or {})],
                        placement=[0])
    machine = Machine(system or SystemConfig(clusters=[ooo1_cluster()]))
    machine.load(workload)
    machine.run(options=RunOptions(max_cycles=3_000_000))
    # Golden run.
    memory = MainMemory()
    memory.load_image(image)
    interp = Interpreter(program, memory)
    for name, value in (regs or {}).items():
        from repro.isa.instruction import reg_index
        interp.int_regs[reg_index(name)] = value
    interp.run()
    # Compare registers...
    ctx = machine.contexts[0]
    assert ctx.int_regs == interp.int_regs, "register state diverged"
    # ...and all memory words either side touched.
    touched = set(machine.memory.words) | set(memory.words)
    for word_addr in touched:
        assert machine.memory.words.get(word_addr, 0) == \
            memory.words.get(word_addr, 0), \
            f"memory diverged at {word_addr * 4:#x}"
    return machine, interp


# -- random program generators ----------------------------------------------------


@st.composite
def _alu_blocks(draw):
    """Random straight-line blocks separated by data-dependent branches."""
    n_blocks = draw(st.integers(2, 5))
    blocks = []
    for _ in range(n_blocks):
        ops = draw(st.lists(
            st.tuples(st.sampled_from(_ALU_OPS + _IMM_OPS),
                      st.integers(1, 9), st.integers(1, 9),
                      st.integers(1, 9), st.integers(-64, 64)),
            min_size=1, max_size=8))
        blocks.append(ops)
    return blocks


class TestDifferentialAlu:
    @given(_alu_blocks(),
           st.lists(st.integers(-10_000, 10_000), min_size=9, max_size=9))
    @settings(max_examples=20, deadline=None)
    def test_branchy_alu_programs(self, blocks, init):
        regs = {f"r{i + 1}": v for i, v in enumerate(init)}
        image = MemoryImage()
        out = image.alloc_zeroed(9)
        a = Asm("diff")
        for index, block in enumerate(blocks):
            for op, rd, rs1, rs2, imm in block:
                if op in _IMM_OPS:
                    a._op(op, f"r{rd}", f"r{rs1}", imm)
                else:
                    a._op(op, f"r{rd}", f"r{rs1}", f"r{rs2}")
            # A data-dependent forward branch between blocks.
            label = a.fresh_label(f"blk{index}")
            a.bge(f"r{(index % 9) + 1}", "r0", label)
            a.addi(f"r{(index % 9) + 1}", f"r{(index % 9) + 1}", 13)
            a.label(label)
        a.li("r10", out)
        for i in range(9):
            a.sw(f"r{i + 1}", "r10", 4 * i)
        a.halt()
        _run_both(a, image, regs=regs)

    @given(st.lists(st.integers(-100, 100), min_size=4, max_size=24),
           st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_memory_loops(self, values, wide):
        """A read-modify-write sweep over an array, both core widths."""
        image = MemoryImage()
        arr = image.alloc_words(values)
        a = Asm("diff")
        a.li("r1", arr)
        a.li("r2", 0)
        a.li("r3", len(values))
        a.label("loop")
        a.lw("r4", "r1", 0)
        a.slli("r5", "r4", 1)
        a.add("r4", "r4", "r5")       # x3
        pos = a.fresh_label("pos")
        a.bge("r4", "r0", pos)
        a.neg("r4", "r4")
        a.label(pos)
        a.sw("r4", "r1", 0)
        a.addi("r1", "r1", 4)
        a.addi("r2", "r2", 1)
        a.blt("r2", "r3", "loop")
        a.halt()
        system = SystemConfig(clusters=[ooo2_cluster() if wide
                                        else ooo1_cluster()])
        _run_both(a, image, system=system)

    @given(st.integers(1, 30), st.integers(1, 8))
    @settings(max_examples=10, deadline=None)
    def test_nested_loops_with_calls(self, outer, inner):
        image = MemoryImage()
        out = image.alloc_zeroed(1)
        a = Asm("diff")
        a.li("r1", 0)           # accumulator
        a.li("r2", 0)
        a.li("r3", outer)
        a.label("outer")
        a.li("r4", 0)
        a.li("r5", inner)
        a.label("inner")
        a.jal("r31", "bump")
        a.addi("r4", "r4", 1)
        a.blt("r4", "r5", "inner")
        a.addi("r2", "r2", 1)
        a.blt("r2", "r3", "outer")
        a.li("r6", out)
        a.sw("r1", "r6", 0)
        a.halt()
        a.label("bump")
        a.addi("r1", "r1", 3)
        a.jr("r31")
        machine, interp = _run_both(a, image)
        assert machine.memory.read_word_signed(out) == 3 * outer * inner


class TestDifferentialSpl:
    def _function(self):
        g = Dfg("diff_fn")
        x = g.input("x", 0)
        y = g.input("y", 4)
        g.output("o", g.max_(g.add(x, y), g.mul(x, g.const(2))))
        return SplFunction(g)

    @given(st.lists(st.tuples(st.integers(-500, 500),
                              st.integers(-500, 500)),
                    min_size=1, max_size=20))
    @settings(max_examples=15, deadline=None)
    def test_spl_stream_matches_functional_model(self, pairs):
        image = MemoryImage()
        xs = image.alloc_words([p[0] for p in pairs])
        ys = image.alloc_words([p[1] for p in pairs])
        out = image.alloc_zeroed(len(pairs))
        a = Asm("diff_spl")
        a.li("r1", xs)
        a.li("r2", ys)
        a.li("r3", out)
        a.li("r4", 0)
        a.li("r5", len(pairs))
        a.label("loop")
        a.spl_loadm("r1", 0)
        a.spl_loadm("r2", 4)
        a.spl_init(1)
        a.spl_store("r3", 0)
        a.addi("r1", "r1", 4)
        a.addi("r2", "r2", 4)
        a.addi("r3", "r3", 4)
        a.addi("r4", "r4", 1)
        a.blt("r4", "r5", "loop")
        a.halt()
        program = a.assemble()
        function = self._function()

        # Pipeline.
        workload = Workload(
            "diff", image, [ThreadSpec(program, thread_id=1)],
            placement=[0],
            setup=lambda m: m.configure_spl(0, 1, self._function()))
        machine = Machine(remap_system())
        machine.load(workload)
        machine.run(options=RunOptions(max_cycles=3_000_000))

        # Golden.
        memory = MainMemory()
        memory.load_image(image)
        spl = FunctionalSpl()
        spl.configure(1, function)
        Interpreter(program, memory, spl=spl).run()

        got = machine.memory.read_words(out, len(pairs))
        expected = memory.read_words(out, len(pairs))
        assert got == expected


class TestInterpreterRobustness:
    def test_step_limit(self):
        a = Asm("loop")
        a.label("x")
        a.j("x")
        program = a.assemble()
        interp = Interpreter(program, MainMemory(), max_steps=100)
        with pytest.raises(Exception):
            interp.run()

    def test_spl_without_model_raises(self):
        a = Asm("t")
        a.spl_init(1)
        a.halt()
        interp = Interpreter(a.assemble(), MainMemory())
        with pytest.raises(Exception):
            interp.run()

    def test_recv_on_empty_queue_raises(self):
        spl = FunctionalSpl()
        with pytest.raises(Exception):
            spl.recv()
