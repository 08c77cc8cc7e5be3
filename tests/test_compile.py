"""Tests for the expression-to-DFG compiler front end."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.compile import ExpressionError, compile_expression


def _eval(fn, **inputs):
    out = fn.dfg.evaluate(inputs)
    return out


class TestCompile:
    def test_arithmetic_precedence(self):
        fn = compile_expression("o = a + b * c;",
                                inputs={"a": 0, "b": 4, "c": 8})
        assert _eval(fn, a=1, b=2, c=3)["o"] == 7

    def test_parentheses(self):
        fn = compile_expression("o = (a + b) * c;",
                                inputs={"a": 0, "b": 4, "c": 8})
        assert _eval(fn, a=1, b=2, c=3)["o"] == 9

    def test_unary_minus(self):
        fn = compile_expression("o = -a + 5;", inputs={"a": 0})
        assert _eval(fn, a=3)["o"] == 2

    def test_shifts_const_and_variable(self):
        fn = compile_expression("o = a << 2; p = a >> b;",
                                inputs={"a": 0, "b": 4})
        out = _eval(fn, a=12, b=1)
        assert out["o"] == 48 and out["p"] == 6

    def test_comparisons_and_ternary(self):
        fn = compile_expression("o = a > b ? a : b;",
                                inputs={"a": 0, "b": 4})
        assert _eval(fn, a=9, b=4)["o"] == 9
        assert _eval(fn, a=1, b=4)["o"] == 4

    def test_builtins(self):
        fn = compile_expression(
            "o = clamp(max(a, b) + min(a, b), -100, 100); p = abs(a - b);",
            inputs={"a": 0, "b": 4})
        out = _eval(fn, a=70, b=60)
        assert out["o"] == 100  # clamped 130
        assert out["p"] == 10

    def test_select_builtin(self):
        fn = compile_expression("o = select(a == b, 1, 0);",
                                inputs={"a": 0, "b": 4})
        assert _eval(fn, a=5, b=5)["o"] == 1
        assert _eval(fn, a=5, b=6)["o"] == 0

    def test_intermediate_values_not_outputs(self):
        fn = compile_expression("t = a + b; o = t * t;",
                                inputs={"a": 0, "b": 4})
        assert list(fn.dfg.outputs) == ["o"]
        assert _eval(fn, a=2, b=3)["o"] == 25

    def test_explicit_outputs(self):
        fn = compile_expression("t = a + b; o = t * 2;",
                                inputs={"a": 0, "b": 4},
                                outputs=["t", "o"])
        out = _eval(fn, a=2, b=3)
        assert (out["t"], out["o"]) == (5, 10)

    def test_compiled_function_is_mapped(self):
        fn = compile_expression("o = max(a * b, c * 4);",
                                inputs={"a": 0, "b": 4, "c": 8})
        assert fn.rows >= 6  # multiply depth + max

    def test_hmmer_mc_via_compiler(self):
        """The Figure 6 computation expressed as source text."""
        source = """
            m = max(max(mpp + tpmm, ip + tpim), max(dpp + tpdm, t4));
            mc = max(m + ms, -987654321);
        """
        fn = compile_expression(source, inputs={
            "mpp": 0, "tpmm": 4, "ip": 8, "tpim": 12,
            "dpp": 16, "tpdm": 20, "t4": 24, "ms": 28})
        out = _eval(fn, mpp=10, tpmm=2, ip=5, tpim=1, dpp=0, tpdm=0,
                    t4=20, ms=-3)
        assert out["mc"] == 17

    def test_errors(self):
        with pytest.raises(ExpressionError):
            compile_expression("", inputs={"a": 0})
        with pytest.raises(ExpressionError):
            compile_expression("o = a +;", inputs={"a": 0})
        with pytest.raises(ExpressionError):
            compile_expression("o = zork;", inputs={"a": 0})
        with pytest.raises(ExpressionError):
            compile_expression("o = clamp(a, b, 3);",
                               inputs={"a": 0, "b": 4})
        with pytest.raises(ExpressionError):
            compile_expression("o = a @ 2;", inputs={"a": 0})
        with pytest.raises(ExpressionError):
            compile_expression("o = min(a);", inputs={"a": 0})

    @given(st.integers(-1000, 1000), st.integers(-1000, 1000),
           st.integers(-1000, 1000))
    @settings(max_examples=30)
    def test_random_values_match_python(self, a, b, c):
        fn = compile_expression(
            "o = max(a + b, c) * 2 - min(a, c);",
            inputs={"a": 0, "b": 4, "c": 8})
        expected = max(a + b, c) * 2 - min(a, c)
        assert _eval(fn, a=a, b=b, c=c)["o"] == expected


class TestCompiledEndToEnd:
    def test_runs_on_the_fabric(self):
        """A compiled function executes in the simulated SPL."""
        from repro.common.config import RunOptions, remap_system
        from repro.isa import Asm, MemoryImage, ThreadSpec
        from repro.system import Machine, Workload
        fn = compile_expression("o = abs(a - b);", inputs={"a": 0, "b": 4})
        image = MemoryImage()
        out = image.alloc_zeroed(1)
        asm = Asm("compiled")
        asm.li("r1", 30)
        asm.li("r2", 75)
        asm.spl_load("r1", 0)
        asm.spl_load("r2", 4)
        asm.spl_init(1)
        asm.spl_recv("r3")
        asm.li("r4", out)
        asm.sw("r3", "r4", 0)
        asm.halt()
        workload = Workload(
            "c", image, [ThreadSpec(asm.assemble(), thread_id=1)],
            placement=[0],
            setup=lambda m: m.configure_spl(0, 1, fn))
        machine = Machine(remap_system())
        machine.load(workload)
        machine.run(options=RunOptions(max_cycles=100_000))
        assert machine.memory.read_word_signed(out) == 45
