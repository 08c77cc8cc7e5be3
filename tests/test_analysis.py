"""Tests for the static verifier (repro.analysis).

Each seeded-defect fixture must be caught *statically* — no spec here is
ever simulated — with the expected rule id.
"""

import pytest

from repro.analysis import (Cfg, Severity, has_errors, lint_dfg,
                            lint_function, lint_program, lint_spec,
                            render_json, render_text)
from repro.analysis.mapping import check_shared_state
from repro.common.errors import AssemblyError
from repro.core.dfg import Dfg
from repro.core.function import SplFunction, identity_function
from repro.isa.assembler import Asm
from repro.isa.program import MemoryImage, ThreadSpec
from repro.system.workload import Workload
from repro.workloads.base import RunSpec, remap_machine_system, seq_system
from repro.workloads.spl_lib import mac2_function


def _rules(diagnostics):
    return {diag.rule for diag in diagnostics}


def _by_rule(diagnostics, rule):
    return [diag for diag in diagnostics if diag.rule == rule]


def _program(build, name="fixture"):
    a = Asm(name)
    build(a)
    return a.assemble()


def _spl_spec(build, setup, name="fixture", n_threads=1,
              system=None):
    """A one-cluster spec whose thread programs come from ``build(a, i)``."""
    threads = []
    for thread_id in range(n_threads):
        a = Asm(f"{name}_t{thread_id}")
        build(a, thread_id)
        threads.append(ThreadSpec(a.assemble(), thread_id))
    workload = Workload(name, MemoryImage(), threads, setup=setup)
    return RunSpec(name=name, workload=workload,
                   system=system or remap_machine_system())


# -- register rules -----------------------------------------------------------


class TestRegisterRules:
    def test_use_before_def_warns(self):
        program = _program(lambda a: (a.add("r1", "r2", "r3"), a.halt()))
        diags = lint_program(program)
        assert len(_by_rule(diags, "REG001")) == 2  # r2 and r3
        assert all(diag.severity is Severity.WARNING
                   for diag in _by_rule(diags, "REG001"))

    def test_initial_registers_count_as_defined(self):
        program = _program(lambda a: (a.add("r1", "r5", "r0"), a.halt()))
        spec = ThreadSpec(program, 0, int_regs={"r5": 3})
        assert "REG001" not in _rules(lint_program(program, spec))

    def test_defined_on_only_one_path_warns(self):
        def build(a):
            skip = a.fresh_label("skip")
            a.beqz("r0", skip)
            a.li("r1", 7)
            a.label(skip)
            a.mov("r2", "r1")
            a.halt()
        diags = lint_program(_program(build))
        assert _by_rule(diags, "REG001")

    def test_write_to_r0_warns(self):
        program = _program(lambda a: (a.li("r1", 1),
                                      a.add("r0", "r1", "r1"), a.halt()))
        diags = _by_rule(lint_program(program), "REG002")
        assert diags and diags[0].severity is Severity.WARNING

    def test_clean_program_has_no_findings(self):
        def build(a):
            a.li("r1", 4)
            a.addi("r2", "r1", 1)
            a.halt()
        assert lint_program(_program(build)) == []


# -- structure rules ----------------------------------------------------------


class TestStructureRules:
    def test_missing_halt_is_an_error(self):
        diags = lint_program(_program(lambda a: a.li("r1", 1)))
        found = _by_rule(diags, "CFG002")
        assert found and found[0].severity is Severity.ERROR

    def test_unreachable_code_warns(self):
        def build(a):
            end = a.fresh_label("end")
            a.j(end)
            a.li("r1", 1)
            a.li("r2", 2)
            a.label(end)
            a.halt()
        found = _by_rule(lint_program(_program(build)), "CFG001")
        assert len(found) == 1  # contiguous run collapses to one finding
        assert "2 unreachable" in found[0].message

    def test_conditional_fallthrough_off_end(self):
        def build(a):
            done = a.fresh_label("done")
            a.beqz("r0", done)
            a.label(done)
            a.li("r1", 1)  # no halt after
        assert "CFG002" in _rules(lint_program(_program(build)))

    def test_loop_with_halt_is_clean(self):
        def build(a):
            a.li("r1", 4)
            loop = a.fresh_label("loop")
            a.label(loop)
            a.addi("r1", "r1", -1)
            a.bnez("r1", loop)
            a.halt()
        assert lint_program(_program(build)) == []


# -- label hygiene ------------------------------------------------------------


class TestLabelRules:
    def test_unreferenced_label_noted(self):
        a = Asm("labels")
        a.label("start")
        a.li("r1", 1)
        a.halt()
        program = a.assemble()
        assert ("LBL001" in {rule for rule, _ in program.label_diagnostics})
        diags = _by_rule(lint_program(program), "LBL001")
        assert diags and diags[0].severity is Severity.NOTE
        assert "start" in diags[0].message

    def test_unplaced_fresh_label_warns(self):
        a = Asm("labels")
        a.fresh_label("never")
        a.li("r1", 1)
        a.halt()
        diags = _by_rule(lint_program(a.assemble()), "LBL002")
        assert diags and diags[0].severity is Severity.WARNING

    def test_referenced_labels_are_clean(self):
        def build(a):
            loop = a.fresh_label("loop")
            a.li("r1", 2)
            a.label(loop)
            a.addi("r1", "r1", -1)
            a.bnez("r1", loop)
            a.halt()
        assert lint_program(_program(build)) == []


# -- Program._resolve bounds checking -----------------------------------------


class TestResolveBounds:
    def test_jump_past_end_raises(self):
        a = Asm("oob")
        a.j(99)
        a.halt()
        with pytest.raises(AssemblyError, match="targets pc 99"):
            a.assemble()

    def test_negative_branch_target_raises(self):
        a = Asm("oob")
        a.li("r1", 1)
        a.beq("r1", "r0", -2)
        a.halt()
        with pytest.raises(AssemblyError, match="outside the program"):
            a.assemble()

    def test_spl_staging_offsets_are_not_bounds_checked(self):
        # spl_loadm/spl_loadv reuse ``target`` for the staging-entry byte
        # offset; a 28-byte offset in a 3-instruction program must NOT be
        # mistaken for an out-of-range branch.
        a = Asm("staging")
        a.li("r1", 0x1000)
        a.spl_loadm("r1", 28, 0)
        a.halt()
        program = a.assemble()
        assert program.instructions[1].target == 28


# -- SPL protocol rules -------------------------------------------------------


def _bind_identity(machine):
    machine.configure_spl(0, 1, identity_function())


class TestSplProtocol:
    def test_unbound_config_id(self):
        def build(a, _tid):
            a.spl_load("r0", 0)
            a.spl_init(5)
            a.spl_recv("r1")
            a.halt()
        diags = lint_spec(_spl_spec(build, _bind_identity))
        found = _by_rule(diags, "SPL001")
        assert found and found[0].severity is Severity.ERROR
        assert "5" in found[0].message

    def test_restage_before_seal(self):
        def build(a, _tid):
            a.spl_load("r0", 0)
            a.spl_load("r0", 0)  # overwrites bytes 0..3 before spl_init
            a.spl_init(1)
            a.spl_recv("r1")
            a.halt()
        found = _by_rule(lint_spec(_spl_spec(build, _bind_identity)),
                         "SPL002")
        assert found and found[0].severity is Severity.ERROR
        assert found[0].pc == 1

    def test_staged_then_sealed_is_clean(self):
        def build(a, _tid):
            a.spl_load("r0", 0)
            a.spl_init(1)
            a.spl_recv("r1")
            a.halt()
        assert lint_spec(_spl_spec(build, _bind_identity)) == []

    def test_init_with_missing_input_bytes(self):
        def build(a, _tid):
            a.spl_load("r0", 0)  # mac2 decodes bytes 0..15; only 0..3 staged
            a.spl_init(1)
            a.spl_recv("r1")
            a.halt()
        def setup(machine):
            machine.configure_spl(0, 1, mac2_function())
        found = _by_rule(lint_spec(_spl_spec(build, setup)), "SPL003")
        assert found and found[0].severity is Severity.ERROR
        assert "4..15" in found[0].message

    def test_unbalanced_pop_count(self):
        def build(a, _tid):
            a.spl_load("r0", 0)
            a.spl_init(1)  # identity: one output word
            a.spl_recv("r1")
            a.spl_recv("r2")  # second pop never arrives
            a.halt()
        found = _by_rule(lint_spec(_spl_spec(build, _bind_identity)),
                         "SPL004")
        assert found and found[0].severity is Severity.ERROR
        assert "pops 2" in found[0].message and "1 are delivered" in \
            found[0].message

    def test_pop_with_nothing_incoming(self):
        def build(a, _tid):
            a.spl_recv("r1")
            a.halt()
        found = _by_rule(lint_spec(_spl_spec(build, _bind_identity)),
                         "SPL005")
        assert found and found[0].severity is Severity.ERROR

    def test_delivery_never_popped(self):
        def build(a, _tid):
            a.spl_load("r0", 0)
            a.spl_init(1)
            a.halt()
        found = _by_rule(lint_spec(_spl_spec(build, _bind_identity)),
                         "SPL006")
        assert found and found[0].severity is Severity.WARNING

    def test_spl_on_core_without_port(self):
        def build(a, _tid):
            a.spl_load("r0", 0)
            a.spl_init(1)
            a.spl_recv("r1")
            a.halt()
        spec = _spl_spec(build, None, system=seq_system())
        found = _by_rule(lint_spec(spec), "SPL007")
        assert found and found[0].severity is Severity.ERROR

    def test_pipelined_loop_is_not_flagged(self):
        # The workloads' software-pipelined shape: issue-ahead prologue,
        # then a loop popping one result and conditionally issuing the
        # next entry (stage + init together).  Loop-carried counts widen
        # to TOP, so no balance rule may fire.
        def build(a, _tid):
            a.spl_load("r0", 0)
            a.spl_init(1)
            a.li("r10", 4)
            loop = a.fresh_label("loop")
            skip = a.fresh_label("skip")
            a.label(loop)
            a.spl_recv("r1")
            a.addi("r10", "r10", -1)
            a.beqz("r10", skip)
            a.spl_load("r0", 0)
            a.spl_init(1)
            a.label(skip)
            a.bnez("r10", loop)
            a.halt()
        assert not has_errors(lint_spec(_spl_spec(build, _bind_identity)))


# -- mappability rules --------------------------------------------------------


def _stateful_function():
    g = Dfg("acc")
    x = g.input("x", 0)
    d = g.delay()
    s = g.add(x, d)
    g.set_delay_source(d, s)
    g.output("s", s)
    return SplFunction(g)


class TestMappingRules:
    def test_invalid_dfg(self):
        g = Dfg("no_outputs")
        g.input("x", 0)
        found = _by_rule(lint_dfg(g, "unit"), "MAP001")
        assert found and found[0].severity is Severity.ERROR

    def test_illegal_retimed_feedback(self):
        g = Dfg("ident")
        x = g.input("x", 0)
        g.output("x", g.add(x, g.const(0)))
        function = SplFunction(g, retimed_feedback_ii=0)
        found = _by_rule(lint_function(function, "unit"), "MAP002")
        assert found and found[0].severity is Severity.ERROR

    def test_stateful_instance_shared_across_slots(self):
        function = _stateful_function()
        found = _by_rule(check_shared_state(
            {(0, 1): function, (1, 1): function}, "unit"), "MAP003")
        assert found and found[0].severity is Severity.ERROR

    def test_stateless_instance_may_be_shared(self):
        function = identity_function()
        assert check_shared_state(
            {(0, 1): function, (1, 1): function}, "unit") == []

    def test_library_function_maps_cleanly(self):
        assert lint_function(mac2_function(), "unit") == []


# -- reporters ----------------------------------------------------------------


class TestReporters:
    def test_text_report_sorts_errors_first(self):
        def build(a):
            a.label("dead")  # LBL001 note
            a.add("r1", "r2", "r0")  # REG001 warning
            # no halt: CFG002 error
        text = render_text(lint_program(_program(build)))
        lines = text.splitlines()
        assert lines[0].startswith("error[CFG002]")
        assert lines[-1] == "1 errors, 1 warnings, 1 notes"

    def test_json_report_schema(self):
        import json
        diags = lint_program(_program(lambda a: a.li("r1", 1)))
        record = json.loads(render_json(diags))
        assert record["schema"] == 1
        assert record["counts"]["error"] == 1
        entry = record["diagnostics"][0]
        assert entry["rule"] == "CFG002"
        assert entry["severity"] == "error"
        assert entry["program"] == "fixture"

    def test_locations_are_clickable(self):
        diags = lint_program(_program(lambda a: a.li("r1", 1)),
                             unit="bench/variant")
        assert "bench/variant fixture@0" in diags[0].render()


# -- engine pre-flight --------------------------------------------------------


def broken_spec():
    """Factory used via module:function requests: program lacks a halt."""
    a = Asm("preflight_broken")
    a.li("r1", 1)
    workload = Workload("preflight_broken", MemoryImage(),
                        [ThreadSpec(a.assemble(), 0)])
    return RunSpec(name="preflight_broken", workload=workload,
                   system=seq_system())


class TestEnginePreflight:
    def test_lint_error_blocks_dispatch(self):
        from repro.experiments.engine import (ExperimentEngine, SpecError,
                                              request)
        engine = ExperimentEngine(jobs=1, use_cache=False, lint=True)
        out = engine.run_batch(
            [request("tests.test_analysis:broken_spec")], strict=False)
        assert isinstance(out[0], SpecError)
        assert out[0].exception_type == "LintError"
        assert "CFG002" in out[0].traceback_text
        assert engine.simulated == 0

    def test_lint_error_blocks_dispatch_in_a_pool(self):
        from repro.experiments.engine import (ExperimentEngine, SpecError,
                                              request)
        from repro.experiments.runner import RunResult
        engine = ExperimentEngine(jobs=2, use_cache=False, lint=True)
        out = engine.run_batch(
            [request("tests.test_analysis:broken_spec"),
             request("wc", "seq", items=16)], strict=False)
        assert isinstance(out[0], SpecError)
        assert out[0].exception_type == "LintError"
        assert "CFG002" in out[0].traceback_text
        assert isinstance(out[1], RunResult)
        assert engine.simulated == 1 and engine.failed == 1

    def test_no_lint_escape_hatch_reaches_simulation(self):
        from repro.experiments.engine import (ExperimentEngine, SpecError,
                                              request)
        engine = ExperimentEngine(jobs=1, use_cache=False, lint=False)
        out = engine.run_batch(
            [request("tests.test_analysis:broken_spec")], strict=False)
        assert isinstance(out[0], SpecError)
        assert out[0].exception_type != "LintError"

    def test_cli_no_lint_flag(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(["run", "wc", "seq", "--no-lint"])
        assert args.no_lint
        args = build_parser().parse_args(["figure", "10"])
        assert not args.no_lint


# -- cfg internals ------------------------------------------------------------


class TestCfg:
    def test_blocks_and_reachability(self):
        def build(a):
            loop = a.fresh_label("loop")
            a.li("r1", 3)
            a.label(loop)
            a.addi("r1", "r1", -1)
            a.bnez("r1", loop)
            a.halt()
        cfg = Cfg(_program(build))
        assert len(cfg.blocks) == 3
        assert cfg.reachable == {0, 1, 2}
        assert not cfg.falls_off_end()

    def test_indirect_jump_degrades_gracefully(self):
        def build(a):
            a.li("r1", 2)
            a.jr("r1")
            a.halt()
        cfg = Cfg(_program(build))
        assert cfg.has_indirect
        # jr makes reachability under-approximate; everything is kept.
        assert cfg.reachable == set(range(len(cfg.blocks)))
