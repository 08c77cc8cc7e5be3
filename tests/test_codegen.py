"""Differential equivalence: compiled DFG closures vs the interpreter.

The codegen contract (DESIGN.md "Compiled hot paths") is that for every
graph the generator accepts, the compiled closure is bit-exact with
``Dfg.evaluate`` — same outputs, same delay-register state evolution, and
same error behaviour.  ``SplFunction`` evaluates only through the
closures, so ``Dfg.evaluate`` (with ``SplFunction.decode_entry``) is the
reference here.  This suite sweeps the entire SPL function library (the
lint library set plus every workload-module builder, which together use
every ``DfgOp``) on randomized inputs, including stateful/DELAY
functions over multi-step sequences and barrier functions, and checks
the generic, fused byte-entry and barrier paths against that reference.
"""

import gc
import random
import weakref

import pytest

from repro.analysis.lint import library_functions
from repro.common.errors import MappingError, SplError
from repro.core.codegen import compile_dfg
from repro.core.dfg import Dfg, DfgOp
from repro.core.function import (SplFunction, barrier_reduce_function,
                                 barrier_token_function, identity_function)
from repro.workloads import (adpcm, astar, cjpeg, g721, gsm, libquantum,
                             mpeg2, spl_lib, twolf, unepic, wc)

#: Every SPL function builder in the tree, by name.  Builders (not
#: instances) so each test can construct fresh state and fresh instances.
BUILDERS = {
    "hmmer_mc": spl_lib.hmmer_mc_function,
    "mac2": spl_lib.mac2_function,
    "mac4": spl_lib.mac4_function,
    "sad8": spl_lib.sad8_function,
    "mpeg2_conv420": mpeg2.conv420_function,
    "mpeg2_conv4": mpeg2.conv4_function,
    "astar_bound": astar.bound_function,
    "quantum_gates8": libquantum.gates8_function,
    "unepic_dequant": unepic.dequant_function,
    "twolf_dbox": twolf.dbox_function,
    "gsm_weight": gsm.weighting_function,
    "gsm_ltp_corr": gsm.corr8_function,
    "gsm_lattice": gsm.synthesis_function,
    "g721_fmult": g721.fmult_function,
    "wc4": wc.wc4_function,
    "adpcm_step": adpcm.adpcm_function,
    "cjpeg_ycc": cjpeg.ycc_function,
    "route": identity_function,
    "barrier_token": lambda: barrier_token_function(4),
    "reduce_min": lambda: barrier_reduce_function(4, DfgOp.MIN),
    "reduce_max": lambda: barrier_reduce_function(4, DfgOp.MAX),
    "reduce_add": lambda: barrier_reduce_function(4, DfgOp.ADD),
}

STEPS = 12  # sequence length per trial (exercises DELAY state evolution)
TRIALS = 5  # random restarts per function


def _random_inputs(dfg: Dfg, rng: random.Random) -> dict:
    # 64-bit magnitudes exercise the signed-width narrowing on every input.
    return {name: rng.randrange(-(1 << 63), 1 << 63) for name in dfg.inputs}


def _entry_shape(dfg: Dfg):
    """(byte size, all-valid mask) of the function's staged entry."""
    size = max(dfg.input_offsets[name] + node.width
               for name, node in dfg.inputs.items())
    return size, (1 << size) - 1


def _random_entry(rng: random.Random, size: int) -> bytes:
    return bytes(rng.randrange(256) for _ in range(size))


def _barrier_entries(function: SplFunction, rng: random.Random) -> dict:
    """{slot: (data, valid)}: one random staged entry per participant."""
    size, valid = _entry_shape(function.dfg)
    slots = sorted({int(n.split("_")[0][1:]) for n in function.dfg.inputs})
    return {slot: (_random_entry(rng, size), valid) for slot in slots}


def test_library_covers_lint_sweep():
    # The lint library set must be a subset of what this suite sweeps.
    lint_names = {function.dfg.name for _unit, function in
                  library_functions()}
    swept = {builder().dfg.name for builder in BUILDERS.values()}
    assert lint_names <= swept


def test_library_uses_every_op():
    """A run evaluates only through compiled closures, so an op without
    an emitter would fail every run that uses it: the sweep must cover
    every ``DfgOp``."""
    used = {node.op for builder in BUILDERS.values()
            for node in builder().dfg.nodes}
    assert set(DfgOp) - used == set()


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_compiled_matches_interpreter(name):
    """Generic evaluate: outputs and state agree over random sequences."""
    function = BUILDERS[name]()
    dfg = function.dfg
    compiled = compile_dfg(dfg)
    rng = random.Random(0xC0DE ^ hash(name) & 0xFFFF)
    for _trial in range(TRIALS):
        state_ref: dict = {}
        state_got: dict = {}
        stateful = dfg.is_stateful
        for _step in range(STEPS):
            inputs = _random_inputs(dfg, rng)
            reference = dfg.evaluate(dict(inputs),
                                     state=state_ref if stateful else None)
            got = compiled.evaluate(dict(inputs),
                                    state_got if stateful else None)
            assert got == reference
            assert state_got == state_ref


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_entry_path_matches_interpreted_twin(name):
    """Byte-entry and barrier evaluation agree with ``Dfg.evaluate`` on
    the values ``decode_entry`` reads from the same entries."""
    function = BUILDERS[name]()
    dfg = function.dfg
    rng = random.Random(0xBEEF ^ hash(name) & 0xFFFF)
    size, valid = _entry_shape(dfg)
    state_ref: dict = {}
    for _step in range(STEPS):
        if function.is_barrier:
            entries = _barrier_entries(function, rng)
            values: dict = {}
            for slot, (data, mask) in entries.items():
                values.update(function.decode_entry(
                    data, mask, function.slot_input_names(slot)))
            reference = dfg.evaluate(values)
            got = function.evaluate_barrier(entries)
        else:
            data = _random_entry(rng, size)
            reference = dfg.evaluate(function.decode_entry(data, valid),
                                     state=state_ref)
            got = function.evaluate_entry(data, valid)
            assert function.state == state_ref
        assert got == [reference[out] for out in dfg.output_order]


def test_functions_never_interpret(monkeypatch):
    """``SplFunction`` evaluates only through its compiled closures, a
    regular graph with grouped inputs (no fused entry closure) too."""
    grouped = Dfg("grouped")
    x = grouped.input("x", offset=0, group="a")
    y = grouped.input("y", offset=4, group="b")
    grouped.output("s", grouped.op(DfgOp.ADD, x, y))
    functions = [builder() for builder in BUILDERS.values()]
    functions.append(SplFunction(grouped))

    def interpret(*_args, **_kwargs):
        raise AssertionError("SplFunction called Dfg.evaluate")

    monkeypatch.setattr(Dfg, "evaluate", interpret)
    rng = random.Random(5)
    for function in functions:
        if function.is_barrier:
            function.evaluate_barrier(_barrier_entries(function, rng))
        else:
            size, valid = _entry_shape(function.dfg)
            function.evaluate_entry(_random_entry(rng, size), valid)
    assert functions[-1].compiled.evaluate_entry is None


@pytest.mark.parametrize("name", ["adpcm_step", "gsm_lattice", "route"])
def test_entry_error_parity(name):
    """An invalid entry raises ``decode_entry``'s SplError verbatim."""
    function = BUILDERS[name]()
    data = bytes(16)
    with pytest.raises(SplError) as got_exc:
        function.evaluate_entry(data, 0)  # no byte is valid
    with pytest.raises(SplError) as ref_exc:
        function.decode_entry(data, 0)
    assert str(got_exc.value) == str(ref_exc.value)


def test_missing_input_error_parity():
    """Generic evaluate raises the interpreter's MappingError verbatim."""
    function = BUILDERS["mac2"]()
    compiled = compile_dfg(function.dfg)
    inputs = _random_inputs(function.dfg, random.Random(7))
    dropped = sorted(inputs)[0]
    del inputs[dropped]
    with pytest.raises(MappingError) as ref_exc:
        function.dfg.evaluate(dict(inputs))
    with pytest.raises(MappingError) as got_exc:
        compiled.evaluate(dict(inputs))
    assert str(got_exc.value) == str(ref_exc.value)


def test_compiled_source_is_inspectable():
    """The generated source is kept on the object for debugging."""
    compiled = compile_dfg(spl_lib.mac2_function().dfg)
    assert "def evaluate(" in compiled.source
    assert compiled.name == "ll3_mac2"


def test_barrier_entry_closure_absent():
    """Barrier graphs have no fused entry closure (slot-renamed inputs)."""
    function = barrier_token_function(4)
    compiled = compile_dfg(function.dfg)
    assert compiled.evaluate_entry is None


class _StatefulBuilder:
    """A tiny stateful graph exercising DELAY init-consts and updates."""

    @staticmethod
    def build() -> SplFunction:
        dfg = Dfg("delay_probe")
        x = dfg.input("x", 0)
        prev = dfg.delay(init=5)
        dfg.output("y", dfg.add(x, prev))
        dfg.set_delay_source(prev, x)
        return SplFunction(dfg)


def test_delay_state_matches_across_restart():
    """State read-before-update and init-const semantics are preserved."""
    function = _StatefulBuilder.build()
    compiled = compile_dfg(function.dfg)
    rng = random.Random(99)
    state_ref: dict = {}
    state_got: dict = {}
    for step in range(8):
        inputs = {"x": rng.randrange(-(1 << 40), 1 << 40)}
        reference = function.dfg.evaluate(dict(inputs), state=state_ref)
        got = compiled.evaluate(dict(inputs), state_got)
        assert got == reference
        assert state_got == state_ref
        if step == 0:
            # The flip-flop captured the first input.
            assert state_got


# -- ownership ----------------------------------------------------------------


class TestOwnership:
    """A compiled graph is freed by reference counting (DESIGN.md §3):
    its closures are not left in their ``exec`` namespace, which is
    their globals, so no function <-> namespace cycle waits for the
    cyclic collector."""

    def test_one_code_object_per_source(self):
        first = compile_dfg(g721.fmult_function().dfg)
        second = compile_dfg(g721.fmult_function().dfg)
        assert first.evaluate is not second.evaluate
        assert first.evaluate.__code__ is second.evaluate.__code__
        assert first.evaluate_entry.__code__ is \
            second.evaluate_entry.__code__
        assert "evaluate" not in first.evaluate.__globals__
        assert "evaluate_entry" not in first.evaluate.__globals__

    def test_compiled_graph_freed_at_del(self):
        compiled = compile_dfg(g721.fmult_function().dfg)
        refs = [weakref.ref(compiled.evaluate),
                weakref.ref(compiled.evaluate_entry)]
        enabled = gc.isenabled()
        gc.disable()
        try:
            del compiled
            alive = [ref() for ref in refs if ref() is not None]
        finally:
            if enabled:
                gc.enable()
        assert not alive, "a compiled closure outlived its last reference"

    def test_spl_run_leaves_nothing_to_the_collector(self):
        from repro.experiments.runner import execute
        from repro.workloads import registry

        def run():
            execute(registry.REGISTRY["g721dec"].variants["spl"](items=4))

        run()  # first-use imports and caches are not garbage
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            run()
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            left = sorted({type(obj).__name__ for obj in gc.garbage})
            dfg_functions = [
                obj for obj in gc.garbage
                if type(obj).__name__ == "function"
                and obj.__code__.co_filename.startswith("<dfg:")]
        finally:
            gc.set_debug(0)
            del gc.garbage[:]
            if enabled:
                gc.enable()
        assert not dfg_functions, \
            f"{len(dfg_functions)} compiled DFG closures left in cycles"
        assert not left, f"left to the cyclic collector: {left}"
