"""Differential equivalence: compiled DFG closures vs the interpreter.

The codegen contract (DESIGN.md "Compiled hot paths") is that for every
graph the generator accepts, the compiled closure is bit-exact with
``Dfg.evaluate`` — same outputs, same delay-register state evolution, and
same error behaviour.  This suite sweeps the entire SPL function library
(the lint library set plus every workload-module builder) on randomized
inputs, including stateful/DELAY functions over multi-step sequences and
barrier functions, and checks the fused byte-entry path against an
interpreter-only twin constructed under ``REPRO_NO_CODEGEN=1``.
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
#: instances) so each test can construct fresh state and fresh instances
#: under a patched environment.
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


@pytest.fixture
def no_codegen(monkeypatch):
    """Functions constructed under this fixture interpret every entry."""
    monkeypatch.setenv("REPRO_NO_CODEGEN", "1")


def test_library_covers_lint_sweep():
    # The lint library set must be a subset of what this suite sweeps.
    lint_names = {function.dfg.name for _unit, function in
                  library_functions()}
    swept = {builder().dfg.name for builder in BUILDERS.values()}
    assert lint_names <= swept


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
def test_entry_path_matches_interpreted_twin(name, monkeypatch):
    """Byte-entry evaluation: codegen-on vs codegen-off instances agree."""
    fast = BUILDERS[name]()
    monkeypatch.setenv("REPRO_NO_CODEGEN", "1")
    slow = BUILDERS[name]()
    assert fast.compiled is not None
    assert slow.compiled is None
    rng = random.Random(0xBEEF ^ hash(name) & 0xFFFF)
    size, valid = _entry_shape(fast.dfg)
    for _step in range(STEPS):
        if fast.is_barrier:
            slots = sorted({int(n.split("_")[0][1:])
                            for n in fast.dfg.inputs})
            entries = {slot: (_random_entry(rng, size), valid)
                       for slot in slots}
            assert (fast.evaluate_barrier(entries)
                    == slow.evaluate_barrier(entries))
        else:
            data = _random_entry(rng, size)
            assert (fast.evaluate_entry(data, valid)
                    == slow.evaluate_entry(data, valid))
            assert fast.state == slow.state


@pytest.mark.parametrize("name", ["adpcm_step", "gsm_lattice", "route"])
def test_entry_error_parity(name, monkeypatch):
    """Invalid entries raise the same SplError either way."""
    fast = BUILDERS[name]()
    monkeypatch.setenv("REPRO_NO_CODEGEN", "1")
    slow = BUILDERS[name]()
    data = bytes(16)
    with pytest.raises(SplError) as fast_exc:
        fast.evaluate_entry(data, 0)  # no byte is valid
    with pytest.raises(SplError) as slow_exc:
        slow.evaluate_entry(data, 0)
    assert str(fast_exc.value) == str(slow_exc.value)


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


def test_no_codegen_disables_compilation(no_codegen):
    function = spl_lib.mac2_function()
    assert function.compiled is None
    # ...and the entry path still works, interpreted.
    dfg = function.dfg
    values = {name: 1 for name in dfg.inputs}
    assert function.dfg.evaluate(values) is not None


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
