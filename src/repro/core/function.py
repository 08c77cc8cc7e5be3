"""SPL function objects: a mapped dataflow graph plus issue metadata.

Two kinds exist (Section II-B):

* **Regular functions** read their inputs from the issuing core's sealed
  input-queue entry and deliver outputs either back to the issuing core
  (individual computation, Figure 1(a)) or to a consumer thread's output
  queue (communication+computation, Figure 1(b)).
* **Barrier functions** (Figure 1(c)) consume the queue-head entries of
  *all* participating cores of the cluster at once and broadcast their
  outputs to every participant.  Their DFG inputs are named ``s<slot>_*``
  where ``slot`` is the participant's position among the cluster's
  participating cores.

Both kinds evaluate through the graph's compiled closures
(:mod:`repro.core.codegen`), the model of a configured fabric;
``Dfg.evaluate`` and :meth:`SplFunction.decode_entry` stay as the
reference that ``tests/test_codegen.py`` and the ``GEN001`` lint rule
compare them with.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Sequence

from repro.common.errors import SplError
from repro.core.codegen import CompiledDfg, compile_dfg
from repro.core.dfg import Dfg, DfgOp
from repro.core.mapper import RowMapping, map_dfg


class SplFunction:
    """An SPL configuration ready to be bound to cores."""

    def __init__(self, dfg: Dfg, is_barrier: bool = False,
                 cells_per_row: int = 16,
                 retimed_feedback_ii: Optional[int] = None) -> None:
        """``retimed_feedback_ii`` overrides the mapper's conservative
        feedback initiation interval for stateful graphs whose delay
        elements can be retimed across rows (systolic mapping of lattice/
        IIR recurrences): successive inputs then enter every
        ``retimed_feedback_ii`` fabric cycles instead of waiting for the
        whole feedback path."""
        self.dfg = dfg
        self.is_barrier = is_barrier
        self.mapping: RowMapping = map_dfg(dfg, cells_per_row)
        self.rows = self.mapping.rows
        self._feedback_override = retimed_feedback_ii
        #: Flip-flop contents of the function's delay registers.  State
        #: lives with the function *instance*: time-multiplexing a stateful
        #: configuration between threads would require a state swap, so
        #: stateful workloads bind one instance per thread/partition.
        self.state: dict = {}
        # Compiled hot path (DESIGN.md "Compiled hot paths"): the DFG is
        # assembled once into straight-line Python on first evaluation.
        # A graph the generator cannot emit raises CodegenError, which
        # the GEN001 lint rule reports before a run.
        self._compiled: Optional[CompiledDfg] = None
        self._compiled_version = -1

    @property
    def is_stateful(self) -> bool:
        return self.dfg.is_stateful

    @property
    def feedback_ii(self) -> int:
        if self._feedback_override is not None:
            return self._feedback_override
        return self.mapping.feedback_ii

    def reset_state(self) -> None:
        self.state.clear()

    @property
    def compiled(self) -> CompiledDfg:
        """The compiled evaluators, rebuilt when the graph has changed."""
        if self._compiled is None or \
                self._compiled_version != self.dfg._version:
            self._compiled = compile_dfg(self.dfg)
            self._compiled_version = self.dfg._version
        return self._compiled

    @property
    def name(self) -> str:
        return self.dfg.name

    @property
    def n_outputs(self) -> int:
        return len(self.dfg.output_order)

    # -- input decoding ---------------------------------------------------------

    def decode_entry(self, data: bytes, valid: int,
                     names: Optional[Sequence[str]] = None) -> Dict[str, int]:
        """Decode named inputs from one 16-byte staged entry."""
        names = names if names is not None else list(self.dfg.inputs)
        values: Dict[str, int] = {}
        for name in names:
            node = self.dfg.inputs[name]
            offset = self.dfg.input_offsets[name]
            mask = ((1 << node.width) - 1) << offset
            if (valid & mask) != mask:
                raise SplError(
                    f"{self.name}: input {name!r} bytes not valid in entry")
            raw = data[offset:offset + node.width]
            values[name] = int.from_bytes(raw, "little", signed=True)
        return values

    def slot_input_names(self, slot: int) -> List[str]:
        """Barrier functions: inputs contributed by participant ``slot``."""
        prefix = f"s{slot}_"
        return [n for n in self.dfg.inputs if n.startswith(prefix)]

    def evaluate_entry(self, data: bytes, valid: int) -> List[int]:
        """Evaluate a regular function on one staged entry; word outputs."""
        if self.is_barrier:
            raise SplError(f"{self.name}: barrier function needs all slots")
        compiled = self.compiled
        if compiled.evaluate_entry is not None:
            # Fused decode+evaluate closure; bit-exact with the path below.
            return compiled.evaluate_entry(data, valid, self.state)
        outputs = compiled.evaluate(self.decode_entry(data, valid),
                                    self.state)
        return [outputs[name] for name in self.dfg.output_order]

    def evaluate_barrier(self, entries: Dict[int, tuple]) -> List[int]:
        """Evaluate a barrier function on {slot: (data, valid)} entries."""
        if not self.is_barrier:
            raise SplError(f"{self.name}: not a barrier function")
        values: Dict[str, int] = {}
        for slot, (data, valid) in entries.items():
            names = self.slot_input_names(slot)
            local = self.decode_entry(data, valid, names)
            # Per-slot inputs share offsets across slots; rename back.
            values.update(local)
        missing = set(self.dfg.inputs) - set(values)
        if missing:
            raise SplError(f"{self.name}: no participant provided "
                           f"{sorted(missing)}")
        outputs = self.compiled.evaluate(values)
        return [outputs[name] for name in self.dfg.output_order]


def pack_word(value: int) -> bytes:
    return struct.pack("<i", value & 0xFFFFFFFF if value >= 0 else value)


# -- common function builders -------------------------------------------------


def identity_function(name: str = "route", n_words: int = 1) -> SplFunction:
    """Pure communication: pass staged words through unchanged (1 row)."""
    dfg = Dfg(name)
    for i in range(n_words):
        node = dfg.input(f"v{i}", offset=4 * i, width=4)
        dfg.output(f"v{i}", dfg.op(DfgOp.PASS, node))
    return SplFunction(dfg)


def barrier_token_function(n_slots: int, name: str = "barrier") -> SplFunction:
    """Synchronization-only barrier: consume one word per participant and
    hand each participant a token (1 row)."""
    dfg = Dfg(name)
    nodes = [dfg.input(f"s{slot}_v", offset=0, width=4, group=f"s{slot}")
             for slot in range(n_slots)]
    token = dfg.op(DfgOp.PASS, nodes[0])
    dfg.output("token", token)
    return SplFunction(dfg, is_barrier=True)


def barrier_reduce_function(n_slots: int, op: DfgOp,
                            name: str = "reduce") -> SplFunction:
    """Barrier with integrated reduction (e.g. the Dijkstra global minimum,
    Figure 7(c)): a balanced tree of ``op`` over one word per participant."""
    if op not in (DfgOp.MIN, DfgOp.MAX, DfgOp.ADD):
        raise SplError(f"unsupported barrier reduction {op}")
    dfg = Dfg(name)
    level = [dfg.input(f"s{slot}_v", offset=0, width=4, group=f"s{slot}")
             for slot in range(n_slots)]
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(dfg.op(op, level[i], level[i + 1]))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    result = level[0]
    if result.op is DfgOp.INPUT:  # single participant: still one fabric pass
        result = dfg.op(DfgOp.PASS, result)
    dfg.output("result", result)
    return SplFunction(dfg, is_barrier=True)
