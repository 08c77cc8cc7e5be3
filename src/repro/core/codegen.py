"""DFG-to-Python closure compiler: the SPL's compiled hot path.

Real CGRA systems configure the fabric once and replay it per token;
interpreting the dataflow graph node-by-node on every staged entry
(:meth:`repro.core.dfg.Dfg.evaluate` with its per-node type dispatch)
models the *values* correctly but pays Python dispatch cost per node per
entry.  :func:`compile_dfg` removes that cost: it assembles the graph
into topologically ordered straight-line Python source, ``exec``'s it
once, and returns closures that evaluate the whole graph with no
per-node interpretation.

Contract (enforced by ``tests/test_codegen.py`` differentially against
the interpreter, and structurally by the ``GEN001`` lint rule):

* **Bit-exact equivalence** — for any inputs/state the compiled
  evaluator returns exactly what ``Dfg.evaluate`` returns, including
  signed-width narrowing (``to_signed`` wrap at every node width),
  DELAY state read/update ordering, and barrier slot-renamed inputs.
* **Same error surface** — missing inputs raise :class:`MappingError`
  with the interpreter's message; the fused entry evaluator raises
  :class:`SplError` for invalid staged bytes exactly like
  ``SplFunction.decode_entry``.
* **No hidden state** — compiled code reads only its arguments; delay
  state lives in the caller's dict, as in the interpreter.

Two closures are produced per graph:

* ``evaluate(inputs, state)`` — drop-in for ``Dfg.evaluate`` (used for
  barrier functions after per-slot decode, and by the differential
  tests).
* ``evaluate_entry(data, valid, state)`` — the regular-function hot
  path: fuses staged-entry decoding (byte extraction + valid-mask
  checks) with the graph body and returns outputs in declared order
  (regular, non-barrier graphs only).

Every :class:`~repro.core.function.SplFunction` evaluates through these
closures; ``Dfg.evaluate`` is the reference they are checked against,
never a fallback.  A graph the generator cannot handle (a future
``DfgOp`` without an emitter) raises :class:`CodegenError`, which the
``GEN001`` lint rule reports before a run.

A process compiles each generated source once (a pass builds many
instances of the same few graphs), and the closures hold no reference
back to themselves, so a compiled graph is freed by reference counting.
"""

from __future__ import annotations

from functools import lru_cache
from types import CodeType
from typing import Dict, List, Optional

from repro.common.errors import CodegenError, MappingError, SplError
from repro.core.dfg import Dfg, DfgNode, DfgOp
from repro.common.utils import to_signed

#: Ops whose result is one of the operand values (never out of operand
#: range), so the narrowing wrap can be skipped when the node is at least
#: as wide as every operand.
_VALUE_PASSING = frozenset((DfgOp.MIN, DfgOp.MAX, DfgOp.SELECT, DfgOp.PASS))

#: Binary arithmetic/logic emitters: node -> Python expression.
_BINARY = {
    DfgOp.ADD: "{a} + {b}",
    DfgOp.SUB: "{a} - {b}",
    DfgOp.MUL: "{a} * {b}",
    DfgOp.AND: "{a} & {b}",
    DfgOp.OR: "{a} | {b}",
    DfgOp.XOR: "{a} ^ {b}",
    DfgOp.SHLV: "{a} << ({b} & 31)",
    DfgOp.SHRV: "{a} >> ({b} & 31)",
}


class CompiledDfg:
    """The compiled evaluators plus their generated source (debug aid)."""

    __slots__ = ("name", "source", "evaluate", "evaluate_entry")

    def __init__(self, name: str, source: str, evaluate,
                 evaluate_entry) -> None:
        self.name = name
        self.source = source
        #: ``evaluate(inputs: Dict[str, int], state) -> Dict[str, int]``
        self.evaluate = evaluate
        #: ``evaluate_entry(data, valid, state) -> List[int]`` or None
        #: for barrier-style graphs (inputs in more than one group).
        self.evaluate_entry = evaluate_entry


def _wrap_lines(var: str, bits: int) -> List[str]:
    """Statements applying ``to_signed(var, bits)`` in place."""
    mask = (1 << bits) - 1
    top = mask >> 1
    return [f"    {var} &= {mask:#x}",
            f"    if {var} > {top:#x}: {var} -= {mask + 1:#x}"]


def _emit_op(node: DfgNode, lines: List[str]) -> None:
    """Append statements computing one non-input, non-delay node."""
    var = f"v{node.index}"
    bits = node.width * 8
    ops = [f"v{operand.index}" for operand in node.operands]
    op = node.op
    if op is DfgOp.CONST:
        lines.append(f"    {var} = {to_signed(node.const, bits)}")
        return
    if op in _BINARY:
        expr = _BINARY[op].format(a=ops[0], b=ops[1])
    elif op is DfgOp.SHL:
        expr = f"{ops[0]} << {node.const}"
    elif op is DfgOp.SHR:
        expr = f"{ops[0]} >> {node.const}"
    elif op is DfgOp.CMPGT:
        lines.append(f"    {var} = 1 if {ops[0]} > {ops[1]} else 0")
        return
    elif op is DfgOp.CMPEQ:
        lines.append(f"    {var} = 1 if {ops[0]} == {ops[1]} else 0")
        return
    elif op is DfgOp.MIN:
        expr = f"{ops[0]} if {ops[0]} < {ops[1]} else {ops[1]}"
    elif op is DfgOp.MAX:
        expr = f"{ops[0]} if {ops[0]} > {ops[1]} else {ops[1]}"
    elif op is DfgOp.SELECT:
        expr = f"{ops[1]} if {ops[0]} else {ops[2]}"
    elif op is DfgOp.PASS:
        expr = f"{ops[0]}"
    else:
        raise CodegenError(f"no emitter for {op}")
    if op in _VALUE_PASSING and \
            node.width >= max(o.width for o in node.operands):
        # Result is one of the operands, already inside this width.
        lines.append(f"    {var} = {expr}")
        return
    lines.append(f"    {var} = ({expr})")
    lines += _wrap_lines(var, bits)


def _emit_delay_read(node: DfgNode, lines: List[str]) -> None:
    var = f"v{node.index}"
    bits = node.width * 8
    lines.append("    if state is None:")
    lines.append(f"        {var} = {to_signed(node.const, bits)}")
    lines.append("    else:")
    lines.append(f"        {var} = state.get({node.index}, {node.const})")
    mask = (1 << bits) - 1
    top = mask >> 1
    lines.append(f"        {var} &= {mask:#x}")
    lines.append(f"        if {var} > {top:#x}: {var} -= {mask + 1:#x}")


def _emit_state_update(dfg: Dfg, delays: List[DfgNode],
                       lines: List[str]) -> None:
    if not delays:
        return
    lines.append("    if state is not None:")
    for node in delays:
        if not node.operands:
            lines.append(
                f"        raise MappingError("
                f"{(dfg.name + ': delay node without a source')!r})")
            continue
        lines.append(
            f"        state[{node.index}] = v{node.operands[0].index}")


def _emit_body(dfg: Dfg, lines: List[str]) -> List[DfgNode]:
    """Emit every op/const/delay-read in index order; returns delays."""
    delays: List[DfgNode] = []
    for node in dfg.nodes:
        if node.op is DfgOp.INPUT:
            continue  # loaded by the caller-specific prologue
        if node.op is DfgOp.DELAY:
            delays.append(node)
            _emit_delay_read(node, lines)
        else:
            _emit_op(node, lines)
    return delays


def _return_expr(dfg: Dfg, as_dict: bool) -> str:
    if as_dict:
        pairs = ", ".join(f"{name!r}: v{node.index}"
                          for name, node in dfg.outputs.items())
        return "    return {%s}" % pairs
    items = ", ".join(f"v{dfg.outputs[name].index}"
                      for name in dfg.output_order)
    return f"    return [{items}]"


def _generic_source(dfg: Dfg) -> str:
    lines = ["def evaluate(inputs, state=None):", "    try:"]
    for name, node in dfg.inputs.items():
        lines.append(f"        v{node.index} = inputs[{name!r}]")
    lines.append("    except KeyError:")
    lines.append("        _missing(inputs)")
    for node in dfg.inputs.values():
        lines += _wrap_lines(f"v{node.index}", node.width * 8)
    delays = _emit_body(dfg, lines)
    _emit_state_update(dfg, delays, lines)
    lines.append(_return_expr(dfg, as_dict=True))
    return "\n".join(lines) + "\n"


def _entry_source(dfg: Dfg) -> Optional[str]:
    """Fused decode+evaluate for single-group (non-barrier) graphs."""
    if any(group for group in dfg.input_groups.values()):
        return None  # slot-grouped inputs arrive as separate entries
    lines = ["def evaluate_entry(data, valid, state=None):"]
    for name, node in dfg.inputs.items():
        offset = dfg.input_offsets[name]
        mask = ((1 << node.width) - 1) << offset
        message = f"{dfg.name}: input {name!r} bytes not valid in entry"
        lines.append(f"    if valid & {mask:#x} != {mask:#x}:")
        lines.append(f"        raise SplError({message!r})")
        lines.append(
            f"    v{node.index} = _from_bytes("
            f"data[{offset}:{offset + node.width}], 'little', signed=True)")
    delays = _emit_body(dfg, lines)
    _emit_state_update(dfg, delays, lines)
    lines.append(_return_expr(dfg, as_dict=False))
    return "\n".join(lines) + "\n"


def _make_missing(dfg: Dfg):
    """The interpreter's missing-input error, reproduced verbatim."""
    declared = frozenset(dfg.inputs)
    name = dfg.name

    def _missing(inputs: Dict[str, int]) -> None:
        missing = set(declared) - set(inputs)
        raise MappingError(f"{name}: missing inputs {sorted(missing)}")

    return _missing


@lru_cache(maxsize=256)
def _code(name: str, source: str) -> CodeType:
    """One code object per (graph name, generated source) and process."""
    return compile(source, f"<dfg:{name}>", "exec")


def compile_dfg(dfg: Dfg) -> CompiledDfg:
    """Compile ``dfg`` into straight-line Python closures.

    Raises :class:`CodegenError` when the graph contains an op the
    generator cannot emit; the ``GEN001`` lint rule reports it
    statically.
    """
    generic = _generic_source(dfg)
    entry = _entry_source(dfg)
    source = generic if entry is None else generic + "\n" + entry
    namespace = {
        "MappingError": MappingError,
        "SplError": SplError,
        "_missing": _make_missing(dfg),
        "_from_bytes": int.from_bytes,
    }
    try:
        exec(_code(dfg.name, source), namespace)  # noqa: S102 - trusted
    except SyntaxError as exc:  # pragma: no cover - generator bug guard
        raise CodegenError(f"{dfg.name}: generated source does not "
                           f"compile: {exc}") from exc
    # The namespace is the closures' globals: taking them out of it
    # leaves no function <-> namespace cycle.
    return CompiledDfg(dfg.name, source, namespace.pop("evaluate"),
                       namespace.pop("evaluate_entry", None))
