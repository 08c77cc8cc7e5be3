"""Static mappability rules for SPL functions and their DFGs.

* **MAP001** (error) — the DFG fails validation, cannot be mapped onto
  SPL rows at all, or the produced mapping violates its own invariants
  (dependence order / row capacity) under some evaluated partition size.
* **MAP002** (error) — the function's feedback initiation interval is
  illegal: a retimed override below 1, or a stateful function whose
  effective II cannot sustain any issue rate.
* **MAP003** (error) — a *stateful* non-barrier function instance is
  bound on more than one slot; its delay-register state would be shared
  between threads (reported from binding tables in ``repro.analysis.lint``
  via :func:`check_shared_state`).
* **GEN001** (error) — the DFG does not compile to the closure form
  (:func:`repro.core.codegen.compile_dfg`) or the compiled evaluator
  disagrees with the interpreter on a deterministic probe input; a run
  that binds it would fail with :class:`CodegenError`, or compute
  values the interpreter does not.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.common.errors import CodegenError, MappingError
from repro.core.codegen import compile_dfg
from repro.core.dfg import Dfg, DfgOp
from repro.core.function import SplFunction
from repro.core.mapper import initiation_interval, map_dfg, verify_mapping

#: Partition sizes evaluated for library functions when no system spec
#: pins the actual layouts: the full 24-row array and the halved and
#: quartered partitions the experiments sweep.
DEFAULT_PARTITION_ROWS = (24, 12, 6)


def lint_dfg(dfg: Dfg, unit: str,
             partition_rows: Iterable[int] = DEFAULT_PARTITION_ROWS,
             cells_per_row: int = 16) -> List[Diagnostic]:
    """Check that ``dfg`` validates, maps, and virtualizes legally."""
    diagnostics: List[Diagnostic] = []
    try:
        dfg.validate()
        mapping = map_dfg(dfg, cells_per_row)
        verify_mapping(dfg, mapping, cells_per_row)
    except MappingError as exc:
        diagnostics.append(Diagnostic(
            rule="MAP001", severity=Severity.ERROR,
            message=f"dfg does not map: {exc}", unit=unit, dfg=dfg.name))
        return diagnostics
    for rows in partition_rows:
        try:
            initiation_interval(mapping.rows, rows)
        except MappingError as exc:
            diagnostics.append(Diagnostic(
                rule="MAP001", severity=Severity.ERROR,
                message=f"illegal under a {rows}-row partition: {exc}",
                unit=unit, dfg=dfg.name))
    return diagnostics


def lint_function(function: SplFunction, unit: str,
                  partition_rows: Iterable[int] = DEFAULT_PARTITION_ROWS,
                  cells_per_row: int = 16) -> List[Diagnostic]:
    """Check one constructed SPL function (legality + II + codegen)."""
    diagnostics = lint_dfg(function.dfg, unit, partition_rows, cells_per_row)
    diagnostics += check_codegen(function.dfg, unit)
    if function.feedback_ii < 1:
        diagnostics.append(Diagnostic(
            rule="MAP002", severity=Severity.ERROR,
            message=f"feedback initiation interval {function.feedback_ii} "
                    f"< 1 (retimed override below the hardware minimum)",
            unit=unit, dfg=function.dfg.name))
    elif function.is_stateful and \
            function.feedback_ii > function.mapping.rows:
        diagnostics.append(Diagnostic(
            rule="MAP002", severity=Severity.WARNING,
            message=f"feedback initiation interval {function.feedback_ii} "
                    f"exceeds the function depth ({function.mapping.rows} "
                    f"rows); issues serialize behind the feedback path",
            unit=unit, dfg=function.dfg.name))
    return diagnostics


def check_codegen(dfg: Dfg, unit: str) -> List[Diagnostic]:
    """GEN001: the DFG compiles and the closure matches the interpreter.

    The probe input is deterministic (a fixed multiplicative pattern per
    input, wide enough to exercise the signed-width narrowing) so lint
    output is stable run to run; the randomized sweep lives in
    ``tests/test_codegen.py``.
    """
    try:
        compiled = compile_dfg(dfg)
    except CodegenError as exc:
        return [Diagnostic(
            rule="GEN001", severity=Severity.ERROR,
            message=f"dfg does not compile to a closure: {exc}",
            unit=unit, dfg=dfg.name)]
    inputs = {name: (index + 1) * -2654435761
              for index, name in enumerate(dfg.inputs)}
    stateful = any(node.op is DfgOp.DELAY for node in dfg.nodes)
    try:
        state_ref: Dict[int, int] = {}
        state_got: Dict[int, int] = {}
        reference = dfg.evaluate(dict(inputs),
                                 state=state_ref if stateful else None)
        got = compiled.evaluate(dict(inputs),
                                state_got if stateful else None)
    except MappingError:
        # An unmappable graph is MAP001's finding, not codegen's.
        return []
    if got != reference or state_got != state_ref:
        return [Diagnostic(
            rule="GEN001", severity=Severity.ERROR,
            message="compiled evaluator disagrees with the interpreter "
                    "on the probe input",
            unit=unit, dfg=dfg.name)]
    return []


def check_shared_state(bindings: Dict[Tuple[int, int], SplFunction],
                       unit: str) -> List[Diagnostic]:
    """MAP003 over a {(slot, config id): function} binding table."""
    slots_of: Dict[int, set] = {}
    names: Dict[int, str] = {}
    for (slot, _config), function in bindings.items():
        if function.is_stateful and not function.is_barrier:
            slots_of.setdefault(id(function), set()).add(slot)
            names[id(function)] = function.dfg.name
    diagnostics: List[Diagnostic] = []
    for key, slots in sorted(slots_of.items(), key=lambda kv: names[kv[0]]):
        if len(slots) > 1:
            diagnostics.append(Diagnostic(
                rule="MAP003", severity=Severity.ERROR,
                message=f"stateful function instance bound on slots "
                        f"{sorted(slots)}; delay-register state would be "
                        f"shared between threads (bind one instance per "
                        f"slot)",
                unit=unit, dfg=names[key]))
    return diagnostics
