"""SPL protocol verification by abstract interpretation over the CFG.

The abstract state tracks, per program point:

* which staging-entry bytes are *must*-staged (valid on every path) and
  *may*-staged (valid on some path) since the last ``spl_init``;
* how many words the thread has popped (``spl_recv``/``spl_store``), as a
  small set of possible counts that widens to TOP in loops;
* how many times each config id has been issued, likewise.

Rules emitted here (per program); the cross-thread balance rules
(SPL004/005/006) combine the returned :class:`SplSummary` values in
``repro.analysis.lint``:

* **SPL001** (error) — ``spl_init`` names a config id with no binding on
  the issuing core's slot; the simulator raises ``SplError``.
* **SPL002** — staging a byte range that overlaps bytes already staged
  since the last seal; the earlier word is silently overwritten (error
  when the overlap exists on every path, warning when only on some).
* **SPL003** — ``spl_init`` issues a function whose input bytes (for the
  issuing slot, for barrier functions) are not all staged; decoding
  would raise at runtime (error when some byte is staged on no path,
  warning when staged only on some paths).
* **SPL007** (error) — the program executes SPL instructions but runs on
  a core with no SPL port attached.
* **SPL008** — a dedicated-network send seals a staging entry containing
  no fully-valid aligned word; the network raises (error/warning with
  the same must/may split as SPL003).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, FrozenSet, List, Mapping, NamedTuple,
                    Optional, Sequence, Set, Tuple)

from repro.analysis.cfg import Cfg
from repro.analysis.dataflow import ForwardAnalysis, exit_states, forward
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.core.queues import ENTRY_BYTES
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.isa.program import Program

# -- small integer sets with TOP ---------------------------------------------

#: A set of possible counter values; ``None`` is TOP (unknown, typically a
#: loop-carried count).
IntSet = Optional[FrozenSet[int]]

_CAP_LEN = 8
_CAP_MAX = 64

ZERO: IntSet = frozenset({0})


def _cap(values: FrozenSet[int]) -> IntSet:
    if len(values) > _CAP_LEN or (values and max(values) > _CAP_MAX):
        return None
    return values


def iadd(values: IntSet, k: int) -> IntSet:
    return None if values is None else _cap(frozenset(v + k for v in values))


def ijoin(a: IntSet, b: IntSet) -> IntSet:
    if a is None or b is None:
        return None
    return _cap(a | b)


def iplus(a: IntSet, b: IntSet) -> IntSet:
    """Pairwise sums of two counter sets (TOP-propagating)."""
    if a is None or b is None:
        return None
    return _cap(frozenset(x + y for x in a for y in b))


def imul(a: IntSet, b: IntSet) -> IntSet:
    """Pairwise products of two counter sets (TOP-propagating)."""
    if a is None or b is None:
        return None
    return _cap(frozenset(x * y for x in a for y in b))


def iexact(values: IntSet) -> Optional[int]:
    """The single possible value, or ``None`` when unknown/ambiguous."""
    if values is not None and len(values) == 1:
        return next(iter(values))
    return None


# -- abstract state ----------------------------------------------------------

Issues = Tuple[Tuple[int, IntSet], ...]


class SplState(NamedTuple):
    """An immutable value: states compare and hash by their fields."""

    staged_must: FrozenSet[int] = frozenset()
    staged_may: FrozenSet[int] = frozenset()
    pops: IntSet = ZERO
    issues: Issues = ()

    def issue_count(self, config: int) -> IntSet:
        for key, values in self.issues:
            if key == config:
                return values
        return ZERO

    def with_issue(self, config: int) -> "SplState":
        counts = dict(self.issues)
        counts[config] = iadd(self.issue_count(config), 1)
        return SplState(frozenset(), frozenset(), self.pops,
                        tuple(sorted(counts.items(), key=lambda kv: kv[0])))


def _join(a: SplState, b: SplState) -> SplState:
    # Every counter set is already capped, so joining a state with an
    # equal one gives it back unchanged.
    if a == b:
        return a
    issues = a.issues
    if issues != b.issues:
        configs = {key for key, _ in issues} | {key for key, _ in b.issues}
        issues = tuple(sorted(
            (config, ijoin(a.issue_count(config), b.issue_count(config)))
            for config in configs))
    return SplState(a.staged_must & b.staged_must,
                    a.staged_may | b.staged_may, ijoin(a.pops, b.pops),
                    issues)


def _staged_bytes(inst: Instruction) -> Optional[FrozenSet[int]]:
    """Byte offsets written by a staging instruction, else ``None``."""
    if inst.op is Op.SPL_LOAD:
        start, width = inst.imm, 4
    elif inst.op is Op.SPL_LOADM:
        start, width = inst.target, 4
    elif inst.op is Op.SPL_LOADV:
        start, width = inst.target, 16
    else:
        return None
    return frozenset(range(start, min(start + width, ENTRY_BYTES)))


def _step(inst: Instruction) -> Optional[Callable[[SplState], SplState]]:
    """What ``inst`` does to the state; ``None`` when it leaves it."""
    staged = _staged_bytes(inst)
    if staged is not None:
        return lambda state: SplState(state.staged_must | staged,
                                      state.staged_may | staged,
                                      state.pops, state.issues)
    if inst.op is Op.SPL_INIT:
        config = inst.imm
        return lambda state: state.with_issue(config)
    if inst.op in (Op.SPL_RECV, Op.SPL_STORE):
        return lambda state: SplState(state.staged_must, state.staged_may,
                                      iadd(state.pops, 1), state.issues)
    return None


def _transfer(insts: Sequence[Instruction]
              ) -> Callable[[SplState, int], SplState]:
    # Each PC's action is decided once per program, not once per visit.
    steps = [_step(inst) for inst in insts]

    def transfer(state: SplState, pc: int) -> SplState:
        step = steps[pc]
        return state if step is None else step(state)
    return transfer


# -- per-thread context and summary ------------------------------------------

@dataclass
class SplContext:
    """What the linter knows about the core a program runs on.

    ``known_configs=None`` means the binding table is unknown (standalone
    program lint) and SPL001/SPL003/SPL008 are skipped.
    """

    port_kind: Optional[str] = None  # "fabric" | "comm" | None (no port)
    known_configs: Optional[FrozenSet[int]] = None
    #: config id -> staging bytes its function decodes (this slot's inputs
    #: for barrier functions); coverage is checked at each ``spl_init``.
    required_bytes: Mapping[int, FrozenSet[int]] = field(default_factory=dict)
    #: config ids bound as dedicated-network point-to-point sends, which
    #: require at least one fully-staged word (SPL008).
    comm_send_configs: FrozenSet[int] = frozenset()


@dataclass
class SplSummary:
    """Joined thread-exit counters for the cross-thread balance rules."""

    has_spl: bool = False
    pops: IntSet = ZERO
    issues: Dict[int, IntSet] = field(default_factory=dict)
    #: Fully-staged word counts observed at each config's ``spl_init``
    #: sites (TOP when any site's staging differs between paths); this is
    #: how many words a dedicated-network send delivers.
    init_words: Dict[int, IntSet] = field(default_factory=dict)


def _full_words(staged: FrozenSet[int]) -> int:
    return sum(1 for offset in range(0, ENTRY_BYTES, 4)
               if all(offset + i in staged for i in range(4)))


def _byte_ranges(missing: FrozenSet[int]) -> str:
    runs: List[Tuple[int, int]] = []
    for offset in sorted(missing):
        if runs and offset == runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], offset)
        else:
            runs.append((offset, offset))
    return ", ".join(f"{a}" if a == b else f"{a}..{b}" for a, b in runs)


def analyze_spl(program: Program, cfg: Cfg,
                context: Optional[SplContext] = None,
                unit: str = "") -> Tuple[List[Diagnostic], SplSummary]:
    """Check the SPL protocol rules and summarize exit-time counters."""
    insts = program.instructions
    spl_pcs = [pc for pc, inst in enumerate(insts) if inst.info.is_spl]
    if not spl_pcs:
        return [], SplSummary()

    diagnostics: List[Diagnostic] = []
    if context is not None and context.port_kind is None:
        diagnostics.append(Diagnostic(
            rule="SPL007", severity=Severity.ERROR,
            message=f"{len(spl_pcs)} SPL instructions but the thread's "
                    f"core has no SPL port attached",
            unit=unit, program=program.name, pc=spl_pcs[0]))

    analysis: ForwardAnalysis[SplState] = ForwardAnalysis(
        entry=SplState(), join=_join, transfer=_transfer(insts))
    in_states = forward(analysis, cfg)

    reported: Set[Tuple[str, int]] = set()
    init_words: Dict[int, IntSet] = {}

    def report(rule: str, severity: Severity, pc: int, message: str) -> None:
        if (rule, pc) not in reported:
            reported.add((rule, pc))
            diagnostics.append(Diagnostic(
                rule=rule, severity=severity, message=message,
                unit=unit, program=program.name, pc=pc))

    for index, state in in_states.items():
        for pc in cfg.blocks[index].pcs():
            inst = insts[pc]
            staged = _staged_bytes(inst)
            if staged is not None:
                if staged & state.staged_must:
                    report("SPL002", Severity.ERROR, pc,
                           f"{inst!r} restages bytes "
                           f"{_byte_ranges(staged & state.staged_must)} "
                           f"already staged since the last spl_init; the "
                           f"earlier value is overwritten")
                elif staged & state.staged_may:
                    report("SPL002", Severity.WARNING, pc,
                           f"{inst!r} may restage bytes "
                           f"{_byte_ranges(staged & state.staged_may)} "
                           f"staged on some path since the last spl_init")
            elif inst.op is Op.SPL_INIT:
                config = inst.imm
                if state.staged_must == state.staged_may and \
                        config in init_words:
                    init_words[config] = ijoin(
                        init_words[config],
                        frozenset({_full_words(state.staged_must)}))
                elif state.staged_must == state.staged_may:
                    init_words[config] = frozenset(
                        {_full_words(state.staged_must)})
                else:
                    init_words[config] = None
                if context is None:
                    state = analysis.transfer(state, pc)
                    continue
                known = context.known_configs
                if known is not None and config not in known:
                    report("SPL001", Severity.ERROR, pc,
                           f"spl_init with unbound config id {config} "
                           f"(bound: {sorted(known) or 'none'})")
                elif config in context.required_bytes:
                    required = context.required_bytes[config]
                    never = required - state.staged_may
                    sometimes = required - state.staged_must
                    if never:
                        report("SPL003", Severity.ERROR, pc,
                               f"spl_init({config}) with input bytes "
                               f"{_byte_ranges(never)} never staged; "
                               f"decode would raise at runtime")
                    elif sometimes:
                        report("SPL003", Severity.WARNING, pc,
                               f"spl_init({config}) with input bytes "
                               f"{_byte_ranges(sometimes)} staged only on "
                               f"some paths")
                elif config in context.comm_send_configs:
                    if _full_words(state.staged_may) == 0:
                        report("SPL008", Severity.ERROR, pc,
                               f"network send (config {config}) with no "
                               f"fully staged word; the network raises")
                    elif _full_words(state.staged_must) == 0:
                        report("SPL008", Severity.WARNING, pc,
                               f"network send (config {config}) may seal "
                               f"with no fully staged word on some path")
            state = analysis.transfer(state, pc)

    exits = exit_states(analysis, cfg, in_states)
    if exits:
        final = exits[0]
        for state in exits[1:]:
            final = _join(final, state)
        summary = SplSummary(has_spl=True, pops=final.pops,
                             issues={config: values
                                     for config, values in final.issues},
                             init_words=init_words)
    else:
        # No reachable halt (CFG002 reports that); counters are unknown.
        summary = SplSummary(has_spl=True, pops=None, issues={},
                             init_words=init_words)
    return diagnostics, summary
