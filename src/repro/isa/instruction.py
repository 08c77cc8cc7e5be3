"""Instruction and register representations.

Registers are encoded as small integers: ``r0``..``r31`` map to 0..31 and
``f0``..``f31`` map to 32..63.  ``r0`` is hardwired to zero.  Instructions
are plain slotted objects because the simulator touches them constantly.
"""

from __future__ import annotations

from typing import Optional

from repro.common.errors import AssemblyError
from repro.isa.opcodes import Fmt, FuClass, Op, OpInfo, info

N_INT_REGS = 32
N_FP_REGS = 32
N_ARCH_REGS = N_INT_REGS + N_FP_REGS
ZERO_REG = 0
FP_BASE = N_INT_REGS

#: Bits of ``Instruction.held_mask`` — the back-end resources one in-flight
#: instance of the instruction occupies (issue-queue slot, load/store-queue
#: slot, rename register).  The pipeline copies the mask onto each ROB
#: entry at dispatch and clears bits as the resources release.
HOLD_INT_IQ = 1
HOLD_FP_IQ = 2
HOLD_LQ = 4
HOLD_SQ = 8
HOLD_REN_INT = 16
HOLD_REN_FP = 32

#: ``Instruction.fetch_kind`` values — the fetch-stage classification the
#: pipeline's ``_predict_next`` switches on, precomputed at decode so the
#: compiled walk (repro.cpu.blockgen) can drive its fetch table off one
#: small int per instruction.
FETCH_SEQ = 0      # straight-line: next pc is pc + 1, no predictor access
FETCH_COND = 1     # conditional branch: direction predictor vs pc + 1
FETCH_JUMP = 2     # J: unconditional direct target
FETCH_CALL = 3     # JAL: push RAS, then direct target
FETCH_RET = 4      # JR: pop RAS / BTB, may stall fetch unresolved
FETCH_HALT = 5     # HALT: fetch stops dead after this instruction

_COND_BRANCH_OPS = frozenset(
    (Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BLTU, Op.BGEU))


def reg_index(name: str) -> int:
    """Translate ``"r5"`` / ``"f3"`` into the flat register index."""
    if len(name) < 2 or name[0] not in "rf":
        raise AssemblyError(f"bad register name {name!r}")
    try:
        num = int(name[1:])
    except ValueError as exc:
        raise AssemblyError(f"bad register name {name!r}") from exc
    limit = N_INT_REGS if name[0] == "r" else N_FP_REGS
    if not 0 <= num < limit:
        raise AssemblyError(f"register {name!r} out of range")
    return num if name[0] == "r" else FP_BASE + num


def reg_name(index: int) -> str:
    if 0 <= index < FP_BASE:
        return f"r{index}"
    if FP_BASE <= index < N_ARCH_REGS:
        return f"f{index - FP_BASE}"
    raise AssemblyError(f"register index {index} out of range")


def is_fp(index: int) -> bool:
    return index >= FP_BASE


class Instruction:
    """One decoded instruction.

    ``target`` holds a label name until the assembler resolves it to an
    instruction index.  ``rd``/``rs1``/``rs2`` are flat register indices or
    None.

    Decode metadata is precomputed at construction: ``info`` is a plain
    attribute (not a table lookup per access) and the written register and
    renameable sources are cached, since the fetch/rename/dispatch fast
    path of the pipeline touches them every cycle.  This is safe because
    ``op``/``rd``/``rs1``/``rs2`` never change after construction — only
    ``target`` is patched later (label resolution), and it feeds none of
    the cached values.
    """

    __slots__ = ("op", "rd", "rs1", "rs2", "imm", "target", "index",
                 "info", "_dest", "_sources", "needs_fp_iq", "needs_int_iq",
                 "uses_lq", "uses_sq", "dest_fp", "held_mask", "fetch_kind")

    def __init__(self, op: Op, rd: Optional[int] = None,
                 rs1: Optional[int] = None, rs2: Optional[int] = None,
                 imm: int = 0, target=None) -> None:
        self.op = op
        self.rd = rd
        self.rs1 = rs1
        self.rs2 = rs2
        self.imm = imm
        self.target = target
        self.index: int = -1  # set when added to a program
        op_info: OpInfo = info(op)
        self.info = op_info
        self._dest: Optional[int] = (
            rd if op_info.writes_rd and rd is not None and rd != ZERO_REG
            else None)
        regs = []
        if rs1 is not None and rs1 != ZERO_REG:
            regs.append(rs1)
        if rs2 is not None and rs2 != ZERO_REG:
            regs.append(rs2)
        self._sources = regs
        # Dispatch template: which back-end resources this instruction
        # claims.  The pipeline's dispatch stage (and its stall-key
        # mirror) consults these every attempt, so they are resolved here
        # once per instruction rather than re-derived per cycle.
        serialize = op_info.serialize
        self.needs_fp_iq: bool = op_info.fu is FuClass.FP and not serialize
        self.needs_int_iq: bool = not self.needs_fp_iq and not serialize
        self.uses_lq: bool = op_info.is_load and not serialize
        self.uses_sq: bool = op_info.is_store and not serialize
        self.dest_fp: bool = self._dest is not None and self._dest >= FP_BASE
        held = 0
        if self.needs_fp_iq:
            held |= HOLD_FP_IQ
        if self.needs_int_iq:
            held |= HOLD_INT_IQ
        if self.uses_lq:
            held |= HOLD_LQ
        if self.uses_sq:
            held |= HOLD_SQ
        if self._dest is not None:
            held |= HOLD_REN_FP if self.dest_fp else HOLD_REN_INT
        self.held_mask: int = held
        if op is Op.HALT:
            kind = FETCH_HALT
        elif not op_info.is_branch:
            kind = FETCH_SEQ
        elif op in _COND_BRANCH_OPS:
            kind = FETCH_COND
        elif op is Op.J:
            kind = FETCH_JUMP
        elif op is Op.JAL:
            kind = FETCH_CALL
        else:  # JR
            kind = FETCH_RET
        self.fetch_kind: int = kind

    def sources(self):
        """Register indices read by this instruction (excluding r0)."""
        return list(self._sources)

    def dest(self) -> Optional[int]:
        """Register written, or None (writes to r0 are discarded)."""
        return self._dest

    def __repr__(self) -> str:
        parts = [self.op.value]
        fmt = self.info.fmt
        if fmt in (Fmt.RRR,):
            parts.append(f"{reg_name(self.rd)}, {reg_name(self.rs1)}, "
                         f"{reg_name(self.rs2)}")
        elif fmt in (Fmt.RRI,):
            parts.append(f"{reg_name(self.rd)}, {reg_name(self.rs1)}, "
                         f"{self.imm}")
        elif fmt is Fmt.RI:
            parts.append(f"{reg_name(self.rd)}, {self.imm}")
        elif fmt is Fmt.BRANCH:
            parts.append(f"{reg_name(self.rs1)}, {reg_name(self.rs2)}, "
                         f"{self.target}")
        elif fmt is Fmt.JUMP:
            parts.append(str(self.target))
        elif fmt is Fmt.JREG:
            parts.append(reg_name(self.rs1))
        elif fmt is Fmt.MEM_LOAD:
            parts.append(f"{reg_name(self.rd)}, {self.imm}"
                         f"({reg_name(self.rs1)})")
        elif fmt is Fmt.MEM_STORE:
            parts.append(f"{reg_name(self.rs2)}, {self.imm}"
                         f"({reg_name(self.rs1)})")
        elif fmt is Fmt.AMO:
            parts.append(f"{reg_name(self.rd)}, {reg_name(self.rs2)}, "
                         f"({reg_name(self.rs1)})")
        elif fmt is Fmt.SPL_LOAD:
            parts.append(f"{reg_name(self.rs1)}, offset={self.imm}")
        elif fmt is Fmt.SPL_LOADM:
            parts.append(f"({reg_name(self.rs1)}), offset={self.imm}")
        elif fmt is Fmt.SPL_INIT:
            parts.append(f"config={self.imm}")
        elif fmt is Fmt.SPL_RECV:
            parts.append(reg_name(self.rd))
        elif fmt is Fmt.SPL_STORE:
            parts.append(f"{self.imm}({reg_name(self.rs1)})")
        return " ".join(p for p in parts if p)
