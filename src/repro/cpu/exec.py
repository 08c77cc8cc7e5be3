"""Functional semantics of ALU, branch, and FP operations.

Integer registers hold signed 32-bit Python ints; all results are wrapped
back into that range.  Floating-point registers hold Python floats (the ISA
treats them as IEEE single precision only when stored to memory).
"""

from __future__ import annotations

import math

from repro.common.errors import SimulationError
from repro.isa.opcodes import Op


def _wrap(value: int) -> int:
    # to_signed(to_unsigned(value)) with the calls flattened out: this
    # runs once per ALU operation.
    value &= 0xFFFFFFFF
    return value - 0x100000000 if value > 0x7FFFFFFF else value


def _div(a: int, b: int) -> int:
    if b == 0:
        return -1  # MIPS-style: division by zero yields all ones
    return _wrap(int(a / b))  # truncate toward zero


def _rem(a: int, b: int) -> int:
    if b == 0:
        return _wrap(a)
    return _wrap(a - int(a / b) * b)


#: Per-op evaluators: one dict probe replaces the former if-chain, whose
#: average depth dominated the issue stage on ALU-heavy workloads.  These
#: tables are the one copy of the ISA's semantics: the pipeline's execute
#: stage and the compiled walk (repro.cpu.blockgen) index them directly,
#: and :func:`alu`, :func:`fp` and :func:`branch_taken` are the checked
#: wrappers for everything else.  The wrap into the signed 32-bit range
#: is written out branch-free, ``((x + 2**31) & 0xFFFFFFFF) - 2**31``
#: (equal to ``_wrap(x)`` for every int), so an ALU op is one call.
ALU_TABLE = {
    Op.ADD: lambda a, b, imm: ((a + b + 0x80000000) & 0xFFFFFFFF) - 0x80000000,
    Op.SUB: lambda a, b, imm: ((a - b + 0x80000000) & 0xFFFFFFFF) - 0x80000000,
    Op.AND: lambda a, b, imm: (
        ((a & b) + 0x80000000) & 0xFFFFFFFF) - 0x80000000,
    Op.OR: lambda a, b, imm: (
        ((a | b) + 0x80000000) & 0xFFFFFFFF) - 0x80000000,
    Op.XOR: lambda a, b, imm: (
        ((a ^ b) + 0x80000000) & 0xFFFFFFFF) - 0x80000000,
    Op.NOR: lambda a, b, imm: (
        (0x7FFFFFFF - (a | b)) & 0xFFFFFFFF) - 0x80000000,
    Op.SLL: lambda a, b, imm: (
        ((a << (b & 31)) + 0x80000000) & 0xFFFFFFFF) - 0x80000000,
    Op.SRL: lambda a, b, imm: (
        (((a & 0xFFFFFFFF) >> (b & 31)) + 0x80000000) & 0xFFFFFFFF)
    - 0x80000000,
    Op.SRA: lambda a, b, imm: (
        ((a >> (b & 31)) + 0x80000000) & 0xFFFFFFFF) - 0x80000000,
    Op.SLT: lambda a, b, imm: 1 if a < b else 0,
    Op.SLTU: lambda a, b, imm: (
        1 if (a & 0xFFFFFFFF) < (b & 0xFFFFFFFF) else 0),
    Op.ADDI: lambda a, b, imm: (
        (a + imm + 0x80000000) & 0xFFFFFFFF) - 0x80000000,
    Op.ANDI: lambda a, b, imm: (
        ((a & imm) + 0x80000000) & 0xFFFFFFFF) - 0x80000000,
    Op.ORI: lambda a, b, imm: (
        ((a | imm) + 0x80000000) & 0xFFFFFFFF) - 0x80000000,
    Op.XORI: lambda a, b, imm: (
        ((a ^ imm) + 0x80000000) & 0xFFFFFFFF) - 0x80000000,
    Op.SLLI: lambda a, b, imm: (
        ((a << (imm & 31)) + 0x80000000) & 0xFFFFFFFF) - 0x80000000,
    Op.SRLI: lambda a, b, imm: (
        (((a & 0xFFFFFFFF) >> (imm & 31)) + 0x80000000) & 0xFFFFFFFF)
    - 0x80000000,
    Op.SRAI: lambda a, b, imm: (
        ((a >> (imm & 31)) + 0x80000000) & 0xFFFFFFFF) - 0x80000000,
    Op.SLTI: lambda a, b, imm: 1 if a < imm else 0,
    Op.LI: lambda a, b, imm: ((imm + 0x80000000) & 0xFFFFFFFF) - 0x80000000,
    Op.MUL: lambda a, b, imm: ((a * b + 0x80000000) & 0xFFFFFFFF) - 0x80000000,
    Op.DIV: lambda a, b, imm: _div(a, b),
    Op.REM: lambda a, b, imm: _rem(a, b),
    Op.NOP: lambda a, b, imm: 0,
}


def _fdiv(a: float, b: float) -> float:
    if b == 0.0:  # also -0.0: the infinity takes the sign of a XOR b
        if a == 0.0 or a != a:
            return float("nan")
        return math.copysign(math.inf, a) * math.copysign(1.0, b)
    return a / b


#: Per-op floating-point evaluators, indexed like ``ALU_TABLE``.
FP_TABLE = {
    Op.FADD: lambda a, b: a + b,
    Op.FSUB: lambda a, b: a - b,
    Op.FMUL: lambda a, b: a * b,
    Op.FDIV: _fdiv,
    Op.FSLT: lambda a, b: 1 if a < b else 0,
}

#: Conditional-branch direction functions: taken or not, from the two
#: source values.
BRANCH_TABLE = {
    Op.BEQ: lambda a, b: a == b,
    Op.BNE: lambda a, b: a != b,
    Op.BLT: lambda a, b: a < b,
    Op.BGE: lambda a, b: a >= b,
    Op.BLTU: lambda a, b: (a & 0xFFFFFFFF) < (b & 0xFFFFFFFF),
    Op.BGEU: lambda a, b: (a & 0xFFFFFFFF) >= (b & 0xFFFFFFFF),
}


def alu(op: Op, a: int, b: int, imm: int) -> int:
    """Evaluate an integer ALU/MUL/DIV operation.

    ``a`` and ``b`` are the (signed) source register values; immediate
    forms pass the immediate through ``imm``.
    """
    fn = ALU_TABLE.get(op)
    if fn is None:
        raise SimulationError(f"alu cannot evaluate {op}")
    return fn(a, b, imm)


def fp(op: Op, a: float, b: float):
    """Evaluate a floating-point operation."""
    fn = FP_TABLE.get(op)
    if fn is None:
        raise SimulationError(f"fp cannot evaluate {op}")
    return fn(a, b)


def branch_taken(op: Op, a: int, b: int) -> bool:
    """Resolve a conditional branch direction."""
    fn = BRANCH_TABLE.get(op)
    if fn is None:
        raise SimulationError(f"{op} is not a conditional branch")
    return fn(a, b)
