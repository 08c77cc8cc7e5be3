"""Functional main memory.

One sparse word-addressed store shared by every core.  Coherence and timing
live in :mod:`repro.mem.hierarchy`; this class is purely functional, so the
simulator always has a single authoritative copy of data.
"""

from __future__ import annotations

import struct
from typing import Dict

from repro.common.errors import MemoryFault
from repro.common.utils import to_signed, to_unsigned
from repro.isa.program import MemoryImage


class MainMemory:
    """Sparse 32-bit word memory with byte/halfword accessors."""

    def __init__(self) -> None:
        self.words: Dict[int, int] = {}

    def load_image(self, image: MemoryImage) -> None:
        for word_addr, value in image.items():
            self.words[word_addr] = value

    # -- snapshot contract (DESIGN.md §8) -------------------------------------

    def snapshot_state(self) -> dict:
        return {"words": [[addr, value]
                          for addr, value in sorted(self.words.items())]}

    def restore_state(self, state: dict) -> None:
        self.words = {addr: value for addr, value in state["words"]}

    # -- word accessors -------------------------------------------------------

    def read_word(self, addr: int) -> int:
        if addr & 3:
            raise MemoryFault(f"unaligned word read at {addr:#x}")
        return self.words.get(addr >> 2, 0)

    def write_word(self, addr: int, value: int) -> None:
        if addr & 3:
            raise MemoryFault(f"unaligned word write at {addr:#x}")
        self.words[addr >> 2] = value & 0xFFFFFFFF

    def read_word_signed(self, addr: int) -> int:
        # to_signed(read_word(addr)) in one call: every LW reads through
        # here.
        if addr & 3:
            raise MemoryFault(f"unaligned word read at {addr:#x}")
        value = self.words.get(addr >> 2, 0) & 0xFFFFFFFF
        return value - 0x100000000 if value > 0x7FFFFFFF else value

    # -- sub-word accessors ----------------------------------------------------

    def read_byte(self, addr: int) -> int:
        word = self.words.get(addr >> 2, 0)
        return (word >> ((addr & 3) * 8)) & 0xFF

    def write_byte(self, addr: int, value: int) -> None:
        shift = (addr & 3) * 8
        word = self.words.get(addr >> 2, 0)
        self.words[addr >> 2] = (word & ~(0xFF << shift)) | ((value & 0xFF) << shift)

    def read_half(self, addr: int) -> int:
        if addr & 1:
            raise MemoryFault(f"unaligned halfword read at {addr:#x}")
        word = self.words.get(addr >> 2, 0)
        return (word >> ((addr & 2) * 8)) & 0xFFFF

    def write_half(self, addr: int, value: int) -> None:
        if addr & 1:
            raise MemoryFault(f"unaligned halfword write at {addr:#x}")
        shift = (addr & 2) * 8
        word = self.words.get(addr >> 2, 0)
        self.words[addr >> 2] = (word & ~(0xFFFF << shift)) | (
            (value & 0xFFFF) << shift)

    # -- floats (IEEE-754 single stored in a word) -----------------------------

    def read_float(self, addr: int) -> float:
        return struct.unpack("<f", struct.pack("<I", self.read_word(addr)))[0]

    def write_float(self, addr: int, value: float) -> None:
        self.write_word(addr, struct.unpack("<I", struct.pack("<f", value))[0])

    # -- debugging helpers ------------------------------------------------------

    def read_words(self, addr: int, count: int):
        return [to_signed(self.read_word(addr + 4 * i)) for i in range(count)]

    def write_words(self, addr: int, values) -> None:
        for i, value in enumerate(values):
            self.write_word(addr + 4 * i, to_unsigned(value))
