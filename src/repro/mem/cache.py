"""Set-associative tag array with LRU replacement.

Caches in this simulator track *which lines are present* for timing; data
itself always lives in :class:`repro.mem.memory.MainMemory`.  This
"functional data / timing tags" split is a standard fast-simulation trick:
it keeps MESI bookkeeping cheap while preserving hit/miss/eviction and
coherence behaviour exactly.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional

from repro.common.config import CacheConfig
from repro.common.stats import Stats


class TagArray:
    """LRU tag array for one cache level."""

    __slots__ = ("config", "offset_bits", "set_mask", "sets", "stats")

    def __init__(self, config: CacheConfig, stats: Stats) -> None:
        self.config = config
        self.offset_bits = config.line_bytes.bit_length() - 1
        self.set_mask = config.n_sets - 1
        # set index -> OrderedDict of line address -> True (LRU order)
        self.sets: Dict[int, "OrderedDict[int, bool]"] = {}
        self.stats = stats
        stats.declare("evictions")

    def line_addr(self, addr: int) -> int:
        return addr >> self.offset_bits

    def lookup(self, line: int) -> bool:
        """True on hit; refreshes LRU."""
        entries = self.sets.get(line & self.set_mask)
        if entries is not None and line in entries:
            entries.move_to_end(line)
            return True
        return False

    def contains(self, line: int) -> bool:
        entries = self.sets.get(line & self.set_mask)
        return entries is not None and line in entries

    def insert(self, line: int) -> Optional[int]:
        """Insert a line; returns the evicted line address, if any."""
        index = line & self.set_mask
        entries = self.sets.get(index)
        if entries is None:
            entries = OrderedDict()
            self.sets[index] = entries
        if line in entries:
            entries.move_to_end(line)
            return None
        victim = None
        if len(entries) >= self.config.assoc:
            victim, _ = entries.popitem(last=False)
            self.stats.bump("evictions")
        entries[line] = True
        return victim

    def remove(self, line: int) -> bool:
        entries = self.sets.get(line & self.set_mask)
        if entries is not None and line in entries:
            del entries[line]
            return True
        return False

    def occupancy(self) -> int:
        return sum(len(entries) for entries in self.sets.values())

    def snapshot_state(self) -> dict:
        """Per-set line lists in LRU order (order is semantic: restore
        must reproduce the exact same eviction victims)."""
        return {"sets": [[index, list(entries)]
                         for index, entries in sorted(self.sets.items())]}

    def restore_state(self, state: dict) -> None:
        self.sets = {index: OrderedDict((line, True) for line in lines)
                     for index, lines in state["sets"]}
