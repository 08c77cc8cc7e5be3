"""Branch prediction: gshare + bimodal hybrid, BTB, and return address stack.

Table II specifies a "gshare + bimodal" predictor with 32 RAS entries and a
512 B BTB.  The hybrid uses a chooser table of two-bit counters that learns,
per branch, which component predicts better (a McFarling-style combining
predictor).
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.config import BranchPredictorConfig
from repro.common.stats import Stats


class _CounterTable:
    """Table of two-bit saturating counters, initialized weakly taken.

    ``version`` counts the updates that changed a counter (a saturated
    counter staying put is not a change), so an unchanged version proves
    the table unchanged without comparing it.  It is a hint for the
    periodic-elision probe, not simulated state.
    """

    __slots__ = ("mask", "counters", "version")

    def __init__(self, index_bits: int) -> None:
        self.mask = (1 << index_bits) - 1
        self.counters: List[int] = [2] * (1 << index_bits)
        self.version = 0

    def predict(self, index: int) -> bool:
        return self.counters[index & self.mask] >= 2

    def update(self, index: int, taken: bool) -> None:
        slot = index & self.mask
        value = self.counters[slot]
        if taken:
            if value < 3:
                self.counters[slot] = value + 1
                self.version += 1
        elif value > 0:
            self.counters[slot] = value - 1
            self.version += 1


class HybridPredictor:
    """gshare + bimodal with a chooser, plus BTB and RAS."""

    def __init__(self, config: BranchPredictorConfig, stats: Stats) -> None:
        self.config = config
        self.stats = stats
        stats.declare("branches", "btb_hits", "btb_misses")
        self.bimodal = _CounterTable(config.bimodal_bits)
        self.gshare = _CounterTable(config.gshare_bits)
        self.chooser = _CounterTable(config.chooser_bits)
        self.history = 0
        self.history_mask = (1 << config.gshare_bits) - 1
        self.btb: List[Optional[tuple]] = [None] * config.btb_entries
        self.ras: List[int] = []

    # -- direction -----------------------------------------------------------

    def predict_direction(self, pc: int) -> bool:
        """Predict taken/not-taken for the conditional branch at ``pc``."""
        gshare_index = (pc ^ self.history) & self.history_mask
        use_gshare = self.chooser.predict(pc)
        if use_gshare:
            return self.gshare.predict(gshare_index)
        return self.bimodal.predict(pc)

    def update_direction(self, pc: int, taken: bool) -> None:
        gshare_index = (pc ^ self.history) & self.history_mask
        g_pred = self.gshare.predict(gshare_index)
        b_pred = self.bimodal.predict(pc)
        if g_pred != b_pred:
            self.chooser.update(pc, g_pred == taken)
        self.gshare.update(gshare_index, taken)
        self.bimodal.update(pc, taken)
        self.history = ((self.history << 1) | int(taken)) & self.history_mask
        self.stats.bump("branches")
        # Direction accuracy is recorded by the pipeline, which knows the
        # prediction actually acted upon.

    # -- targets ---------------------------------------------------------------

    def btb_lookup(self, pc: int) -> Optional[int]:
        entry = self.btb[pc % len(self.btb)]
        if entry is not None and entry[0] == pc:
            self.stats.bump("btb_hits")
            return entry[1]
        self.stats.bump("btb_misses")
        return None

    def btb_update(self, pc: int, target: int) -> None:
        self.btb[pc % len(self.btb)] = (pc, target)

    # -- return address stack ------------------------------------------------------

    def ras_push(self, return_pc: int) -> None:
        if len(self.ras) >= self.config.ras_entries:
            self.ras.pop(0)
        self.ras.append(return_pc)

    def ras_pop(self) -> Optional[int]:
        if self.ras:
            return self.ras.pop()
        return None

    # -- snapshot contract (DESIGN.md §8) --------------------------------------

    def snapshot_state(self) -> dict:
        """All learned state: counter tables, history, BTB, RAS."""
        return {
            "bimodal": list(self.bimodal.counters),
            "gshare": list(self.gshare.counters),
            "chooser": list(self.chooser.counters),
            "history": self.history,
            # JSON turns tuples into lists; keep entries as [pc, target].
            "btb": [list(entry) if entry is not None else None
                    for entry in self.btb],
            "ras": list(self.ras),
        }

    def table_versions(self) -> tuple:
        """Versions of the three counter tables (see ``_CounterTable``)."""
        return (self.bimodal.version, self.gshare.version,
                self.chooser.version)

    def restore_state(self, state: dict) -> None:
        for table in (self.bimodal, self.gshare, self.chooser):
            table.version += 1
        self.bimodal.counters = list(state["bimodal"])
        self.gshare.counters = list(state["gshare"])
        self.chooser.counters = list(state["chooser"])
        self.history = state["history"]
        self.btb = [tuple(entry) if entry is not None else None
                    for entry in state["btb"]]
        self.ras = list(state["ras"])

    def flush_speculative_state(self) -> None:
        """Called on a pipeline flush.

        Global history and the RAS are speculatively updated at fetch, so a
        real design checkpoints them.  We approximate by leaving history as
        is (it re-trains quickly) and clearing the RAS, which is the
        conservative choice.
        """
        self.ras.clear()
