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
    periodic-elision probe, not simulated state.  ``HybridPredictor``
    reads and trains the counters itself (the one copy of their
    semantics), and tests/test_branch_predictor.py checks it against a
    reference model.
    """

    __slots__ = ("mask", "counters", "version")

    def __init__(self, index_bits: int) -> None:
        self.mask = (1 << index_bits) - 1
        self.counters: List[int] = [2] * (1 << index_bits)
        self.version = 0


class HybridPredictor:
    """gshare + bimodal with a chooser, plus BTB and RAS."""

    def __init__(self, config: BranchPredictorConfig, stats: Stats) -> None:
        self.config = config
        self.stats = stats
        stats.declare("branches", "btb_hits", "btb_misses")
        # The scope's counter dict, as ``OutOfOrderCore._cnt``: every key
        # is declared (zero-initialized) above.
        self._cnt = stats.counters
        self.bimodal = _CounterTable(config.bimodal_bits)
        self.gshare = _CounterTable(config.gshare_bits)
        self.chooser = _CounterTable(config.chooser_bits)
        self.history = 0
        self.history_mask = (1 << config.gshare_bits) - 1
        self.btb: List[Optional[tuple]] = [None] * config.btb_entries
        self.ras: List[int] = []

    # -- direction -----------------------------------------------------------

    def predict_direction(self, pc: int) -> bool:
        """Predict taken/not-taken for the conditional branch at ``pc``.

        A counter of 2 or 3 predicts taken.  ``history_mask`` is the
        gshare table's mask.
        """
        chooser = self.chooser
        if chooser.counters[pc & chooser.mask] >= 2:
            return self.gshare.counters[
                (pc ^ self.history) & self.history_mask] >= 2
        bimodal = self.bimodal
        return bimodal.counters[pc & bimodal.mask] >= 2

    def update_direction(self, pc: int, taken: bool) -> None:
        """Train on the resolved direction of the branch at ``pc``.

        The chooser trains only when gshare and bimodal disagree, toward
        the component that was right; the global history shifts after
        the update.  Each counter saturates at 0 and 3, and bumps its
        table's ``version`` exactly when it moves.
        """
        gshare = self.gshare
        bimodal = self.bimodal
        g_counters = gshare.counters
        b_counters = bimodal.counters
        history = self.history
        g_slot = (pc ^ history) & self.history_mask
        b_slot = pc & bimodal.mask
        g_value = g_counters[g_slot]
        b_value = b_counters[b_slot]
        g_pred = g_value >= 2
        if g_pred != (b_value >= 2):
            chooser = self.chooser
            c_counters = chooser.counters
            c_slot = pc & chooser.mask
            value = c_counters[c_slot]
            if g_pred == taken:
                if value < 3:
                    c_counters[c_slot] = value + 1
                    chooser.version += 1
            elif value > 0:
                c_counters[c_slot] = value - 1
                chooser.version += 1
        if taken:
            if g_value < 3:
                g_counters[g_slot] = g_value + 1
                gshare.version += 1
            if b_value < 3:
                b_counters[b_slot] = b_value + 1
                bimodal.version += 1
            self.history = ((history << 1) | 1) & self.history_mask
        else:
            if g_value > 0:
                g_counters[g_slot] = g_value - 1
                gshare.version += 1
            if b_value > 0:
                b_counters[b_slot] = b_value - 1
                bimodal.version += 1
            self.history = (history << 1) & self.history_mask
        self._cnt["branches"] += 1
        # Direction accuracy is recorded by the pipeline, which knows the
        # prediction actually acted upon.

    # -- targets ---------------------------------------------------------------

    def btb_lookup(self, pc: int) -> Optional[int]:
        entry = self.btb[pc % len(self.btb)]
        if entry is not None and entry[0] == pc:
            self._cnt["btb_hits"] += 1
            return entry[1]
        self._cnt["btb_misses"] += 1
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
