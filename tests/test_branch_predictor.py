"""Unit tests for the gshare+bimodal hybrid predictor, BTB, and RAS."""

import random

import pytest

from repro.common.config import BranchPredictorConfig
from repro.common.stats import Stats
from repro.cpu.branch import HybridPredictor


def _predictor(**kwargs):
    return HybridPredictor(BranchPredictorConfig(**kwargs), Stats("bp"))


class TestCounterTable:
    """The two-bit counters, trained through the predictor."""

    def test_saturation(self):
        """A counter stops at 3 and at 0, and its table's ``version``
        moves only on the updates that change it."""
        predictor = _predictor(bimodal_bits=4)
        bimodal = predictor.bimodal
        for _ in range(10):
            predictor.update_direction(3, True)
        assert bimodal.counters[3] == 3
        assert bimodal.version == 1  # 2 -> 3, then saturated
        for _ in range(10):
            predictor.update_direction(3, False)
        assert bimodal.counters[3] == 0
        assert bimodal.version == 4  # 3 -> 2 -> 1 -> 0
        assert bimodal.counters[:3] == [2, 2, 2]  # untouched: weakly taken

    def test_hysteresis(self):
        """From the weakly-taken init (2) one not-taken update flips
        the prediction, and one taken update flips it back."""
        predictor = _predictor()
        # The chooser starts weakly taken, so gshare predicts; with the
        # history at 0 (a not-taken update shifts in a 0) its slot for
        # pc 0 is 0.
        assert predictor.predict_direction(0)
        predictor.update_direction(0, False)
        assert predictor.gshare.counters[0] == 1
        assert not predictor.predict_direction(0)
        predictor.update_direction(0, True)
        assert predictor.gshare.counters[0] == 2
        predictor.history = 0  # back to slot 0
        assert predictor.predict_direction(0)


class TestDirectionPrediction:
    def test_learns_always_taken(self):
        predictor = _predictor()
        pc = 17
        for _ in range(8):
            predictor.update_direction(pc, True)
        assert predictor.predict_direction(pc)

    def test_learns_always_not_taken(self):
        predictor = _predictor()
        pc = 23
        for _ in range(8):
            predictor.update_direction(pc, False)
        assert not predictor.predict_direction(pc)

    def test_gshare_learns_alternating_pattern(self):
        """A strictly alternating branch is history-predictable: after
        training, the hybrid should track it (bimodal alone cannot)."""
        predictor = _predictor()
        pc = 9
        outcome = True
        for _ in range(400):
            predictor.update_direction(pc, outcome)
            outcome = not outcome
        correct = 0
        for _ in range(40):
            prediction = predictor.predict_direction(pc)
            correct += prediction == outcome
            predictor.update_direction(pc, outcome)
            outcome = not outcome
        assert correct >= 35

    def test_history_updates(self):
        predictor = _predictor()
        before = predictor.history
        predictor.update_direction(5, True)
        assert predictor.history != before or predictor.history == \
            ((before << 1) | 1) & predictor.history_mask


class TestBtbAndRas:
    def test_btb_roundtrip(self):
        predictor = _predictor()
        assert predictor.btb_lookup(40) is None
        predictor.btb_update(40, 1234)
        assert predictor.btb_lookup(40) == 1234

    def test_btb_conflict_eviction(self):
        predictor = _predictor(btb_entries=8)
        predictor.btb_update(3, 100)
        predictor.btb_update(3 + 8, 200)  # same set
        assert predictor.btb_lookup(3) is None
        assert predictor.btb_lookup(3 + 8) == 200

    def test_ras_lifo(self):
        predictor = _predictor()
        predictor.ras_push(10)
        predictor.ras_push(20)
        assert predictor.ras_pop() == 20
        assert predictor.ras_pop() == 10
        assert predictor.ras_pop() is None

    def test_ras_capacity(self):
        predictor = _predictor(ras_entries=2)
        for value in (1, 2, 3):
            predictor.ras_push(value)
        assert predictor.ras_pop() == 3
        assert predictor.ras_pop() == 2
        assert predictor.ras_pop() is None  # 1 was displaced

    def test_flush_clears_ras(self):
        predictor = _predictor()
        predictor.ras_push(7)
        predictor.flush_speculative_state()
        assert predictor.ras_pop() is None


class _ReferencePredictor:
    """The hybrid direction predictor, written from its definition.

    Three tables of two-bit counters, initialized weakly taken; gshare is
    indexed by ``(pc ^ history) & mask``, bimodal and the chooser by the
    PC; the chooser trains only when gshare and bimodal disagree, toward
    the one that was right; the history shifts in the outcome after the
    tables train.  ``moves`` counts, per table, the updates that changed
    a counter.
    """

    def __init__(self, config):
        self.bimodal = [2] * (1 << config.bimodal_bits)
        self.gshare = [2] * (1 << config.gshare_bits)
        self.chooser = [2] * (1 << config.chooser_bits)
        self.history = 0
        self.branches = 0
        self.moves = [0, 0, 0]  # bimodal, gshare, chooser

    def _gshare_index(self, pc):
        return (pc ^ self.history) % len(self.gshare)

    def predict(self, pc):
        if self.chooser[pc % len(self.chooser)] >= 2:
            return self.gshare[self._gshare_index(pc)] >= 2
        return self.bimodal[pc % len(self.bimodal)] >= 2

    @staticmethod
    def _train(table, index, up):
        old = table[index]
        table[index] = min(old + 1, 3) if up else max(old - 1, 0)
        return int(table[index] != old)

    def update(self, pc, taken):
        g_index = self._gshare_index(pc)
        b_index = pc % len(self.bimodal)
        g_pred = self.gshare[g_index] >= 2
        if g_pred != (self.bimodal[b_index] >= 2):
            self.moves[2] += self._train(self.chooser,
                                         pc % len(self.chooser),
                                         g_pred == taken)
        self.moves[1] += self._train(self.gshare, g_index, taken)
        self.moves[0] += self._train(self.bimodal, b_index, taken)
        self.history = ((self.history << 1) | int(taken)) \
            % len(self.gshare)
        self.branches += 1


@pytest.mark.parametrize("bits", [(12, 12, 12), (5, 6, 4)],
                         ids=["table2", "aliasing"])
def test_direction_predictor_matches_reference_model(bits):
    """5,000 seeded random branch outcomes over a few hundred PCs, each
    predicted before it trains: predictions, all three tables, the
    history, the ``branches`` count and every move of
    ``table_versions()`` agree with the reference model.  The small
    tables make PCs and histories alias and counters saturate."""
    gshare_bits, bimodal_bits, chooser_bits = bits
    config = BranchPredictorConfig(gshare_bits=gshare_bits,
                                   bimodal_bits=bimodal_bits,
                                   chooser_bits=chooser_bits)
    stats = Stats("bp")
    predictor = HybridPredictor(config, stats)
    reference = _ReferencePredictor(config)
    rng = random.Random(2010)
    # Per-PC taken probability: strongly biased, weakly biased and
    # random branches, so every counter value is visited.
    bias = {pc: rng.choice((0.02, 0.3, 0.5, 0.7, 0.98))
            for pc in rng.sample(range(4096), 300)}
    pcs = list(bias)
    for step in range(5_000):
        pc = rng.choice(pcs)
        taken = rng.random() < bias[pc]
        assert predictor.predict_direction(pc) == reference.predict(pc), \
            f"prediction differs at step {step}"
        before = predictor.table_versions()
        moves = list(reference.moves)
        predictor.update_direction(pc, taken)
        reference.update(pc, taken)
        after = predictor.table_versions()
        assert [a - b for a, b in zip(after, before)] == \
            [m - n for m, n in zip(reference.moves, moves)], \
            f"table_versions moved wrongly at step {step}"
        assert predictor.history == reference.history
        if step % 250 == 0:
            assert predictor.bimodal.counters == reference.bimodal
            assert predictor.gshare.counters == reference.gshare
            assert predictor.chooser.counters == reference.chooser
    assert predictor.bimodal.counters == reference.bimodal
    assert predictor.gshare.counters == reference.gshare
    assert predictor.chooser.counters == reference.chooser
    assert stats.get("branches") == reference.branches == 5_000
    # Every table moved, and some updates left a saturated counter put.
    assert all(reference.moves)
    assert reference.moves[0] < 5_000
