"""The redesigned Stats API: declared scopes, totals, merge."""

import pytest

from repro.common.errors import StatsError
from repro.common.stats import Stats, merge_counters


class TestDeclaredScopes:
    def test_declared_keys_start_at_zero(self):
        stats = Stats("core", schema=("cycles", "retired"))
        assert stats.get("cycles") == 0
        stats.bump("cycles")
        assert stats.get("cycles") == 1

    def test_typo_raises_once_declared(self):
        stats = Stats("core", schema=("cycles",))
        with pytest.raises(StatsError):
            stats.bump("cycels")
        with pytest.raises(StatsError):
            stats.set("cycels", 3)

    def test_open_scope_stays_permissive(self):
        stats = Stats("adhoc")
        stats.bump("anything")  # no declaration -> classic behavior
        assert stats.get("anything") == 1

    def test_declare_is_idempotent_union(self):
        stats = Stats("core")
        stats.declare("a")
        stats.declare("b")
        stats.bump("a")
        stats.bump("b")
        with pytest.raises(StatsError):
            stats.bump("c")


class TestTreeOperations:
    def _tree(self):
        root = Stats("machine")
        cpu0 = root.child("cpu0", schema=("retired",))
        cpu1 = root.child("cpu1", schema=("retired",))
        cpu0.bump("retired", 10)
        cpu1.bump("retired", 20)
        return root

    def test_totals_one_pass_matches_total(self):
        root = self._tree()
        assert root.total("retired") == 30
        assert root.totals()["retired"] == 30

    def test_walk_skips_untouched_declared_keys(self):
        root = Stats("machine")
        root.child("cpu0", schema=("retired", "flushes")).bump("retired")
        flat = root.as_dict()
        assert flat == {"machine.cpu0.retired": 1}

    def test_merge_folds_trees(self):
        a = self._tree()
        b = self._tree()
        a.merge(b)
        assert a.total("retired") == 60
        assert a.find("cpu1").get("retired") == 40

    def test_merge_adopts_new_scopes_and_keys(self):
        a = Stats("machine")
        b = Stats("machine")
        b.child("spl0", schema=("issues",)).bump("issues", 3)
        a.merge(b)
        assert a.find("spl0").get("issues") == 3

    def test_merge_counters_flat(self):
        merged = merge_counters({"m.cpu0.retired": 5},
                                {"m.cpu0.retired": 7, "m.x": 1})
        assert merged == {"m.cpu0.retired": 12, "m.x": 1}
