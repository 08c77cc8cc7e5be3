"""Unit and property tests for memory, caches, coherence."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import CacheConfig, SystemConfig, ooo1_cluster
from repro.common.errors import MemoryFault
from repro.common.stats import Stats
from repro.mem.bus import SnoopBus
from repro.mem.cache import TagArray
from repro.mem.hierarchy import (EXCLUSIVE, MODIFIED, SHARED,
                                 CoherentMemorySystem)
from repro.mem.memory import MainMemory


class TestMainMemory:
    def test_word_rw(self):
        memory = MainMemory()
        memory.write_word(0x100, 0xDEADBEEF)
        assert memory.read_word(0x100) == 0xDEADBEEF
        assert memory.read_word_signed(0x100) == -559038737

    def test_byte_and_half(self):
        memory = MainMemory()
        memory.write_word(0x10, 0x11223344)
        assert memory.read_byte(0x10) == 0x44
        assert memory.read_byte(0x13) == 0x11
        memory.write_byte(0x11, 0xAA)
        assert memory.read_word(0x10) == 0x1122AA44
        memory.write_half(0x12, 0xBBCC)
        assert memory.read_half(0x12) == 0xBBCC

    def test_unaligned_rejected(self):
        memory = MainMemory()
        with pytest.raises(MemoryFault):
            memory.read_word(2)
        with pytest.raises(MemoryFault):
            memory.read_half(1)

    def test_float_roundtrip(self):
        memory = MainMemory()
        memory.write_float(0x20, 1.5)
        assert memory.read_float(0x20) == 1.5

    @given(st.lists(st.tuples(st.integers(0, 255), st.integers(0, 255)),
                    min_size=1, max_size=40))
    @settings(max_examples=25, deadline=None)
    def test_byte_writes_match_model(self, writes):
        memory = MainMemory()
        model = {}
        for addr, value in writes:
            memory.write_byte(addr, value)
            model[addr] = value
        for addr, value in model.items():
            assert memory.read_byte(addr) == value


class TestTagArray:
    def _array(self, assoc=2, sets=4):
        config = CacheConfig("t", assoc * sets * 32, assoc, 32, 1)
        return TagArray(config, Stats("t"))

    def test_insert_and_lookup(self):
        tags = self._array()
        assert not tags.lookup(5)
        assert tags.insert(5) is None
        assert tags.lookup(5)

    def test_lru_eviction(self):
        tags = self._array(assoc=2, sets=1)
        tags.insert(0)
        tags.insert(1)
        tags.lookup(0)          # 0 is now most recent
        victim = tags.insert(2)
        assert victim == 1

    def test_remove(self):
        tags = self._array()
        tags.insert(9)
        assert tags.remove(9)
        assert not tags.remove(9)

    def test_occupancy(self):
        tags = self._array()
        for line in range(6):
            tags.insert(line)
        assert tags.occupancy() == 6


class TestSnoopBus:
    def test_serialization(self):
        bus = SnoopBus(4, Stats("bus"))
        assert bus.transact(0) == 0
        assert bus.transact(1) == 4   # must wait for occupancy
        assert bus.transact(100) == 100


def _make_system(n_cores=2):
    cluster = ooo1_cluster(n_cores)
    system = SystemConfig(clusters=[cluster])
    configs = [(cluster.core.l1i, cluster.core.l1d, cluster.core.l2)
               for _ in range(n_cores)]
    return CoherentMemorySystem(configs, system, Stats("mem"))


class TestCoherence:
    def test_read_miss_then_hit(self):
        mem = _make_system()
        t1 = mem.data_access(0, 0x1000, False, 0)
        assert t1 > 100  # main memory
        t2 = mem.data_access(0, 0x1000, False, t1)
        assert t2 - t1 == 2  # L1 hit
        assert mem.line_state(0, 0x1000) == EXCLUSIVE

    def test_write_sets_modified(self):
        mem = _make_system()
        mem.data_access(0, 0x1000, True, 0)
        assert mem.line_state(0, 0x1000) == MODIFIED

    def test_read_shared_between_cores(self):
        mem = _make_system()
        mem.data_access(0, 0x2000, False, 0)
        mem.data_access(1, 0x2000, False, 500)
        assert mem.line_state(0, 0x2000) == SHARED
        assert mem.line_state(1, 0x2000) == SHARED

    def test_write_invalidates_sharer(self):
        mem = _make_system()
        mem.data_access(0, 0x3000, False, 0)
        mem.data_access(1, 0x3000, True, 500)
        assert mem.line_state(0, 0x3000) == 0  # invalid
        assert mem.line_state(1, 0x3000) == MODIFIED

    def test_upgrade_on_shared_write(self):
        mem = _make_system()
        mem.data_access(0, 0x4000, False, 0)
        mem.data_access(1, 0x4000, False, 500)
        mem.data_access(0, 0x4000, True, 1000)
        assert mem.line_state(0, 0x4000) == MODIFIED
        assert mem.line_state(1, 0x4000) == 0

    def test_modified_supplier_downgrades(self):
        mem = _make_system()
        mem.data_access(0, 0x5000, True, 0)
        mem.data_access(1, 0x5000, False, 500)
        assert mem.line_state(0, 0x5000) == SHARED
        assert mem.line_state(1, 0x5000) == SHARED

    def test_invalidation_listener_fires(self):
        """A snoop invalidation calls the hook of the invalidated
        hierarchy only, and the hook does not keep its owner alive."""
        mem = _make_system()
        seen = []

        class Listener:
            def __init__(self, index):
                self.index = index

            def hook(self, line):
                seen.append((self.index, line))

        listeners = [Listener(0), Listener(1)]
        mem.set_snoop_hook(0, listeners[0].hook)
        mem.set_snoop_hook(1, listeners[1].hook)
        mem.data_access(0, 0x6000, False, 0)
        mem.data_access(1, 0x6000, True, 500)
        assert seen == [(0, 0x6000 >> 5)]
        del listeners[:]
        mem.data_access(0, 0x6000, True, 1000)  # hooks gone: no call
        assert seen == [(0, 0x6000 >> 5)]

    def test_inst_fetch_hits_after_miss(self):
        mem = _make_system()
        t1 = mem.inst_fetch(0, 0, 0)
        assert t1 > 100
        t2 = mem.inst_fetch(0, 1, t1)
        assert t2 - t1 == 2

    @given(st.lists(st.tuples(st.integers(0, 1),
                              st.sampled_from([0x100, 0x200, 0x300, 0x400]),
                              st.booleans()),
                    min_size=1, max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_mesi_invariants_random(self, ops):
        mem = _make_system()
        cycle = 0
        for core, addr, is_write in ops:
            cycle = mem.data_access(core, addr, is_write, cycle)
            mem.check_invariants()
