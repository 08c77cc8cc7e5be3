"""Config serialization round-trips and extra property-based tests."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import (SplConfig, SystemConfig, ooo1_cluster,
                                 remap_system)
from repro.common.errors import ConfigError
from repro.common.serialize import (system_from_dict, system_from_json,
                                    system_to_dict, system_to_json)
from repro.common.stats import Stats
from repro.mem.cache import TagArray
from repro.common.config import CacheConfig


class TestSerialization:
    def test_roundtrip_remap_system(self):
        config = remap_system(n_spl_clusters=2, n_ooo2_clusters=1)
        rebuilt = system_from_json(system_to_json(config))
        assert rebuilt == config

    def test_roundtrip_custom_values(self):
        config = remap_system()
        config = dataclasses.replace(config, memory_latency=123,
                                     bus_occupancy=7)
        spl = dataclasses.replace(config.clusters[0].spl,
                                  input_queue_entries=5)
        cluster = dataclasses.replace(config.clusters[0], spl=spl)
        config = dataclasses.replace(config,
                                     clusters=[cluster,
                                               config.clusters[1]])
        rebuilt = system_from_dict(system_to_dict(config))
        assert rebuilt.memory_latency == 123
        assert rebuilt.clusters[0].spl.input_queue_entries == 5

    def test_malformed_rejected(self):
        with pytest.raises(ConfigError):
            system_from_dict({"clusters": [{"bogus": 1}]})
        with pytest.raises(ConfigError):
            system_from_dict({})

    def test_invalid_values_rejected_on_load(self):
        data = system_to_dict(SystemConfig(clusters=[ooo1_cluster()]))
        data["clusters"][0]["core"]["rob_entries"] = 0
        with pytest.raises(ConfigError):
            system_from_dict(data)


class _LruModel:
    """Reference LRU model for differential cache testing."""

    def __init__(self, assoc, sets):
        self.assoc = assoc
        self.sets = {i: [] for i in range(sets)}

    def access(self, line):
        entries = self.sets[line % len(self.sets)]
        hit = line in entries
        if hit:
            entries.remove(line)
        entries.append(line)
        victim = None
        if len(entries) > self.assoc:
            victim = entries.pop(0)
        return hit, victim


class TestCacheLruProperty:
    @given(st.lists(st.integers(0, 31), min_size=1, max_size=120))
    @settings(max_examples=40, deadline=None)
    def test_tag_array_matches_reference_lru(self, lines):
        assoc, sets = 2, 4
        config = CacheConfig("t", assoc * sets * 32, assoc, 32, 1)
        tags = TagArray(config, Stats("t"))
        model = _LruModel(assoc, sets)
        for line in lines:
            hit = tags.lookup(line)
            victim = tags.insert(line) if not hit else None
            model_hit, model_victim = model.access(line)
            assert hit == model_hit
            assert victim == model_victim


class TestControllerFunctionalProperty:
    @given(st.lists(st.tuples(st.integers(0, 3),
                              st.integers(-1000, 1000)),
                    min_size=1, max_size=30))
    @settings(max_examples=15, deadline=None)
    def test_round_robin_preserves_per_core_fifo(self, stream):
        """Whatever the interleaving, each core receives its own results
        in issue order with correct values."""
        from repro.core.controller import SplClusterController
        from repro.core.function import identity_function
        from repro.core.tables import BarrierBus
        from repro.common.config import spl_config
        config = spl_config()
        controller = SplClusterController(0, config,
                                          BarrierBus(10), Stats("spl"))
        fn = identity_function()
        expected = {slot: [] for slot in range(4)}
        for slot in range(4):
            controller.table.set_thread(slot, slot + 1, app_id=1)
            controller.configure(slot, 1, fn)
        cycle = 0
        for slot, value in stream:
            port = controller.port(slot)
            port.stage_load(value, 0, cycle)
            if port.init(1, cycle):
                expected[slot].append(value)
            controller.tick(cycle)
            cycle += 1
        for _ in range(3000):
            controller.tick(cycle)
            cycle += 1
        for slot in range(4):
            got = []
            while True:
                value = controller.port(slot).recv(cycle)
                if value is None:
                    break
                got.append(value)
            assert got == expected[slot]
