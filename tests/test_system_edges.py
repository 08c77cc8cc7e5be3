"""Edge-case system tests: cache inclusion, icache stalls, deadlocks,
memory-dependence blocking, and fetch robustness."""

import pytest

from repro.common.config import (CacheConfig, ClusterConfig, RunOptions,
                                 SystemConfig, ooo1_config, ooo1_cluster)
from repro.common.errors import DeadlockError
from repro.common.stats import Stats
from repro.isa import Asm, MemoryImage, ThreadSpec
from repro.mem.hierarchy import CoherentMemorySystem
from repro.system.machine import Machine
from repro.system.workload import Workload

import dataclasses


class TestInclusionAndEviction:
    def _tiny_system(self):
        """Caches small enough to force L2 evictions quickly."""
        core = ooo1_config()
        l1 = CacheConfig("L1D", 128, 2, 32, 2)    # 4 lines
        l2 = CacheConfig("L2", 256, 2, 32, 10)    # 8 lines
        core = dataclasses.replace(core, l1d=l1, l2=l2)
        system = SystemConfig(clusters=[ooo1_cluster()])
        return CoherentMemorySystem([(core.l1i, core.l1d, core.l2)],
                                    system, Stats("mem"))

    def test_l2_eviction_invalidates_l1(self):
        mem = self._tiny_system()
        cycle = 0
        # Touch many distinct lines mapping over the tiny L2.
        for i in range(32):
            cycle = mem.data_access(0, i * 32, True, cycle)
        port = mem.ports[0]
        # Inclusion: every line still tracked must be consistent, and
        # dirty evictions were recorded.
        assert port.stats.get("l2_writebacks") > 0
        for line in list(port.states):
            in_l2 = port.l2.contains(line)
            assert in_l2, "state tracked for a line evicted from L2"
        mem.check_invariants()

    def test_eviction_then_reload_misses(self):
        mem = self._tiny_system()
        cycle = mem.data_access(0, 0, False, 0)
        for i in range(1, 32):
            cycle = mem.data_access(0, i * 32, False, cycle)
        before = mem.ports[0].stats.get("l2_misses")
        mem.data_access(0, 0, False, cycle)
        assert mem.ports[0].stats.get("l2_misses") == before + 1


class TestIcacheBehaviour:
    def test_cold_fetch_stalls_then_warms(self):
        image = MemoryImage()
        out = image.alloc_zeroed(1)
        a = Asm("t")
        a.li("r1", 0)
        a.li("r2", 200)
        a.label("loop")
        # A loop body spanning several 8-instruction fetch lines, so the
        # front end crosses line boundaries every iteration.
        for _ in range(14):
            a.addi("r4", "r4", 1)
        a.addi("r1", "r1", 1)
        a.blt("r1", "r2", "loop")
        a.li("r3", out)
        a.sw("r1", "r3", 0)
        a.halt()
        machine = Machine(SystemConfig(clusters=[ooo1_cluster()]))
        machine.load(Workload("t", image, [ThreadSpec(a.assemble(), 1)],
                              placement=[0]))
        machine.run(options=RunOptions(max_cycles=100_000))
        cpu = machine.stats.find("cpu0")
        mem = machine.stats.find("mem").find("core0")
        assert cpu.get("icache_stall_cycles") > 0   # cold misses
        assert mem.get("l1i_hits") > mem.get("l1i_misses")  # warm loop


class TestDeadlockDetection:
    def test_blocked_spl_recv_trips_watchdog(self):
        """A consumer waiting forever on an empty SPL queue retires
        nothing; the watchdog must convert that into DeadlockError."""
        from repro.common.config import remap_cluster
        from repro.core.function import identity_function
        a = Asm("t")
        a.spl_recv("r1")   # nobody ever sends
        a.halt()
        system = SystemConfig(clusters=[remap_cluster()],
                              deadlock_cycles=3_000)
        machine = Machine(system)
        machine.load(Workload(
            "t", MemoryImage(), [ThreadSpec(a.assemble(), 1)],
            placement=[0],
            setup=lambda m: m.configure_spl(0, 1, identity_function())))
        with pytest.raises(DeadlockError):
            machine.run(options=RunOptions(max_cycles=100_000))


class TestMemoryDependences:
    def test_load_blocked_by_unknown_store_address(self):
        """A load must not bypass an older store whose address resolves
        late to the same location."""
        image = MemoryImage()
        slot = image.alloc_words([111])
        out = image.alloc_zeroed(1)
        a = Asm("t")
        # The store's address depends on a long divide chain.
        a.li("r1", slot * 3)
        a.li("r2", 3)
        a.div("r1", "r1", "r2")     # r1 = slot, ready late
        a.li("r3", 222)
        a.sw("r3", "r1", 0)         # store to [slot], address late
        a.li("r4", slot)
        a.lw("r5", "r4", 0)         # younger load to the same address
        a.li("r6", out)
        a.sw("r5", "r6", 0)
        a.halt()
        machine = Machine(SystemConfig(clusters=[ooo1_cluster()]))
        machine.load(Workload("t", image, [ThreadSpec(a.assemble(), 1)],
                              placement=[0]))
        machine.run(options=RunOptions(max_cycles=100_000))
        assert machine.memory.read_word_signed(out) == 222

    def test_partial_overlap_blocks_until_store_retires(self):
        """A word load overlapping an older byte store gets the merged
        value (conservatively waiting out the store)."""
        image = MemoryImage()
        slot = image.alloc_words([0x11223344])
        out = image.alloc_zeroed(1)
        a = Asm("t")
        a.li("r1", slot)
        a.li("r2", 0xAA)
        a.sb("r2", "r1", 1)     # byte store into the middle of the word
        a.lw("r3", "r1", 0)     # overlapping word load
        a.li("r4", out)
        a.sw("r3", "r4", 0)
        a.halt()
        machine = Machine(SystemConfig(clusters=[ooo1_cluster()]))
        machine.load(Workload("t", image, [ThreadSpec(a.assemble(), 1)],
                              placement=[0]))
        machine.run(options=RunOptions(max_cycles=100_000))
        assert machine.memory.read_word(out) == 0x1122AA44


class TestFetchRobustness:
    def test_program_without_trailing_halt_past_end(self):
        """Fetch runs off the end harmlessly until the HALT retires."""
        a = Asm("t")
        a.li("r1", 5)
        a.halt()
        machine = Machine(SystemConfig(clusters=[ooo1_cluster()]))
        machine.load(Workload("t", MemoryImage(),
                              [ThreadSpec(a.assemble(), 1)],
                              placement=[0]))
        machine.run(options=RunOptions(max_cycles=10_000))
        assert machine.finished()
