"""System-level tests: machine assembly, migration, SPL integration."""

import pytest

from repro.common.config import (RunOptions, SystemConfig, ooo1_cluster,
                                 ooo2_cluster, remap_cluster, remap_system)
from repro.common.errors import ConfigError, SimulationError
from repro.core.function import identity_function
from repro.isa import Asm, MemoryImage, ThreadSpec
from repro.system import Machine, Workload


def _counting_program(n, out, tid=1):
    a = Asm(f"count{tid}")
    a.li("r1", 0)
    a.li("r2", n)
    a.label("loop")
    a.addi("r1", "r1", 1)
    a.blt("r1", "r2", "loop")
    a.li("r3", out)
    a.sw("r1", "r3", 0)
    a.halt()
    return a.assemble()


class TestMachineAssembly:
    def test_clusters_and_ports(self):
        machine = Machine(remap_system())
        assert len(machine.cores) == 8
        assert machine.clusters[0].controller is not None
        assert machine.clusters[1].controller is None
        for index in range(4):
            assert machine.cores[index].spl_port is not None
        for index in range(4, 8):
            assert machine.cores[index].spl_port is None

    def test_core_slot_lookup(self):
        machine = Machine(remap_system())
        cluster, slot = machine.core_slot(5)
        assert cluster.index == 1 and slot == 1
        with pytest.raises(ConfigError):
            machine.core_slot(99)

    def test_configure_spl_on_conventional_rejected(self):
        machine = Machine(remap_system())
        with pytest.raises(ConfigError):
            machine.configure_spl(5, 1, identity_function())

    def test_placement_validation(self):
        image = MemoryImage()
        program = _counting_program(5, image.alloc_zeroed(1))
        with pytest.raises(Exception):
            Workload("w", image, [ThreadSpec(program, 1),
                                  ThreadSpec(program, 2)],
                     placement=[0, 0])


class TestExecution:
    def test_two_threads_finish(self):
        image = MemoryImage()
        out_a = image.alloc_zeroed(1)
        out_b = image.alloc_zeroed(1)
        workload = Workload(
            "w", image,
            [ThreadSpec(_counting_program(50, out_a, 1), 1),
             ThreadSpec(_counting_program(80, out_b, 2), 2)],
            placement=[0, 1])
        machine = Machine(SystemConfig(clusters=[ooo1_cluster()]))
        machine.load(workload)
        machine.run(options=RunOptions(max_cycles=100_000))
        assert machine.finished()
        assert machine.memory.read_word_signed(out_a) == 50
        assert machine.memory.read_word_signed(out_b) == 80
        assert machine.total_retired() > 0

    def test_run_until_predicate(self):
        image = MemoryImage()
        out = image.alloc_zeroed(1)
        workload = Workload("w", image,
                            [ThreadSpec(_counting_program(10_000, out), 1)],
                            placement=[0])
        machine = Machine(SystemConfig(clusters=[ooo1_cluster()]))
        machine.load(workload)
        machine.run(options=RunOptions(
            max_cycles=1_000_000, until=lambda: machine.cycle >= 500))
        assert 500 <= machine.cycle < 600

    def test_cycle_limit_raises(self):
        image = MemoryImage()
        out = image.alloc_zeroed(1)
        workload = Workload("w", image,
                            [ThreadSpec(_counting_program(100_000, out), 1)],
                            placement=[0])
        machine = Machine(SystemConfig(clusters=[ooo1_cluster()]))
        machine.load(workload)
        with pytest.raises(SimulationError):
            machine.run(options=RunOptions(max_cycles=1_000))


class TestMigration:
    def test_migrate_preserves_state(self):
        image = MemoryImage()
        out = image.alloc_zeroed(1)
        workload = Workload("w", image,
                            [ThreadSpec(_counting_program(40_000, out), 1)],
                            placement=[0])
        machine = Machine(SystemConfig(
            clusters=[ooo1_cluster(), ooo2_cluster()]))
        machine.load(workload)
        machine.run(options=RunOptions(
            max_cycles=2_000, until=lambda: machine.cycle >= 1_000))
        machine.migrate(1, dest_core=4)
        assert machine.thread_core[1] == 4
        machine.run(options=RunOptions(max_cycles=5_000_000))
        assert machine.memory.read_word_signed(out) == 40_000
        assert machine.stats.get("migrations") == 1

    def test_migrate_to_occupied_core_rejected(self):
        image = MemoryImage()
        out_a = image.alloc_zeroed(1)
        out_b = image.alloc_zeroed(1)
        workload = Workload(
            "w", image,
            [ThreadSpec(_counting_program(100_000, out_a, 1), 1),
             ThreadSpec(_counting_program(100_000, out_b, 2), 2)],
            placement=[0, 1])
        machine = Machine(SystemConfig(clusters=[ooo1_cluster()]))
        machine.load(workload)
        with pytest.raises(SimulationError):
            machine.migrate(1, dest_core=1)

    def test_migration_charges_switch_cycles(self):
        image = MemoryImage()
        out = image.alloc_zeroed(1)
        workload = Workload("w", image,
                            [ThreadSpec(_counting_program(10, out), 1)],
                            placement=[0])
        machine = Machine(SystemConfig(clusters=[ooo1_cluster()]))
        machine.load(workload)
        machine.run(options=RunOptions(max_cycles=100_000))
        baseline = machine.cycle

        image2 = MemoryImage()
        out2 = image2.alloc_zeroed(1)
        workload2 = Workload("w2", image2,
                             [ThreadSpec(_counting_program(10, out2), 1)],
                             placement=[0])
        machine2 = Machine(SystemConfig(clusters=[ooo1_cluster()]))
        machine2.load(workload2)
        machine2.run(options=RunOptions(
            max_cycles=1_000, until=lambda: machine2.cycle >= 20))
        machine2.migrate(1, dest_core=1)
        machine2.run(options=RunOptions(max_cycles=100_000))
        # The migrated run pays the drain + 500-cycle context switch.
        assert machine2.cycle >= baseline + 400


class TestSplIntegration:
    def test_switch_out_blocked_by_in_flight(self):
        """A consumer with fabric results in flight cannot be migrated
        until the data is delivered (Section II-B1)."""
        image = MemoryImage()
        out = image.alloc_zeroed(1)
        producer = Asm("prod")
        producer.li("r1", 123)
        producer.spl_load("r1", 0)
        producer.spl_init(1)
        producer.halt()
        consumer = Asm("cons")
        consumer.spl_recv("r1")
        consumer.li("r2", out)
        consumer.sw("r1", "r2", 0)
        consumer.halt()
        workload = Workload(
            "w", image,
            [ThreadSpec(producer.assemble(), 1),
             ThreadSpec(consumer.assemble(), 2)],
            placement=[0, 1],
            setup=lambda m: m.configure_spl(0, 1, identity_function(),
                                            dest_thread=2))
        system = SystemConfig(clusters=[remap_cluster(), ooo1_cluster()])
        machine = Machine(system)
        machine.load(workload)
        machine.run(options=RunOptions(max_cycles=100_000))
        assert machine.memory.read_word_signed(out) == 123
