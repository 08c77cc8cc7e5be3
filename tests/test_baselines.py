"""Tests for the baseline systems: comm network, SW queues, SW barriers."""

import pytest

from repro.baselines.comm_network import (DedicatedCommController,
                                          attach_comm_network,
                                          attach_network)
from repro.baselines.sw_sync import SwBarrier, SwQueue
from repro.common.config import (RunOptions, SystemConfig, ooo1_cluster,
                                 ooo2_cluster)
from repro.common.errors import ConfigError, SplError
from repro.common.stats import Stats
from repro.isa import Asm, MemoryImage, ThreadSpec
from repro.system.machine import Machine
from repro.system.workload import Workload


class TestDedicatedCommUnit:
    def _unit(self, n=2):
        controller = DedicatedCommController(n, Stats("net"))
        for slot in range(n):
            controller.set_thread(slot, slot + 1)
        return controller

    def test_send_and_deliver(self):
        net = self._unit()
        net.configure_send(0, 1, dest_thread=2)
        net.stage_load(0, 42, 0, 0)
        assert net.init(0, 1, 0)
        assert net.recv(1, 0) is None  # not yet delivered
        for cycle in range(10):
            net.tick(cycle)
        assert net.recv(1, 10) == 42

    def test_send_to_absent_thread_stalls(self):
        net = self._unit()
        net.configure_send(0, 1, dest_thread=9)
        net.stage_load(0, 1, 0, 0)
        assert not net.init(0, 1, 0)

    def test_barrier_release(self):
        net = self._unit()
        net.register_barrier(5, [1, 2])
        net.configure_barrier(0, 2, 5)
        net.configure_barrier(1, 2, 5)
        net.stage_load(0, 0, 0, 0)
        assert net.init(0, 2, 0)
        for cycle in range(10):
            net.tick(cycle)
        assert net.recv(0, 10) is None  # still waiting for thread 2
        net.stage_load(1, 0, 0, 10)
        assert net.init(1, 2, 10)
        for cycle in range(10, 30):
            net.tick(cycle)
        assert net.recv(0, 30) == 1
        assert net.recv(1, 30) == 1

    def test_switch_out_guard(self):
        net = self._unit()
        net.configure_send(0, 1, dest_thread=2)
        net.stage_load(0, 7, 0, 0)
        net.init(0, 1, 0)
        with pytest.raises(SplError):
            net.set_thread(1, None)

    def test_attach_to_spl_cluster_rejected(self):
        from repro.common.config import remap_system
        machine = Machine(remap_system())
        with pytest.raises(ConfigError):
            attach_comm_network(machine, 0)

    def test_attach_network_to_busy_core_rejected(self):
        machine = Machine(SystemConfig(clusters=[ooo2_cluster()]))
        attach_network(machine, [0, 1])
        with pytest.raises(ConfigError):
            attach_network(machine, [1, 2])


class TestSwSync:
    def test_barrier_orders_writes(self):
        """After the barrier, every thread sees the other's pre-barrier
        store."""
        image = MemoryImage()
        barrier = SwBarrier(image, 2)
        flags = image.alloc_zeroed(2)
        outs = image.alloc_zeroed(2)

        def prog(tid):
            a = Asm(f"t{tid}")
            a.li("r10", 1)
            a.li("r1", flags + 4 * (tid - 1))
            a.li("r2", tid)
            a.sw("r2", "r1", 0)
            a.fence()
            barrier.emit(a, "r10", "r3", "r4", "r5")
            other = flags + 4 * (2 - tid)
            a.li("r1", other)
            a.lw("r6", "r1", 0)
            a.li("r7", outs + 4 * (tid - 1))
            a.sw("r6", "r7", 0)
            a.halt()
            return a.assemble()

        workload = Workload("w", image,
                            [ThreadSpec(prog(1), 1), ThreadSpec(prog(2), 2)],
                            placement=[0, 1])
        machine = Machine(SystemConfig(clusters=[ooo1_cluster()]))
        machine.load(workload)
        machine.run(options=RunOptions(max_cycles=200_000))
        assert machine.memory.read_words(outs, 2) == [2, 1]

    def test_queue_preserves_order_and_values(self):
        image = MemoryImage()
        queue = SwQueue(image, 8)
        n = 40
        out = image.alloc_zeroed(n)

        producer = Asm("prod")
        producer.li("r20", 0)
        producer.li("r1", 0)
        producer.li("r2", n)
        producer.label("loop")
        producer.mul("r3", "r1", "r1")
        queue.emit_push(producer, "r3", "r20", "r5", "r6", "r7")
        producer.addi("r1", "r1", 1)
        producer.blt("r1", "r2", "loop")
        producer.halt()

        consumer = Asm("cons")
        consumer.li("r21", 0)
        consumer.li("r1", 0)
        consumer.li("r2", n)
        consumer.li("r8", out)
        consumer.label("loop")
        queue.emit_pop(consumer, "r3", "r21", "r5", "r7")
        consumer.sw("r3", "r8", 0)
        consumer.addi("r8", "r8", 4)
        consumer.addi("r1", "r1", 1)
        consumer.blt("r1", "r2", "loop")
        consumer.halt()

        workload = Workload(
            "w", image,
            [ThreadSpec(producer.assemble(), 1),
             ThreadSpec(consumer.assemble(), 2)],
            placement=[0, 1])
        machine = Machine(SystemConfig(clusters=[ooo1_cluster()]))
        machine.load(workload)
        machine.run(options=RunOptions(max_cycles=500_000))
        assert machine.memory.read_words(out, n) == \
            [i * i for i in range(n)]

    def test_queue_capacity_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            SwQueue(MemoryImage(), 10)
