"""Unit tests for SPL queues, tables, the barrier bus, and the controller."""

import pytest

from repro.common.config import SplConfig, spl_config
from repro.common.errors import ConfigError, SplError
from repro.common.stats import Stats
from repro.core.controller import SplClusterController
from repro.core.dfg import DfgOp
from repro.core.function import (barrier_reduce_function, identity_function)
from repro.core.queues import (BEAT_BYTES, ENTRY_BYTES, InputQueue,
                               OutputQueue, SplRequest, StagingEntry)
from repro.core.tables import (MAX_IN_FLIGHT, BarrierBus, BarrierTable,
                               ThreadToCoreTable)


class TestStaging:
    def test_write_and_seal(self):
        staging = StagingEntry()
        staging.write_word(0x11223344, 0)
        staging.write_word(-1, 4)
        assert not staging.empty
        data, valid, ready = staging.seal()
        assert data[:4] == bytes([0x44, 0x33, 0x22, 0x11])
        assert valid == 0xFF
        assert staging.empty

    def test_ready_tracking(self):
        staging = StagingEntry()
        staging.write_word(1, 0, ready=100)
        staging.write_word(2, 4, ready=50)
        _, _, ready = staging.seal()
        assert ready == 100

    def test_offset_bounds(self):
        staging = StagingEntry()
        staging.write_word(1, ENTRY_BYTES - 4)
        with pytest.raises(SplError):
            staging.write_word(1, ENTRY_BYTES - 3)

    def test_beats(self):
        assert StagingEntry.beats(0xF) == 1
        assert StagingEntry.beats(0xF << BEAT_BYTES) == 2


class TestQueues:
    def test_input_queue_fifo(self):
        queue = InputQueue(2)
        r1 = SplRequest(1, bytes(32), 0xF, 0, 0)
        r2 = SplRequest(2, bytes(32), 0xF, 0, 1)
        queue.push(r1)
        queue.push(r2)
        assert queue.full
        assert queue.head() is r1
        assert queue.pop() is r1
        assert queue.pop() is r2
        assert queue.empty

    def test_input_queue_overflow(self):
        queue = InputQueue(1)
        queue.push(SplRequest(1, bytes(32), 0xF, 0, 0))
        with pytest.raises(SplError):
            queue.push(SplRequest(1, bytes(32), 0xF, 0, 0))

    def test_output_queue(self):
        queue = OutputQueue(3)
        assert queue.pop() is None
        queue.push_words([1, 2])
        assert not queue.space_for(2)
        assert queue.space_for(1)
        assert queue.pop() == 1
        with pytest.raises(SplError):
            queue.push_words([3, 4, 5])


class TestThreadToCoreTable:
    def test_lookup(self):
        table = ThreadToCoreTable(4)
        table.set_thread(2, 55, app_id=1)
        assert table.lookup(55) == 2
        assert table.lookup(56) is None

    def test_inflight_blocks_switch_out(self):
        table = ThreadToCoreTable(4)
        table.set_thread(0, 5)
        assert table.try_reserve(0)
        assert not table.can_switch_out(0)
        with pytest.raises(SplError):
            table.set_thread(0, None)
        table.release(0)
        table.set_thread(0, None)  # now legal

    def test_inflight_cap(self):
        table = ThreadToCoreTable(4)
        for _ in range(MAX_IN_FLIGHT):
            assert table.try_reserve(1)
        assert not table.try_reserve(1)

    def test_release_underflow(self):
        table = ThreadToCoreTable(4)
        with pytest.raises(SplError):
            table.release(0)

    def test_id_range(self):
        table = ThreadToCoreTable(4, max_ids=256)
        with pytest.raises(SplError):
            table.set_thread(0, 256)


class TestBarrierBus:
    def test_generation_counting(self):
        bus = BarrierBus(bus_latency=0)
        bus.register(1, 1, (10, 11))
        table = BarrierTable(0, bus)
        table.arrive(1, 10, cycle=5)
        assert not table.ready(1, now=5)
        table.arrive(1, 11, cycle=6)
        assert table.ready(1, now=6)
        table.release(1)
        assert not table.ready(1, now=7)  # next generation needs 2 more
        table.arrive(1, 10, cycle=8)
        table.arrive(1, 11, cycle=9)
        assert table.ready(1, now=9)

    def test_cross_cluster_latency(self):
        bus = BarrierBus(bus_latency=10)
        bus.register(2, 1, (1, 2))
        local = BarrierTable(0, bus)
        local.arrive(2, 1, cycle=100)            # local: visible at once
        bus.arrive(2, 2, cluster_id=1, cycle=100)  # remote
        assert not local.ready(2, now=105)       # remote not yet visible
        assert local.ready(2, now=110)

    def test_unregistered_barrier(self):
        bus = BarrierBus(10)
        with pytest.raises(SplError):
            bus.participants(9)

    def test_wrong_thread_rejected(self):
        bus = BarrierBus(10)
        bus.register(1, 1, (5,))
        with pytest.raises(SplError):
            bus.arrive(1, 6, 0, 0)


def _controller(**kwargs) -> SplClusterController:
    config = spl_config()
    bus = BarrierBus(config.barrier_bus_latency)
    controller = SplClusterController(0, config, bus, Stats("spl"))
    for slot in range(4):
        controller.table.set_thread(slot, slot + 1, app_id=1)
    return controller


def _drain(controller, cycles=2000, start=0):
    for cycle in range(start, start + cycles):
        controller.tick(cycle)


class TestController:
    def test_roundtrip_computation(self):
        controller = _controller()
        fn = identity_function()
        controller.configure(0, 1, fn)
        port = controller.port(0)
        assert port.stage_load(77, 0, 0)
        assert port.init(1, 0)
        _drain(controller, 100)
        assert port.recv(100) == 77

    def test_unbound_config_raises(self):
        controller = _controller()
        with pytest.raises(SplError):
            controller.port(0).init(3, 0)

    def test_dest_absent_blocks_init(self):
        controller = _controller()
        controller.configure(0, 1, identity_function(), dest_thread=99)
        controller.port(0).stage_load(1, 0, 0)
        assert not controller.port(0).init(1, 0)
        assert controller.stats.get("dest_absent_stalls") == 1

    def test_routing_to_consumer(self):
        controller = _controller()
        controller.configure(0, 1, identity_function(), dest_thread=3)
        controller.port(0).stage_load(5, 0, 0)
        assert controller.port(0).init(1, 0)
        assert not controller.can_switch_out(2)  # in-flight to slot 2
        _drain(controller, 100)
        assert controller.port(2).recv(100) == 5
        assert controller.can_switch_out(2)

    def test_round_robin_fairness(self):
        controller = _controller()
        fn = identity_function()
        for slot in range(4):
            controller.configure(slot, 1, fn)
            for _ in range(3):
                controller.port(slot).stage_load(slot, 0, 0)
                controller.port(slot).init(1, 0)
        _drain(controller, 400)
        for slot in range(4):
            for _ in range(3):
                assert controller.port(slot).recv(400) == slot

    def test_reconfiguration_cost_counted(self):
        controller = _controller()
        fn_a = identity_function("a")
        fn_b = identity_function("b")
        controller.configure(0, 1, fn_a)
        controller.configure(0, 2, fn_b)
        port = controller.port(0)
        port.stage_load(1, 0, 0)
        port.init(1, 0)
        port.stage_load(2, 0, 0)
        port.init(2, 0)
        _drain(controller, 400)
        assert controller.stats.get("reconfigurations") == 2
        assert port.recv(400) == 1
        assert port.recv(400) == 2

    def test_partition_validation(self):
        controller = _controller()
        with pytest.raises(ConfigError):
            controller.set_partitions([30])
        with pytest.raises(ConfigError):
            controller.set_partitions([6] * 5)
        with pytest.raises(ConfigError):
            controller.set_partitions([12, 12], [0, 0, 2, 1])

    def test_partitions_isolate_functions(self):
        controller = _controller()
        controller.set_partitions([12, 12], [0, 0, 1, 1])
        fn_a = identity_function("a")
        fn_b = identity_function("b")
        controller.configure(0, 1, fn_a)
        controller.configure(2, 1, fn_b)
        controller.port(0).stage_load(10, 0, 0)
        controller.port(0).init(1, 0)
        controller.port(2).stage_load(20, 0, 0)
        controller.port(2).init(1, 0)
        _drain(controller, 200)
        # Different partitions never reconfigure against each other.
        assert controller.stats.get("reconfigurations") == 2  # one each
        assert controller.port(0).recv(200) == 10
        assert controller.port(2).recv(200) == 20

    def test_barrier_reduce_all_slots(self):
        controller = _controller()
        bus = controller.barrier_bus
        bus.register(7, 1, (1, 2, 3, 4))
        fn = barrier_reduce_function(4, DfgOp.MIN)
        for slot in range(4):
            controller.configure(slot, 2, fn, barrier_id=7)
        values = [40, 10, 30, 20]
        for slot in range(3):
            controller.port(slot).stage_load(values[slot], 0, 0)
            controller.port(slot).init(2, 0)
        _drain(controller, 100)
        # Not released until the last participant arrives.
        assert all(controller.port(s).recv(100) is None for s in range(4))
        controller.port(3).stage_load(values[3], 0, 100)
        controller.port(3).init(2, 100)
        _drain(controller, 200, start=100)
        for slot in range(4):
            assert controller.port(slot).recv(300) == 10

    def test_barrier_executes_across_partitions(self):
        controller = _controller()
        controller.set_partitions([6, 6, 6, 6], [0, 1, 2, 3])
        bus = controller.barrier_bus
        bus.register(3, 1, (1, 2, 3, 4))
        fn = barrier_reduce_function(4, DfgOp.ADD)
        for slot in range(4):
            controller.configure(slot, 2, fn, barrier_id=3)
            controller.port(slot).stage_load(slot + 1, 0, 0)
            controller.port(slot).init(2, 0)
        _drain(controller, 300)
        for slot in range(4):
            assert controller.port(slot).recv(300) == 10

    def test_stateful_sequences_through_queue(self):
        from repro.core.dfg import Dfg
        from repro.core.function import SplFunction
        g = Dfg("acc")
        x = g.input("x", 0)
        d = g.delay(init=0)
        total = g.add(d, x)
        g.set_delay_source(d, total)
        g.output("o", total)
        fn = SplFunction(g)
        controller = _controller()
        controller.configure(0, 1, fn)
        port = controller.port(0)
        for cycle, value in ((0, 1), (4, 2), (8, 3)):
            port.stage_load(value, 0, cycle)
            port.init(1, cycle)
        _drain(controller, 300)
        assert [port.recv(300) for _ in range(3)] == [1, 3, 6]


class TestAppIdIsolation:
    def test_wrong_app_rejected(self):
        bus = BarrierBus(bus_latency=0)
        bus.register(4, 7, (1, 2))
        table = BarrierTable(0, bus)
        table.arrive(4, 1, cycle=0, app_id=7)  # correct app
        with pytest.raises(SplError):
            table.arrive(4, 2, cycle=0, app_id=8)  # wrong application

    def test_controller_passes_app_id(self):
        controller = _controller()
        controller.barrier_bus.register(6, 99, (1, 2, 3, 4))
        from repro.core.function import barrier_token_function
        fn = barrier_token_function(4)
        controller.configure(0, 2, fn, barrier_id=6)
        # The cores were registered with app_id=1; the barrier wants 99.
        controller.port(0).stage_load(0, 0, 0)
        with pytest.raises(SplError):
            controller.port(0).init(2, 0)
