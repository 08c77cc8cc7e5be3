"""Backpressure and stall paths of the SPL controller."""

import pytest

from repro.common.config import SplConfig, spl_config
from repro.common.errors import SplError
from repro.common.stats import Stats
from repro.core.controller import SplClusterController
from repro.core.dfg import Dfg, DfgOp
from repro.core.function import SplFunction, identity_function
from repro.core.tables import BarrierBus


def _controller(config=None):
    config = config or spl_config()
    bus = BarrierBus(config.barrier_bus_latency)
    controller = SplClusterController(0, config, bus, Stats("spl"))
    for slot in range(config.sharers):
        controller.table.set_thread(slot, slot + 1, app_id=1)
    return controller


def _drain(controller, cycles, start=0):
    for cycle in range(start, start + cycles):
        controller.tick(cycle)


class TestBackpressure:
    def test_input_queue_full_rejects_init(self):
        config = SplConfig(input_queue_entries=2)
        controller = _controller(config)
        controller.configure(0, 1, identity_function())
        port = controller.port(0)
        accepted = 0
        for _ in range(4):  # no ticks: nothing drains
            port.stage_load(1, 0, 0)
            if port.init(1, 0):
                accepted += 1
        assert accepted == 2
        assert controller.stats.get("input_queue_full") == 2

    def test_inflight_cap_stalls_init(self):
        controller = _controller()
        controller.configure(0, 1, identity_function(), dest_thread=2)
        port = controller.port(0)
        # Saturate the destination's 5-bit in-flight counter directly.
        from repro.core.tables import MAX_IN_FLIGHT
        for _ in range(MAX_IN_FLIGHT):
            assert controller.table.try_reserve(1)
        port.stage_load(1, 0, 0)
        assert not port.init(1, 0)
        assert controller.stats.get("inflight_cap_stalls") == 1

    def test_output_queue_backpressure_holds_results(self):
        """Results wait in the fabric when the output queue is full, and
        drain once the consumer pops (Section II-B1's on-demand queueing)."""
        config = SplConfig(output_queue_entries=1)  # 4 words
        controller = _controller(config)
        controller.configure(0, 1, identity_function())
        port = controller.port(0)
        for i in range(8):
            port.stage_load(i, 0, 0)
            assert port.init(1, 0)
        _drain(controller, 400)
        assert controller.stats.get("output_queue_stalls") > 0
        # Pop everything; deliveries resume as space appears.
        values = []
        cycle = 400
        while len(values) < 8 and cycle < 2000:
            controller.tick(cycle)
            value = port.recv(cycle)
            if value is not None:
                values.append(value)
            cycle += 1
        assert values == list(range(8))

    def test_ready_gating_defers_issue(self):
        """A request whose spl_loadm data has not arrived cannot issue."""
        controller = _controller()
        controller.configure(0, 1, identity_function())
        port = controller.port(0)
        port.stage_load(5, 0, 0, ready=1000)  # data lands at cycle 1000
        assert port.init(1, 0)
        _drain(controller, 900)
        assert port.recv(900) is None        # still waiting on the data
        _drain(controller, 200, start=900)
        assert port.recv(1100) == 5

    def test_repartition_with_results_in_flight_rejected(self):
        controller = _controller()
        controller.configure(0, 1, identity_function())
        controller.port(0).stage_load(1, 0, 0)
        controller.port(0).init(1, 0)
        _drain(controller, 8)  # issued but results still in the pipeline
        with pytest.raises(SplError):
            controller.set_partitions([12, 12], [0, 0, 1, 1])


class TestVirtualization:
    def _deep_function(self, name="deep"):
        """A ~32-row function: chain of multiplies."""
        g = Dfg(name)
        node = g.input("x", 0)
        for _ in range(8):
            node = g.op(DfgOp.MUL, node, g.const(1))
        g.output("o", node)
        return SplFunction(g)

    def test_virtualized_function_still_correct(self):
        fn = self._deep_function()
        assert fn.rows > 24  # must be virtualized on the full fabric
        controller = _controller()
        controller.configure(0, 1, fn)
        port = controller.port(0)
        for value in (3, -7, 11):
            port.stage_load(value, 0, 0)
            assert port.init(1, 0)
        _drain(controller, 2000)
        assert [port.recv(2000) for _ in range(3)] == [3, -7, 11]

    def test_virtualization_lowers_throughput(self):
        """The same stream takes longer on a quarter partition."""
        def run(partitioned):
            fn = self._deep_function()
            controller = _controller()
            if partitioned:
                controller.set_partitions([6, 6, 6, 6], [0, 1, 2, 3])
            controller.configure(0, 1, fn)
            port = controller.port(0)
            for value in range(6):
                port.stage_load(value, 0, 0)
                assert port.init(1, 0)
            cycle = 0
            received = 0
            while received < 6:
                controller.tick(cycle)
                if port.recv(cycle) is not None:
                    received += 1
                cycle += 1
                assert cycle < 50_000
            return cycle

        assert run(partitioned=True) > run(partitioned=False)


class TestMisuse:
    def test_barrier_flag_mismatch(self):
        from repro.core.controller import SplBinding
        from repro.common.errors import ConfigError
        with pytest.raises(ConfigError):
            SplBinding(identity_function(), barrier_id=1)

    def test_config_id_out_of_range(self):
        from repro.common.errors import ConfigError
        controller = _controller()
        with pytest.raises(ConfigError):
            controller.configure(0, 999, identity_function())

    def test_barrier_arrival_without_thread(self):
        from repro.core.function import barrier_token_function
        controller = _controller()
        controller.barrier_bus.register(1, 1, (1, 2, 3, 4))
        controller.configure(0, 2, barrier_token_function(4), barrier_id=1)
        controller.table.set_thread(0, None)
        controller.port(0).stage_load(0, 0, 0)
        with pytest.raises(SplError):
            controller.port(0).init(2, 0)
