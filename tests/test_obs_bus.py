"""Event-bus semantics: routing, filtering, and the zero-cost guarantee."""

import pytest

from repro.common.config import RunOptions
from repro.obs import CallbackSink, CollectorSink, EventBus, Sink
from repro.obs import events as ev
from repro.obs.bus import EventBus as BusClass
from repro.system.machine import Machine
from repro.workloads import registry


def _small_spec():
    return registry.REGISTRY["wc"].variants["seq"](items=8)


class TestRouting:
    def test_inert_by_default(self):
        bus = EventBus()
        assert not bus.active
        bus.emit(0, "machine", ev.MIGRATE, thread=1)  # swallowed, no error

    def test_attach_detach_recomputes_flags(self):
        bus = EventBus()
        sink = CollectorSink()
        bus.attach(sink)
        assert bus.active
        bus.detach(sink)
        assert not bus.active

    def test_kind_filter(self):
        bus = EventBus()
        sink = CollectorSink()
        bus.attach(sink, kinds=frozenset((ev.MIGRATE,)))
        bus.emit(1, "machine", ev.WATCHDOG, stuck=[0])
        bus.emit(2, "machine", ev.MIGRATE, thread=1)
        assert [e.kind for e in sink.events] == [ev.MIGRATE]

    def test_source_filter(self):
        bus = EventBus()
        sink = CollectorSink()
        bus.attach(sink, sources={"cpu1"})
        bus.emit(1, "cpu0", ev.CYCLE_SPAN)
        bus.emit(1, "cpu1", ev.CYCLE_SPAN)
        assert [e.source for e in sink.events] == ["cpu1"]

    def test_callback_sink_and_finish(self):
        bus = EventBus()
        got = []
        sink = CallbackSink(got.append)
        bus.attach(sink)
        bus.emit(3, "spl0", ev.SPL_ISSUE, partition=0)
        bus.finish(99)
        assert got[0].get("partition") == 0

    def test_event_accessors(self):
        event = ev.Event(7, "machine", ev.MIGRATE, {"thread": 4})
        assert event.get("thread") == 4
        assert event.get("missing", "x") == "x"
        assert "migrate" in repr(event)

    def test_sink_base_requires_accept(self):
        with pytest.raises(NotImplementedError):
            Sink().accept(ev.Event(0, "machine", ev.WATCHDOG, {}))


class TestZeroOverhead:
    def test_simulation_never_publishes_without_sinks(self, monkeypatch):
        """With no sink attached, a full run must not reach publish() even
        once — the guard is a flag check, not a filtering no-op."""
        def boom(self, event):
            raise AssertionError(
                f"event published with no sink attached: {event!r}")
        monkeypatch.setattr(BusClass, "publish", boom)
        spec = _small_spec()
        machine = Machine(spec.system)
        machine.load(spec.workload)
        machine.run(options=RunOptions(max_cycles=spec.max_cycles))
        spec.workload.check(machine.memory)

    def test_same_result_with_and_without_observer(self):
        """Observation must not perturb timing: identical cycle counts."""
        spec = _small_spec()
        plain = Machine(spec.system)
        plain.load(spec.workload)
        base_cycles = plain.run(options=RunOptions(max_cycles=spec.max_cycles))

        spec2 = _small_spec()
        observed = Machine(spec2.system)
        sink = CollectorSink()
        observed.obs.attach(sink)
        observed.load(spec2.workload)
        cycles = observed.run(options=RunOptions(max_cycles=spec2.max_cycles))
        observed.finish_observation()
        assert cycles == base_cycles
        assert sink.events  # and the sink really saw the run
        assert sink.finished_at == cycles
