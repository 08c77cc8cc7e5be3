"""Tests for the pipeline tracer (an event-bus sink)."""

from repro.common.config import RunOptions, SystemConfig, ooo1_cluster
from repro.cpu.trace import PipelineTracer
from repro.isa import Asm, MemoryImage, ThreadSpec
from repro.system import Machine, Workload


def _counting_machine():
    image = MemoryImage()
    out = image.alloc_zeroed(1)
    a = Asm("t")
    a.li("r1", 0)
    a.li("r2", 20)
    a.label("loop")
    a.addi("r1", "r1", 1)
    a.blt("r1", "r2", "loop")
    a.li("r3", out)
    a.sw("r1", "r3", 0)
    a.halt()
    machine = Machine(SystemConfig(clusters=[ooo1_cluster()]))
    machine.load(Workload("t", image, [ThreadSpec(a.assemble(), 1)],
                          placement=[0]))
    return machine


def _machine_with_tracer(stages=None, limit=100_000):
    machine = _counting_machine()
    tracer = PipelineTracer(limit=limit, stages=stages)
    machine.obs.attach(tracer, kinds=tracer.kinds, sources={"cpu0"})
    machine.run(options=RunOptions(max_cycles=100_000))
    return machine, tracer


def test_records_all_stages():
    _, tracer = _machine_with_tracer()
    stages = {event.stage for event in tracer.events}
    assert {"fetch", "dispatch", "issue", "complete", "retire"} <= stages


def test_retire_count_matches_stats():
    machine, tracer = _machine_with_tracer()
    retired = machine.stats.find("cpu0").get("retired")
    assert len(tracer.of_stage("retire")) == retired


def test_stage_filter():
    _, tracer = _machine_with_tracer(stages=["retire"])
    assert tracer.events
    assert all(event.stage == "retire" for event in tracer.events)


def test_limit_and_dropped():
    _, tracer = _machine_with_tracer(limit=10)
    assert len(tracer.events) == 10
    assert tracer.dropped > 0
    assert "dropped" in tracer.render()


def test_render_format():
    _, tracer = _machine_with_tracer(stages=["retire"])
    text = tracer.render(last=5)
    assert "retire" in text and "cycle" in text


def test_clear():
    _, tracer = _machine_with_tracer()
    tracer.clear()
    assert not tracer.events and tracer.dropped == 0


def test_mispredict_produces_flush_events():
    image = MemoryImage()
    values = [(i * 2654435761) % 31 - 15 for i in range(40)]
    arr = image.alloc_words(values)
    a = Asm("t")
    a.li("r1", arr)
    a.li("r2", 0)
    a.li("r3", len(values))
    a.li("r4", 0)
    a.label("loop")
    a.lw("r5", "r1", 0)
    skip = a.fresh_label("s")
    a.blt("r5", "r0", skip)
    a.addi("r4", "r4", 1)
    a.label(skip)
    a.addi("r1", "r1", 4)
    a.addi("r2", "r2", 1)
    a.blt("r2", "r3", "loop")
    a.halt()
    machine = Machine(SystemConfig(clusters=[ooo1_cluster()]))
    machine.load(Workload("t", image, [ThreadSpec(a.assemble(), 1)],
                          placement=[0]))
    tracer = PipelineTracer(stages=["flush"])
    machine.obs.attach(tracer, kinds=tracer.kinds, sources={"cpu0"})
    machine.run(options=RunOptions(max_cycles=100_000))
    assert tracer.of_stage("flush")
