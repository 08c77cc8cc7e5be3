"""Perfetto export: valid trace-event JSON with the documented tracks.

The golden file pins the *shape* of the trace (which processes, tracks,
counters, and phase types exist), not exact timings, so timing tweaks in
the simulator don't churn it while track-layout regressions still fail.
Regenerate deliberately with::

    PYTHONPATH=src python -m tests.regen_perfetto_golden
"""

import json
import os

from repro.common.config import RunOptions
from repro.obs.perfetto import PERFETTO_KINDS, PerfettoSink
from repro.system.machine import Machine
from repro.workloads import registry

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "perfetto_shape.json")

#: The run the golden file describes (see tests/regen_perfetto_golden.py).
GOLDEN_SPEC = ("dijkstra", "barrier", {"n": 12, "p": 2})


def traced_run():
    bench, variant, params = GOLDEN_SPEC
    spec = registry.REGISTRY[bench].variants[variant](**params)
    machine = Machine(spec.system)
    sink = PerfettoSink()
    machine.obs.attach(sink, kinds=PERFETTO_KINDS)
    machine.load(spec.workload)
    machine.run(options=RunOptions(max_cycles=spec.max_cycles))
    machine.finish_observation()
    return machine, sink


def test_shape_matches_golden():
    _machine, sink = traced_run()
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    assert sink.shape() == golden


def test_trace_document_is_valid_and_loadable(tmp_path):
    machine, sink = traced_run()
    path = tmp_path / "trace.json"
    sink.write(str(path))
    document = json.loads(path.read_text())
    events = document["traceEvents"]
    assert document["otherData"]["total_cycles"] == machine.cycle
    phases = {event["ph"] for event in events}
    assert {"M", "X", "C", "i"} <= phases
    for event in events:
        assert "pid" in event and "name" in event
        if event["ph"] == "X":
            assert event["dur"] >= 1
            assert 0 <= event["ts"] <= machine.cycle
    # Metadata must name every process and track referenced by events.
    named_pids = {event["pid"] for event in events
                  if event["ph"] == "M" and event["name"] == "process_name"}
    assert {event["pid"] for event in events} <= named_pids


def test_tracks_cover_cores_fabric_queues_and_mem():
    _machine, sink = traced_run()
    shape = sink.shape()
    assert "core 0" in shape["processes"]["cores"]
    assert "partition 0" in shape["processes"]["spl 0"]
    assert any(track.startswith("port") for track
               in shape["processes"]["spl 0"])
    assert "iq0 depth" in shape["counters"]["spl 0"]
    assert any(track.endswith("hierarchy") for track
               in shape["processes"]["mem"])


def test_every_declared_kind_is_drawn():
    """The exporter's declared set is the whole taxonomy, so a trace
    attached with ``PERFETTO_KINDS`` misses no event."""
    from repro.obs import events as ev
    declared = {value for name, value in vars(ev).items()
                if name.isupper() and not name.startswith("CLS_")
                and isinstance(value, str)}
    assert PERFETTO_KINDS == declared
