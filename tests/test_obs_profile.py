"""Cycle-accounting profiler: the accounting identity must hold exactly.

Property test across registry benches of different shapes (sequential,
barrier-synchronized SPL, producer/consumer SPL): every core-cycle of a
run lands in exactly one of {compute, spl_queue_stall, barrier_wait,
mem_stall, idle}, and the five buckets sum to the machine's total cycle
count for every core.
"""

import pytest

from repro.common.config import RunOptions
from repro.common.errors import SimulationError
from repro.obs import events as ev
from repro.obs.profile import CycleAccounting, ProfilerSink
from repro.system.machine import Machine
from repro.workloads import registry

_BENCHES = [
    ("wc", "seq", {"items": 8}),
    ("dijkstra", "barrier", {"n": 12, "p": 2}),
    ("hmmer", "compcomm", {"M": 48, "R": 2}),
]


def _profiled_run(bench, variant, params):
    spec = registry.REGISTRY[bench].variants[variant](**params)
    machine = Machine(spec.system)
    sink = ProfilerSink()
    machine.obs.attach(sink, kinds=ProfilerSink.KINDS)
    machine.load(spec.workload)
    machine.run(options=RunOptions(max_cycles=spec.max_cycles))
    machine.finish_observation()
    return machine, sink


@pytest.mark.parametrize("bench,variant,params", _BENCHES,
                         ids=[b for b, _, _ in _BENCHES])
def test_accounting_identity(bench, variant, params):
    machine, sink = _profiled_run(bench, variant, params)
    accounting = sink.accounting()  # verify=True raises on any leak
    assert accounting.total_cycles == machine.cycle
    for source in accounting.sources():
        row = accounting.row(source)
        assert sum(row.values()) == machine.cycle
        assert all(v >= 0 for v in row.values())
    # One row per core that ran.
    ran = {f"cpu{c.index}" for c in machine.cores
           if c.stats.get("cycles")}
    assert set(accounting.sources()) == ran


def test_barrier_workload_shows_barrier_wait():
    _machine, sink = _profiled_run("dijkstra", "barrier",
                                   {"n": 12, "p": 2})
    accounting = sink.accounting()
    total_barrier = sum(accounting.row(s)[ev.CLS_BARRIER]
                        for s in accounting.sources())
    assert total_barrier > 0


def test_sequential_workload_has_no_spl_stalls():
    _machine, sink = _profiled_run("wc", "seq", {"items": 8})
    accounting = sink.accounting()
    for source in accounting.sources():
        row = accounting.row(source)
        assert row[ev.CLS_SPL_QUEUE] == 0
        assert row[ev.CLS_BARRIER] == 0
        assert row[ev.CLS_COMPUTE] > 0


def test_verify_rejects_overcounted_spans():
    accounting = CycleAccounting(10, {"cpu0": {ev.CLS_COMPUTE: 12}})
    with pytest.raises(SimulationError):
        accounting.verify()


def test_rows_render_shape():
    accounting = CycleAccounting(10, {"cpu0": {ev.CLS_COMPUTE: 4,
                                               ev.CLS_MEM: 3}})
    (row,) = accounting.rows()
    assert row["core"] == "cpu0"
    assert row[ev.CLS_IDLE] == 3
    assert row["total"] == 10
    from repro.obs.render import render_profile
    text = render_profile(accounting)
    assert "cpu0" in text and "10" in text
