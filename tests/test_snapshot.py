"""Deterministic snapshot/restore equivalence (DESIGN.md §8).

The contract: pausing a run at any cycle, serializing the machine to
JSON, rebuilding a fresh machine from the same recipe, restoring, and
continuing must be *the same simulation* as never pausing — identical
final cycle, identical stats down to every counter, identical
cycle-accounting profile, and an identical Perfetto event multiset.
These tests sweep the benchmark registry at mid-run pause points plus
the adversarial states called out in the design: mid-SPL-staging,
mid-barrier-wait, and inside a fast-forward elision window.
"""

import inspect
import json
import os

import pytest

from repro.common.config import (ENV_NO_CODEGEN, ENV_NO_FASTFORWARD,
                                 RunOptions, env_enabled)
from repro.common.errors import ConfigError
from repro.common.serialize import (decode_record, encode_record,
                                    registered_codecs)
from repro.experiments.engine import build_spec, request
from repro.experiments.runner import execute, finalize
from repro.obs.perfetto import PERFETTO_KINDS, PerfettoSink
from repro.obs.profile import ProfilerSink
from repro.system.machine import Machine
from repro.system.snapshot import (read_snapshot, restore_machine,
                                   resume_from_file, take_snapshot,
                                   write_snapshot)
from repro.workloads import registry

#: Small spec kwargs per benchmark (mirrors tests/test_fastforward.py).
_SMALL = {
    "g721enc": {"items": 10}, "g721dec": {"items": 10},
    "mpeg2enc": {"items": 6}, "mpeg2dec": {"items": 48},
    "gsmtoast": {"items": 32}, "gsmuntoast": {"items": 24},
    "libquantum": {"items": 8, "passes": 3}, "wc": {"items": 64},
    "unepic": {"items": 64}, "cjpeg": {"items": 64},
    "adpcm": {"items": 96}, "twolf": {"items": 64},
    "hmmer": {"M": 48, "R": 2}, "astar": {"items": 48},
}

_COMP_VARIANTS = ("seq", "seq_ooo2", "spl")
_COMM_VARIANTS = ("seq", "seq_ooo2", "spl", "comm", "compcomm", "ooo2comm",
                  "swqueue")

_BARRIER_CASES = [
    ("ll2", "barrier", {"n": 16, "passes": 2, "p": 4}),
    ("ll2", "hwbar", {"n": 16, "passes": 2, "p": 4}),
    ("ll3", "barrier", {"n": 64, "passes": 3, "p": 4}),
    ("ll3", "barrier_comp", {"n": 64, "passes": 3, "p": 8}),
    ("ll3", "hwbar", {"n": 64, "passes": 3, "p": 8}),
    ("ll6", "barrier", {"n": 16, "passes": 2, "p": 4}),
    ("dijkstra", "barrier", {"n": 20, "p": 16}),
    ("dijkstra", "barrier_comp", {"n": 16, "p": 8}),
    ("dijkstra", "hwbar", {"n": 16, "p": 4}),
]


def _registry_cases():
    cases = []
    for info in registry.computation_only():
        for variant in _COMP_VARIANTS:
            cases.append((info.name, variant, dict(_SMALL[info.name])))
    for info in registry.communicating():
        for variant in _COMM_VARIANTS:
            kwargs = dict(_SMALL[info.name])
            if info.name != "libquantum":
                kwargs.pop("passes", None)
            cases.append((info.name, variant, kwargs))
    return cases + _BARRIER_CASES


def _build(bench, variant, kwargs):
    # Workload images are consumed by execution: build a fresh machine
    # (and spec) per run.
    spec = registry.REGISTRY[bench].variants[variant](**kwargs)
    machine = Machine(spec.system)
    machine.load(spec.workload)
    return machine


def _roundtrip(machine):
    """Snapshot through an actual JSON string, as a file would."""
    return json.loads(json.dumps(machine.snapshot()))


def _restore(bench, variant, kwargs, state):
    machine = _build(bench, variant, kwargs)
    machine.restore(state)
    return machine


@pytest.mark.parametrize(
    "bench,variant,kwargs", _registry_cases(),
    ids=lambda v: v if isinstance(v, str) else "")
def test_restore_equals_uninterrupted(bench, variant, kwargs):
    """Every registry bench x variant: pause mid-run, snapshot, restore
    into a fresh machine, continue — same cycles, same stats tree."""
    full = _build(bench, variant, kwargs)
    total = full.run(options=RunOptions())
    if total < 4:
        pytest.skip("run too short to pause")
    paused = _build(bench, variant, kwargs)
    paused.run(options=RunOptions(pause_at=total // 2))
    assert paused.cycle == total // 2
    state = _roundtrip(paused)
    restored = _restore(bench, variant, kwargs, state)
    assert restored.cycle == total // 2
    assert restored.run(options=RunOptions()) == total
    assert restored.stats.as_dict() == full.stats.as_dict()
    assert restored.total_retired() == full.total_retired()


#: Observability subset: one case per hardware flavour is enough to cover
#: every span/emission path without repeating the whole sweep.
_OBSERVED_CASES = [
    ("g721dec", "seq", {"items": 10}),
    ("g721dec", "spl", {"items": 10}),
    ("adpcm", "compcomm", {"items": 96}),
    ("ll3", "barrier", {"n": 64, "passes": 3, "p": 4}),
    ("ll3", "hwbar", {"n": 64, "passes": 3, "p": 8}),
    ("dijkstra", "hwbar", {"n": 16, "p": 4}),
]


@pytest.mark.parametrize(
    "bench,variant,kwargs", _OBSERVED_CASES,
    ids=lambda v: v if isinstance(v, str) else "")
def test_restore_preserves_profile(bench, variant, kwargs):
    """Cycle-accounting rows are identical when the run is split by a
    snapshot: the paused half and the restored half feed one sink."""
    reference = ProfilerSink()
    full = _build(bench, variant, kwargs)
    full.obs.attach(reference, kinds=ProfilerSink.KINDS)
    full.run(options=RunOptions())
    full.finish_observation()
    total = full.cycle

    shared = ProfilerSink()
    paused = _build(bench, variant, kwargs)
    paused.obs.attach(shared, kinds=ProfilerSink.KINDS)
    paused.run(options=RunOptions(pause_at=total // 2))
    state = _roundtrip(paused)
    restored = _restore(bench, variant, kwargs, state)
    restored.obs.attach(shared, kinds=ProfilerSink.KINDS)
    assert restored.run(options=RunOptions()) == total
    restored.finish_observation()

    ref_acc = reference.accounting()
    split_acc = shared.accounting()
    assert split_acc.rows() == ref_acc.rows()
    assert split_acc.total_cycles == ref_acc.total_cycles


@pytest.mark.parametrize(
    "bench,variant,kwargs", _OBSERVED_CASES,
    ids=lambda v: v if isinstance(v, str) else "")
def test_restore_preserves_trace_events(bench, variant, kwargs):
    """The Perfetto event multiset is unchanged by a snapshot split."""
    def multiset(sink):
        return sorted(json.dumps(event, sort_keys=True)
                      for event in sink.trace_events)

    reference = PerfettoSink()
    full = _build(bench, variant, kwargs)
    full.obs.attach(reference, kinds=PERFETTO_KINDS)
    full.run(options=RunOptions())
    full.finish_observation()
    total = full.cycle

    shared = PerfettoSink()
    paused = _build(bench, variant, kwargs)
    paused.obs.attach(shared, kinds=PERFETTO_KINDS)
    paused.run(options=RunOptions(pause_at=total // 2))
    state = _roundtrip(paused)
    restored = _restore(bench, variant, kwargs, state)
    restored.obs.attach(shared, kinds=PERFETTO_KINDS)
    assert restored.run(options=RunOptions()) == total
    restored.finish_observation()
    assert multiset(shared) == multiset(reference)


# -- adversarial pause points ---------------------------------------------------


def _scan_for(bench, variant, kwargs, condition, start, stop, step):
    """Advance one machine through pause points until ``condition`` holds
    on its snapshot; returns (pause_cycle, json-round-tripped state)."""
    machine = _build(bench, variant, kwargs)
    for k in range(start, stop, step):
        machine.run(options=RunOptions(pause_at=k))
        if machine.cycle < k:
            break  # finished before the pause point
        state = _roundtrip(machine)
        if condition(state):
            return k, state
    pytest.fail(f"no pause point in [{start}, {stop}) satisfied the "
                f"condition for {bench}/{variant}")


def _continue_and_compare(bench, variant, kwargs, state):
    full = _build(bench, variant, kwargs)
    total = full.run(options=RunOptions())
    restored = _restore(bench, variant, kwargs, state)
    assert restored.run(options=RunOptions()) == total
    assert restored.stats.as_dict() == full.stats.as_dict()


def test_snapshot_mid_spl_staging():
    """Pause while a core has words staged toward the SPL fabric."""
    bench, variant, kwargs = "adpcm", "compcomm", {"items": 96}

    def staging_busy(state):
        return any(entry["valid"] != 0
                   for controller in state["controllers"]
                   for entry in controller.get("staging", ()))

    _, state = _scan_for(bench, variant, kwargs, staging_busy, 40, 2000, 7)
    _continue_and_compare(bench, variant, kwargs, state)


def test_snapshot_mid_barrier_wait():
    """Pause while some threads have arrived at an unreleased barrier."""
    bench, variant, kwargs = "ll3", "hwbar", {"n": 64, "passes": 3, "p": 8}

    def barrier_waiting(state):
        for controller in state["controllers"]:
            for _bid, participants, arrived in controller.get(
                    "barriers", ()):
                if arrived and len(arrived) < len(participants):
                    return True
        return False

    _, state = _scan_for(bench, variant, kwargs, barrier_waiting,
                         40, 4000, 11)
    _continue_and_compare(bench, variant, kwargs, state)


def test_snapshot_inside_elided_window():
    """Pause while the fast-forward scheduler has a core elided: the
    un-credited window must round-trip and be replayed after restore."""
    bench, variant, kwargs = "dijkstra", "hwbar", {"n": 16, "p": 4}

    def core_elided(state):
        return any(record["state"]["ff_skip_from"] >= 0
                   for record in state["cores"])

    _, state = _scan_for(bench, variant, kwargs, core_elided, 30, 4000, 13)
    _continue_and_compare(bench, variant, kwargs, state)


def test_snapshot_mid_multi_core_window():
    """Pause while multiple cores are mid-flight and the multi-core
    blockgen path has engaged: the pause lands on a fused-window
    boundary, and the un-snapshotted per-core backoff hints must not
    change the replay after restore."""
    bench, variant, kwargs = "ll3", "hwbar", {"n": 64, "passes": 3, "p": 8}
    machine = _build(bench, variant, kwargs)
    state = None
    for k in range(40, 4000, 11):
        machine.run(options=RunOptions(pause_at=k))
        if machine.cycle < k:
            break
        busy = sum(1 for core in machine.cores
                   if core.ctx is not None and not core.halted
                   and core.ff_skip_from < 0)
        if machine._bg_multi.windows and busy >= 2:
            state = _roundtrip(machine)
            break
    assert state is not None, \
        "never paused with a multi-core window behind us and >= 2 busy cores"
    _continue_and_compare(bench, variant, kwargs, state)


# -- snapshot files and provenance ----------------------------------------------


def test_snapshot_file_roundtrip_and_resume(tmp_path):
    req = request("g721dec", "seq", items=10)
    spec = build_spec(req)
    full = Machine(spec.system)
    full.load(spec.workload)
    total = full.run(options=RunOptions())

    spec2 = build_spec(req)
    paused = Machine(spec2.system)
    paused.load(spec2.workload)
    paused.run(options=RunOptions(pause_at=total // 2))
    path = tmp_path / "snap.json"
    write_snapshot(path, paused, req)

    payload = read_snapshot(path)
    assert payload["cycle"] == total // 2
    restored, rebuilt_spec = restore_machine(payload)
    assert rebuilt_spec.name == spec.name
    assert restored.cycle == total // 2
    assert restored.run(options=RunOptions()) == total
    assert restored.stats.as_dict() == full.stats.as_dict()

    machine, cycles = resume_from_file(path)
    assert cycles == total
    assert machine.total_retired() == full.total_retired()


def test_snapshot_without_recipe_refuses_rebuild(tmp_path):
    spec = registry.REGISTRY["g721dec"].variants["seq"](items=10)
    machine = Machine(spec.system)
    machine.load(spec.workload)
    machine.run(options=RunOptions(pause_at=50))
    path = tmp_path / "anon.json"
    write_snapshot(path, machine)  # no request: ad-hoc machine
    payload = read_snapshot(path)
    with pytest.raises(ConfigError):
        restore_machine(payload)


def test_restore_rejects_config_mismatch():
    machine = _build("g721dec", "seq", {"items": 10})
    machine.run(options=RunOptions(pause_at=50))
    state = _roundtrip(machine)
    other = _build("ll3", "hwbar", {"n": 64, "passes": 3, "p": 8})
    with pytest.raises(ConfigError):
        other.restore(state)


# -- RunOptions (the redesigned run surface) ------------------------------------


class TestRunOptions:
    def test_run_takes_only_options(self):
        params = inspect.signature(Machine.run).parameters
        assert list(params) == ["self", "options"]
        assert params["options"].kind is inspect.Parameter.KEYWORD_ONLY

    def test_validate(self):
        with pytest.raises(ConfigError):
            RunOptions(max_cycles=-1).validate()
        with pytest.raises(ConfigError):
            RunOptions(pause_at=-5).validate()

    def test_env_resolution(self, monkeypatch):
        monkeypatch.delenv(ENV_NO_FASTFORWARD, raising=False)
        monkeypatch.delenv(ENV_NO_CODEGEN, raising=False)
        resolved = RunOptions().resolve()
        assert resolved.fast_forward is True
        assert resolved.codegen is True
        monkeypatch.setenv(ENV_NO_FASTFORWARD, "1")
        assert RunOptions().resolve().fast_forward is False
        assert env_enabled(ENV_NO_FASTFORWARD) is False
        # An explicit setting wins over the environment.
        assert RunOptions(fast_forward=True).resolve().fast_forward is True

    def test_fingerprint_tracks_env(self, monkeypatch):
        monkeypatch.delenv(ENV_NO_FASTFORWARD, raising=False)
        base = RunOptions().resolve().fingerprint()
        assert base == {"fast_forward": True, "codegen": True,
                        "blockgen": True}
        monkeypatch.setenv(ENV_NO_FASTFORWARD, "1")
        assert RunOptions().resolve().fingerprint()["fast_forward"] is False

    def test_cache_key_includes_fingerprint(self, monkeypatch):
        monkeypatch.delenv(ENV_NO_FASTFORWARD, raising=False)
        req = request("g721dec", "seq", items=10)
        default_key = req.cache_key()
        monkeypatch.setenv(ENV_NO_FASTFORWARD, "1")
        assert req.cache_key() != default_key

    def test_pause_at_stops_exactly(self):
        machine = _build("g721dec", "seq", {"items": 10})
        assert machine.run(options=RunOptions(pause_at=123)) == 123
        assert machine.cycle == 123
        # Resuming the same machine finishes the run normally.
        final = machine.run(options=RunOptions())
        assert final > 123
        assert machine.finished()


def test_sliced_execution_matches_unsliced():
    """A run paused every 500 cycles, with a non-pipeline sink attached
    (so fast-forward stays on), ends in the same RunResult record as an
    uninterrupted execute()."""
    req = request("wc", "compcomm", items=48)
    spec = build_spec(req)
    machine = Machine(spec.system)
    machine.obs.attach(ProfilerSink(), kinds=ProfilerSink.KINDS)
    machine.load(spec.workload)
    while not machine.finished() and machine.cycle < spec.max_cycles:
        machine.run(options=RunOptions(pause_at=machine.cycle + 500))
    sliced = finalize(machine, spec, machine.cycle)
    direct = execute(build_spec(req))
    assert sliced.cycles == direct.cycles
    assert sliced.to_dict() == direct.to_dict()


# -- codec registry (unified serialization surface) -----------------------------


class TestCodecRegistry:
    def test_all_formats_registered(self):
        # Importing the owning modules registers their codecs.
        import repro.experiments.runner  # noqa: F401
        import repro.obs.metrics  # noqa: F401
        import repro.system.snapshot  # noqa: F401
        kinds = set(registered_codecs())
        assert {"system-config", "run-result", "metrics-snapshot",
                "machine-snapshot"} <= kinds

    def test_system_config_roundtrip(self):
        spec = registry.REGISTRY["g721dec"].variants["seq"](items=10)
        record = encode_record("system-config", spec.system)
        rebuilt = decode_record(json.loads(json.dumps(record)))
        assert rebuilt == spec.system

    def test_run_result_roundtrip(self):
        from repro.experiments.runner import execute
        spec = registry.REGISTRY["g721dec"].variants["seq"](items=10)
        result = execute(spec)
        record = encode_record("run-result", result)
        rebuilt = decode_record(json.loads(json.dumps(record)),
                                expect_kind="run-result")
        assert rebuilt.cycles == result.cycles
        assert rebuilt.counters == result.counters

    def test_version_mismatch_raises(self):
        spec = registry.REGISTRY["g721dec"].variants["seq"](items=10)
        record = encode_record("system-config", spec.system)
        record["schema"] += 1
        with pytest.raises(ConfigError):
            decode_record(record)

    def test_unknown_kind_raises(self):
        with pytest.raises(ConfigError):
            decode_record({"kind": "no-such-format", "schema": 1,
                           "payload": {}})
        with pytest.raises(ConfigError):
            encode_record("no-such-format", {})

    def test_kind_mismatch_raises(self):
        spec = registry.REGISTRY["g721dec"].variants["seq"](items=10)
        record = encode_record("system-config", spec.system)
        with pytest.raises(ConfigError):
            decode_record(record, expect_kind="machine-snapshot")
