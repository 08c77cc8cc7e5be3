"""Checks of the benchmark itself: ``python -m pytest perf -q`` (~15 s).

The smoke runs use ``--smoke`` sizes, so they say nothing about speed.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
sys.path[:0] = [str(ROOT / "src"), str(PERF)]

import calibrate  # noqa: E402
import compare  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(workload: str, trace: int, tmp_path: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--workload", workload,
         "--smoke", "--trace", str(trace), "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def assert_named(result: dict, group: str) -> None:
    declared = {each["name"]: each["unit"] for each in BENCHMARK[group]}
    emitted = {name: metric["unit"]
               for name, metric in result["metrics"].items()}
    assert emitted == declared


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    return {workload: smoke(workload, 1, out)
            for workload in ("seq_compute", "observed_profile")}


def test_end_to_end_metrics_emitted_with_units(tmp_path):
    result = smoke("spl_stream", 0, tmp_path)
    assert_named(result, "end_to_end")
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert len(list(tmp_path.glob("spl_stream-seed0-trace0-*.json"))) == 1


def test_per_layer_metrics_emitted_with_units(traced):
    for result in traced.values():
        assert_named(result, "per_layer")


def test_spans_and_shares_add_up(traced):
    for result in traced.values():
        metrics = {name: metric["value"]
                   for name, metric in result["metrics"].items()}
        assert abs(metrics["span_coverage"] - 1.0) <= 0.03
        shares = sum(value for name, value in metrics.items()
                     if name.startswith("sim.share."))
        assert abs(shares - 1.0) <= 0.01
    observed = traced["observed_profile"]["metrics"]
    assert observed["sim.share.cpu.blockgen"]["value"] == 0.0
    acct = sum(metric["value"] for name, metric in observed.items()
               if name.startswith("model.acct."))
    assert abs(acct - 1.0) <= 1e-9


def test_self_times_sum_to_root_spans():
    tracer = measure.Tracer()
    for spec in range(2):
        tracer.spec = spec
        with tracer.span("spec"):
            with tracer.span("system.run"):
                with tracer.span("inner"):
                    pass
            with tracer.span("experiments.finalize"):
                pass
    assert {span.spec for span in tracer.spans} == {0, 1}
    assert len({span.span_id for span in tracer.spans}) == 8
    total = sum(tracer.self_times().values())
    assert abs(total - tracer.root_total()) < 1e-9


def test_normalized_time_follows_the_host_speed():
    # A host at half the reference speed takes twice as long for both
    # the work and the ticks; the normalized time is the same.
    ref = calibrate.TICK_REFERENCE_S
    assert calibrate.normalize(3.0 + 2 * ref, [ref, ref]) == \
        pytest.approx(3.0)
    assert calibrate.normalize(6.0 + 4 * ref, [2 * ref, 2 * ref]) == \
        pytest.approx(3.0)
    # Half the time at full speed, half at a third: the mean speed.
    assert calibrate.host_speed([ref, 3 * ref]) == pytest.approx(2 / 3)


def test_host_clock_ticks_while_work_runs():
    with calibrate.HostClock() as clock:
        deadline = time.perf_counter() + 10 * calibrate.TICK_S
        while time.perf_counter() < deadline:
            pass
    count = len(clock.ticks)
    assert count >= 3 and all(each > 0 for each in clock.ticks)
    time.sleep(3 * calibrate.TICK_S)
    assert len(clock.ticks) == count


def test_bucket_maps_layers():
    cases = {"<blockgen:block3@17>": "cpu.blockgen",
             "<dfg:wc4>": "core.codegen",
             "~": "builtin",
             "/x/src/repro/cpu/pipeline.py": "cpu.pipeline",
             "/x/src/repro/cpu/exec.py": "cpu.frontend",
             "/x/src/repro/core/controller.py": "core",
             "/x/src/repro/mem/bus.py": "mem",
             "/x/src/repro/common/stats.py": "common.stats",
             "/x/src/repro/cli.py": "other",
             "/usr/lib/python3.11/json/encoder.py": "other"}
    for filename, layer in cases.items():
        assert measure.bucket(filename) == layer, filename


def test_gate_names_spec_and_counter():
    req = workloads.requests("seq_compute", 0, smoke=True)[0]
    label = workloads.spec_label(req)
    result, _, _ = measure.simulate(req)
    record = measure.record_of(result)
    gate = measure.Gate({label: record})
    gate.check(label, result)
    assert gate.drift == []
    gate = measure.Gate({label: dict(record, cycles=record["cycles"] + 1)})
    gate.check(label, result)
    assert len(gate.drift) == 1
    assert gate.drift[0].startswith(f"{label}: cycles drifted")


def test_every_drawable_spec_has_a_record():
    expected = json.loads(measure.EXPECTED.read_text())
    labels = {workloads.spec_label(req) for req in workloads.every_request()}
    assert labels == set(expected)
    for seed in range(20):
        for workload in workloads.WORKLOADS:
            for req in workloads.requests(workload, seed):
                assert workloads.spec_label(req) in labels


def test_seed_zero_is_base_sizes_and_seeds_repeat():
    rows = workloads.GRIDS["seq_compute"]
    base = [row.request(row.sizes[0]) for row in rows]
    assert workloads.requests("seq_compute", 0) == base
    assert workloads.requests("seq_compute", 7) == \
        workloads.requests("seq_compute", 7)
    assert workloads.requests("seq_compute", 7) != base


def write_runs(side: Path, host: str = "h") -> None:
    side.mkdir()
    for seed in range(10):
        metrics = {each["name"]: {"value": 1.0 + 0.01 * (seed % 3),
                                  "unit": each["unit"]}
                   for each in BENCHMARK["end_to_end"]}
        record = {"workload": "seq_compute", "seed": seed, "trace": 0,
                  "time_ns": seed, "host": {"name": host},
                  "result": {"correct": True, "attempted": 1,
                             "failed": 0, "metrics": metrics}}
        (side / f"run{seed}.json").write_text(json.dumps(record))


def test_compare_same_input_is_unchanged(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    write_runs(a)
    write_runs(b)
    (a_runs, _), (b_runs, _) = compare.load_runs(a), compare.load_runs(b)
    rows = compare.compare(a_runs, b_runs, BENCHMARK["end_to_end"])
    assert len(rows) == len(BENCHMARK["end_to_end"])
    assert {row["verdict"] for _, _, row in rows} == {"unchanged"}
    assert compare.main([str(a), str(b)]) == 0


def test_compare_refuses_runs_of_different_hosts(tmp_path):
    write_runs(tmp_path / "a", host="one")
    write_runs(tmp_path / "b", host="two")
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 2


def test_compare_flags_a_regression():
    a = [(seed, 1.0 + 0.001 * seed) for seed in range(10)]
    b = [(seed, 1.2 + 0.001 * seed) for seed in range(10)]
    assert compare.verdict(a, b, "lower", 0.05)["verdict"] == "worse"
    assert compare.verdict(b, a, "lower", 0.05)["verdict"] == "improved"


def test_compare_pairs_repeated_seeds_in_run_order():
    # One seed repeated: pairs follow the order the runs were made.  B has
    # A's spread, shifted down by less than A's interquartile range, and
    # the host drifted the other way while B ran, so B wins only some
    # pairs.  Matching runs by rank would make B win all ten.
    a_values = [1.00, 1.02, 1.04, 1.06, 1.08, 1.10, 1.12, 1.14, 1.16, 1.18]
    a = [(0, value) for value in a_values]
    b = [(0, value - 0.01) for value in reversed(a_values)]
    row = compare.verdict(a, b, "lower", 0.25)
    assert row["b"][1] < row["a"][1]
    assert row["a"][1] - row["b"][1] < row["a"][2] - row["a"][0]
    assert row["win_frac"] < 0.9
    assert row["verdict"] == "unchanged"


def test_no_forbidden_surfaces():
    # Knobs and private fields that later changes delete or collapse;
    # the benchmark must keep measuring without them.
    forbidden = ("fast_forward=", "blockgen=", "REPRO_NO_", "_bg_",
                 "_retire_pcs", "repro.serve", "repro.api",
                 "experiments.report", "api.compat")
    for path in PERF.glob("*.py"):
        if path.name == Path(__file__).name:
            continue
        text = path.read_text()
        for word in forbidden:
            assert word not in text, f"{path.name} uses {word}"


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perf").mkdir()
    for path in PERF.glob("*.py"):
        (tmp_path / "perf" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "seq_compute",
         "--seed", "0", "--seconds", str(BENCHMARK["run_seconds"]),
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_refuses_another_run_length():
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "seq_compute",
         "--seconds", str(BENCHMARK["run_seconds"] + 1)],
        cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "run_seconds" in proc.stderr
