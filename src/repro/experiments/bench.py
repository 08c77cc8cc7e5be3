"""Simulation-loop throughput benchmark (``python -m repro bench``).

Times representative benches — compute-bound (seq), barrier-heavy,
communication+computation — under the two simulation legs ``Machine.run``
has: the naive per-cycle loop and the fast scheduler (the compiled walk
with its elision and jumps, the default configuration).  Each case runs
on a fresh machine per leg, asserts both legs agree on final cycle and
retired-instruction counts (the cycle-exactness guarantee, enforced
exhaustively in tests/test_fastforward.py and tests/test_blockgen.py),
and reports simulated cycles per wall-clock second.  Results are written
to ``BENCH_simloop.json`` so CI can archive the perf trajectory.

Repeats are interleaved round-robin across the legs rather than run
leg-by-leg, so slow host-frequency drift cannot bias one leg's best-of-N
against another's (leg-sequential timing once produced a phantom 0.965x
"regression" on the livermore case that an interleaved re-measurement
showed to be 1.02x).  Each leg records its wall-clock spread
(min/median/stdev) and the report carries a host fingerprint so archived
numbers can be compared apples-to-apples.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import tempfile
import time
from typing import Dict, List, Optional, Tuple

from repro.common.config import RunOptions
from repro.common.errors import SimulationError
from repro.system.machine import Machine
from repro.workloads import registry

#: Report schema; bump when the JSON layout changes.  Schema 2 added the
#: blockgen leg, per-leg wall-clock spread, and the host fingerprint;
#: schema 3 has two legs, ``naive`` and ``fast``.  :func:`check_report`
#: reads this schema only.
BENCH_SCHEMA_VERSION = 3

#: Default output file (gitignored).
DEFAULT_OUT = "BENCH_simloop.json"

#: Default output file for the snapshot round-trip mode (gitignored).
SNAPSHOT_OUT = "BENCH_snapshot.json"

#: case name -> (benchmark, variant, spec kwargs).  Sizes are chosen so a
#: naive run takes on the order of a second: long enough to time
#: meaningfully, short enough for a CI smoke job.
CASES: Dict[str, Tuple[str, str, Dict]] = {
    "seq": ("g721dec", "seq", {"items": 40}),
    "barrier": ("ll2", "barrier", {"n": 192, "passes": 8, "p": 16}),
    "compcomm": ("hmmer", "compcomm", {"M": 96, "R": 4}),
    # Two more compute-bound cases: ALU-dense single-core loops where the
    # wall clock is pure pipeline work (no SPL, no communication), sized
    # like "seq" so a naive run is on the order of a second.
    "adpcm": ("adpcm", "seq", {"items": 900}),
    "livermore": ("ll3", "seq", {"n": 256, "passes": 24}),
}

#: Timed runs per leg; the report keeps the best wall time plus the
#: spread (the extra repeats absorb allocator/cache warm-up noise).
BENCH_REPEATS = 3

#: leg name -> ``RunOptions.fast_forward``.  The fast leg is the default
#: configuration; running both per case makes every bench invocation an
#: A/B cycle-drift gate for the compiled walk.
LEGS: Tuple[Tuple[str, bool], ...] = (
    ("naive", False),
    ("fast", True),
)


def _run_once(make_spec,
              fast_forward: bool) -> Tuple[int, int, float, Machine]:
    """(final cycle, retired instructions, wall seconds, machine) for one
    run.

    Builds a fresh spec and machine per run: several workload images are
    consumed by execution, so specs are single-use.
    """
    spec = make_spec()
    machine = Machine(spec.system)
    machine.load(spec.workload)
    start = time.perf_counter()
    cycles = machine.run(options=RunOptions(max_cycles=spec.max_cycles,
                                            fast_forward=fast_forward))
    wall = time.perf_counter() - start
    return cycles, machine.total_retired(), wall, machine


def _leg_stats(cycles: int, walls: List[float]) -> Dict:
    """Wall-clock summary for one leg: best, spread, throughput."""
    best = min(walls)
    return {
        "wall_s": best,
        "wall_median_s": statistics.median(walls),
        "wall_stdev_s": (statistics.stdev(walls) if len(walls) > 1 else 0.0),
        "cycles_per_s": cycles / best,
    }


def run_case(name: str) -> Dict:
    """Benchmark one case under all legs; returns the report row."""
    bench, variant, kwargs = CASES[name]

    def make_spec():
        return registry.REGISTRY[bench].variants[variant](**kwargs)

    spec = make_spec()
    walls: Dict[str, List[float]] = {leg: [] for leg, _ in LEGS}
    results: Dict[str, Tuple[int, int]] = {}
    # Interleave repeats round-robin across legs so slow host drift (CPU
    # frequency, thermal) spreads evenly instead of biasing one leg.
    engagement: Dict[str, int] = {}
    for _ in range(BENCH_REPEATS):
        for leg, fast_forward in LEGS:
            cycles, retired, wall, machine = _run_once(make_spec,
                                                       fast_forward)
            walls[leg].append(wall)
            if fast_forward:
                runners = machine._bg_runners.values()
                walk = machine._bg_multi
                engagement = {
                    "windows": walk.windows,
                    "fused_cycles": walk.fused_cycles,
                    "periodic_cycles": sum(r.pe_cycles for r in runners),
                    "periodic_wakes": sum(r.pe_wakes for r in runners),
                    "periodic_attempts": sum(r.pe_attempts
                                             for r in runners),
                    "periodic_failures": sum(r.pe_failures
                                             for r in runners),
                }
            if leg not in results:
                results[leg] = (cycles, retired)
            elif results[leg] != (cycles, retired):
                raise SimulationError(
                    f"bench case {name!r} ({spec.name}): {leg} leg is "
                    f"not deterministic")
    reference = results["naive"]
    for leg, _ in LEGS:
        if results[leg] != reference:
            raise SimulationError(
                f"bench case {name!r} ({spec.name}): {leg} diverged — "
                f"naive {reference[0]} cycles / {reference[1]} retired, "
                f"{leg} {results[leg][0]} / {results[leg][1]}")
    cycles, retired = reference
    row: Dict = {
        "case": name,
        "spec": spec.name,
        "cycles": cycles,
        "retired": retired,
    }
    for leg, _ in LEGS:
        row[leg] = _leg_stats(cycles, walls[leg])
    if engagement:
        # Informational (never gated): how many core-cycles of the fast
        # leg the walk ran compiled, and how many it elided as periodic
        # spins.
        row["fast"]["engagement"] = engagement
    row["speedup"] = row["naive"]["wall_s"] / row["fast"]["wall_s"]
    return row


def host_fingerprint() -> Dict[str, str]:
    """Interpreter and platform identity recorded with every report.

    Wall-clock numbers are only comparable between reports that share a
    fingerprint; :func:`check_report` ignores it (the simulated results
    it gates on are host-independent).
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def run_bench(case_names: Optional[List[str]] = None) -> Dict:
    """Run the selected (default: all) cases; returns the full report."""
    names = list(case_names) if case_names else list(CASES)
    unknown = [n for n in names if n not in CASES]
    if unknown:
        raise SimulationError(
            f"unknown bench cases: {', '.join(unknown)} "
            f"(known: {', '.join(CASES)})")
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "host": host_fingerprint(),
        "repeats": BENCH_REPEATS,
        "cases": [run_case(name) for name in names],
    }


def run_snapshot_roundtrip(case_names: Optional[List[str]] = None,
                           snapshot_dir: Optional[str] = None) -> Dict:
    """Pause each case mid-run, snapshot to a file, restore, continue.

    The rows carry the same ``cycles``/``retired`` keys as
    :func:`run_bench`, so :func:`check_report` gates a round-tripped run
    against the very same committed baseline — proving the snapshot path
    reproduces the uninterrupted simulation exactly, end to end through
    the on-disk format.
    """
    from repro.experiments.engine import request
    from repro.system.snapshot import (read_snapshot, restore_machine,
                                       write_snapshot)
    names = list(case_names) if case_names else list(CASES)
    unknown = [n for n in names if n not in CASES]
    if unknown:
        raise SimulationError(
            f"unknown bench cases: {', '.join(unknown)} "
            f"(known: {', '.join(CASES)})")
    if snapshot_dir is None:
        snapshot_dir = tempfile.mkdtemp(prefix="repro-snap-")
    os.makedirs(snapshot_dir, exist_ok=True)
    rows = []
    for name in names:
        bench, variant, kwargs = CASES[name]
        req = request(bench, variant, **kwargs)

        spec = registry.REGISTRY[bench].variants[variant](**kwargs)
        full = Machine(spec.system)
        full.load(spec.workload)
        total = full.run(options=RunOptions(max_cycles=spec.max_cycles))
        retired = full.total_retired()

        spec2 = registry.REGISTRY[bench].variants[variant](**kwargs)
        paused = Machine(spec2.system)
        paused.load(spec2.workload)
        paused.run(options=RunOptions(max_cycles=spec2.max_cycles,
                                      pause_at=total // 2))
        path = os.path.join(snapshot_dir, f"{name}.json")
        write_snapshot(path, paused, req)

        restored, rebuilt_spec = restore_machine(read_snapshot(path))
        cycles = restored.run(
            options=RunOptions(max_cycles=rebuilt_spec.max_cycles))
        if (cycles, restored.total_retired()) != (total, retired):
            raise SimulationError(
                f"bench case {name!r} ({spec.name}): snapshot round-trip "
                f"diverged — uninterrupted {total} cycles / {retired} "
                f"retired, restored {cycles} / "
                f"{restored.total_retired()}")
        if restored.stats.as_dict() != full.stats.as_dict():
            raise SimulationError(
                f"bench case {name!r} ({spec.name}): snapshot round-trip "
                f"stats diverged from the uninterrupted run")
        rows.append({
            "case": name,
            "spec": spec.name,
            "cycles": cycles,
            "retired": retired,
            "pause_at": total // 2,
            "snapshot": path,
        })
    return {"schema": BENCH_SCHEMA_VERSION, "mode": "snapshot-roundtrip",
            "host": host_fingerprint(), "cases": rows}


def write_report(report: Dict, path: str = DEFAULT_OUT) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")


def check_report(fresh: Dict, baseline: Dict) -> List[str]:
    """Compare a fresh report against a committed baseline.

    Simulated results (final cycles and retired instructions) must match
    exactly for every case the two reports share — they are deterministic,
    so any drift is a behaviour change, not noise.  Wall-clock numbers are
    informational only and never fail the check.  Both reports must carry
    schema :data:`BENCH_SCHEMA_VERSION`.  Returns a list of failure
    messages (empty when the gate passes).
    """
    failures: List[str] = []
    for label, report in (("fresh", fresh), ("baseline", baseline)):
        if report.get("schema") != BENCH_SCHEMA_VERSION:
            return [f"{label} report has schema {report.get('schema')!r}, "
                    f"expected {BENCH_SCHEMA_VERSION}"]
    fresh_rows = {row["case"]: row for row in fresh["cases"]}
    base_rows = {row["case"]: row for row in baseline["cases"]}
    shared = [name for name in base_rows if name in fresh_rows]
    if not shared:
        return ["no bench cases in common with the baseline report"]
    for name in shared:
        for key in ("cycles", "retired"):
            got, want = fresh_rows[name][key], base_rows[name][key]
            if got != want:
                failures.append(
                    f"{name}: {key} changed {want} -> {got} "
                    f"(simulated results must be exact)")
    return failures


def format_report(report: Dict) -> str:
    lines = []
    host = report.get("host")
    if host:
        lines.append(f"host: python {host['python']} "
                     f"({host.get('implementation', '?')}) "
                     f"on {host.get('platform', '?')}")
    for row in report["cases"]:
        if "naive" not in row:
            lines.append(
                f"{row['case']:10s} {row['spec']:28s} "
                f"{row['cycles']:>10d} cyc  snapshot round-trip OK "
                f"(paused at {row['pause_at']})")
            continue
        naive = row["naive"]["cycles_per_s"]
        fast = row["fast"]["cycles_per_s"]
        line = (
            f"{row['case']:10s} {row['spec']:28s} {row['cycles']:>10d} cyc  "
            f"naive {naive / 1e3:8.1f} kcyc/s  "
            f"fast {fast / 1e3:8.1f} kcyc/s  "
            f"speedup {row['speedup']:.2f}x")
        periodic = row["fast"].get("engagement", {}).get("periodic_cycles")
        if periodic:
            line += f"  periodic {periodic} core-cyc"
        lines.append(line)
    return "\n".join(lines)
