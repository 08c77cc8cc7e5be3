"""One workload, one seed, in its own interpreter (started by run.py).

Untraced (``--trace 0``) the child makes one cold regeneration pass and
reports its time in seconds of the reference host (perf/calibrate.py);
run.py starts one child per pass.  Traced
(``--trace 1``) it makes a cProfile pass over ``Machine.run``, a
reference pass and a span pass that differ only in the spans, a warm
pass over the cache the span pass filled and a ``jobs=2`` pass, and
reports the per-layer numbers.  Every simulated result of every pass goes through the
exactness gate against ``expected/specs.json``.

The last line of standard output is one JSON object; run.py reads it.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import itertools
import json
import pstats
import re
import resource
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.analysis import check_measured, compute_bounds, lint_spec
from repro.common.config import RunOptions
from repro.experiments.engine import (ExperimentEngine, ResultCache,
                                      SpecError, build_spec)
from repro.experiments.runner import RunResult, finalize
from repro.obs.profile import ProfilerSink
from repro.system.machine import Machine

import workloads
from calibrate import HostClock, host_speed, normalize

PERF = Path(__file__).resolve().parent
EXPECTED = PERF / "expected" / "specs.json"
#: Everything a run writes goes under the checkout's gitignored out/.
OUT = PERF.parent / "out" / "perf"

ACCT_CLASSES = ("compute", "spl_queue_stall", "barrier_wait", "mem_stall",
                "idle")
#: span name -> per-layer metric holding its summed self time.
SPAN_METRICS = {"workloads.build": "workloads.build_s",
                "analysis.lint": "analysis.lint_s",
                "analysis.bounds": "analysis.bounds_s",
                "system.load": "system.load_s",
                "system.run": "system.run_s",
                "experiments.finalize": "experiments.finalize_s",
                "engine.store": "engine.store_s"}
SHARES = ("cpu.blockgen", "cpu.pipeline", "cpu.frontend", "system.machine",
          "core", "core.codegen", "mem", "common.stats", "obs", "builtin",
          "other")
RATIOS = ("model.ipc", "model.l1d_miss_rate", "model.spl_row_utilization")
_MODULE = re.compile(r"[/\\]repro[/\\](\w+)[/\\](\w+)\.py$")
_L1D = re.compile(r"\.mem\.core\d+\.l1d_(hits|misses)$")


# -- exactness gate -----------------------------------------------------------


def record_of(result: RunResult) -> Dict:
    """The exact, host-independent fingerprint of one simulated spec."""
    counters = json.dumps(sorted(result.counters.items()),
                          separators=(",", ":"))
    return {"cycles": result.cycles,
            "retired": result.metrics["retired"],
            "counters_sha256": hashlib.sha256(counters.encode()).hexdigest()}


class Gate:
    """Checks results against the committed records; collects drift."""

    def __init__(self, expected: Dict[str, Dict]) -> None:
        self.expected = expected
        self.drift: List[str] = []

    def check(self, label: str, result: RunResult) -> None:
        want = self.expected.get(label)
        if want is None:
            self.drift.append(f"{label}: no expected record "
                              f"(perf/run.py --record-expected)")
            return
        got = record_of(result)
        for key in ("cycles", "retired", "counters_sha256"):
            if got[key] != want[key]:
                self.drift.append(f"{label}: {key} drifted "
                                  f"{want[key]} -> {got[key]}")


# -- spans --------------------------------------------------------------------


class Span(NamedTuple):
    span_id: int
    parent: Optional[int]
    spec: int
    name: str
    start: float
    end: float


class Tracer:
    """In-memory spans around the public calls; written out at the end.

    Spans of one spec share its index (``spec``); ``parent`` links a
    span to the one that encloses it.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.spec = -1
        self._ids = itertools.count()
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, parent, self.spec, name,
                                   start, end))

    def self_times(self) -> Dict[str, float]:
        """Summed self time (duration minus child spans) per span name."""
        children: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] = children.get(span.parent, 0.0) + \
                    span.end - span.start
        out: Dict[str, float] = {}
        for span in self.spans:
            own = span.end - span.start - children.get(span.span_id, 0.0)
            out[span.name] = out.get(span.name, 0.0) + own
        return out

    def root_total(self) -> float:
        return sum(span.end - span.start for span in self.spans
                   if span.parent is None)

    def write_chrome(self, path: Path) -> None:
        """Chrome-trace JSON (chrome://tracing, ui.perfetto.dev)."""
        origin = min((span.start for span in self.spans), default=0.0)
        events = [{"name": span.name, "cat": "perf", "ph": "X",
                   "ts": (span.start - origin) * 1e6,
                   "dur": (span.end - span.start) * 1e6,
                   "pid": 1, "tid": 1,
                   "args": {"span_id": span.span_id, "parent": span.parent,
                            "spec": span.spec}}
                  for span in sorted(self.spans, key=lambda s: s.start)]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))


class _NoTrace:
    spec = -1

    def span(self, name: str):
        return nullcontext()


NO_TRACE = _NoTrace()


# -- passes -------------------------------------------------------------------


class Pass(NamedTuple):
    wall: float
    results: List[RunResult]
    failures: List[str]
    #: Summed cycle-accounting buckets (observed passes only).
    acct: Dict[str, int]


def _fresh_dir() -> Path:
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(dir=OUT / "tmp"))


def engine_pass(reqs, gate: Gate, jobs: int = 1,
                cache_dir: Optional[Path] = None) -> Pass:
    """``ExperimentEngine.run_batch`` as ``repro figure`` runs it.

    Cold (a fresh, empty cache) unless ``cache_dir`` is given.
    """
    own = cache_dir is None
    cache_dir = cache_dir or _fresh_dir()
    try:
        engine = ExperimentEngine(jobs=jobs, use_cache=True,
                                  cache_dir=cache_dir, lint=True)
        start = time.perf_counter()
        out = engine.run_batch(reqs, strict=False)
        wall = time.perf_counter() - start
    finally:
        if own:
            shutil.rmtree(cache_dir, ignore_errors=True)
    results, failures = [], []
    for req, result in zip(reqs, out):
        if isinstance(result, SpecError):
            failures.append(str(result))
        else:
            gate.check(workloads.spec_label(req), result)
            results.append(result)
    return Pass(wall, results, failures, {})


def direct_pass(reqs, gate: Gate, observe: bool, tracer=NO_TRACE,
                profiler: Optional[cProfile.Profile] = None,
                cache: Optional[ResultCache] = None) -> Pass:
    """Each spec through the public calls, one after another.

    With ``observe`` this is what ``repro profile`` does: a
    ``ProfilerSink`` on the bus, then cycle accounting and the static
    bound check.  With a ``cache`` it is the engine's ``jobs=1`` path:
    the pre-flight builds and lints the spec, the run builds it again,
    and the result is serialized into the cache.
    """
    results, failures = [], []
    acct = dict.fromkeys(ACCT_CLASSES, 0)
    start = time.perf_counter()
    for index, req in enumerate(reqs):
        tracer.spec = index
        try:
            with tracer.span("spec"):
                if cache is not None:
                    with tracer.span("workloads.build"):
                        linted = build_spec(req)
                    with tracer.span("analysis.lint"):
                        errors = [diag for diag in lint_spec(linted)
                                  if diag.is_error]
                    if errors:
                        raise RuntimeError(f"{len(errors)} lint errors")
                result, spec, sink = simulate(req, tracer, observe,
                                              profiler)
                if observe:
                    with tracer.span("analysis.bounds"):
                        totals = observe_bounds(result, spec, sink)
                    for cls in ACCT_CLASSES:
                        acct[cls] += totals[cls]
                if cache is not None:
                    with tracer.span("engine.store"):
                        cache.store(req.cache_key(), req, result.to_dict())
        except Exception as exc:
            failures.append(f"{req.label}: {type(exc).__name__}: {exc}")
            continue
        gate.check(workloads.spec_label(req), result)
        results.append(result)
    return Pass(time.perf_counter() - start, results, failures, acct)


def simulate(req, tracer=NO_TRACE, observe: bool = False,
             profiler: Optional[cProfile.Profile] = None):
    """build -> Machine/load -> run -> finalize; (result, spec, sink)."""
    with tracer.span("workloads.build"):
        spec = build_spec(req)
    with tracer.span("system.load"):
        machine = Machine(spec.system)
        sink = None
        if observe:
            sink = ProfilerSink()
            machine.obs.attach(sink, kinds=ProfilerSink.KINDS)
        machine.load(spec.workload)
    with tracer.span("system.run"):
        if profiler is not None:
            profiler.enable()
        try:
            cycles = machine.run(
                options=RunOptions(max_cycles=spec.max_cycles))
        finally:
            if profiler is not None:
                profiler.disable()
    with tracer.span("experiments.finalize"):
        result = finalize(machine, spec, cycles, check=True)
    return result, spec, sink


def observe_bounds(result: RunResult, spec, sink) -> Dict[str, int]:
    """Cycle accounting plus the static-bound check of one observed run."""
    accounting = sink.accounting()
    diagnostics = check_measured(compute_bounds(spec),
                                 accounting.total_cycles,
                                 counters=result.counters, unit=spec.name)
    if diagnostics:
        raise RuntimeError("; ".join(diag.render() for diag in diagnostics))
    totals = dict.fromkeys(ACCT_CLASSES, 0)
    for row in accounting.rows():
        for cls in ACCT_CLASSES:
            totals[cls] += row[cls]
    return totals


def regen_pass(workload: str, reqs, gate: Gate) -> Pass:
    """One cold regeneration of the workload, as a user runs it."""
    if workload == "observed_profile":
        return direct_pass(reqs, gate, observe=True)
    return engine_pass(reqs, gate)


# -- per-layer aggregation ----------------------------------------------------


def bucket(filename: str) -> str:
    """The layer a profiled function's self time is charged to."""
    if filename.startswith("<blockgen:"):
        return "cpu.blockgen"
    if filename.startswith("<dfg:"):
        return "core.codegen"
    if filename == "~":
        return "builtin"
    match = _MODULE.search(filename)
    if match is None:
        return "other"
    package, module = match.groups()
    if package == "cpu":
        if module in ("blockgen", "pipeline"):
            return f"cpu.{module}"
        if module in ("branch", "exec", "context", "ports"):
            return "cpu.frontend"
        return "obs" if module == "trace" else "other"
    if package == "system":
        return "system.machine"
    if package == "core":
        return "core.codegen" if module == "codegen" else "core"
    if package in ("mem", "obs"):
        return package
    if (package, module) == ("common", "stats"):
        return "common.stats"
    return "other"


def module_shares(profiler: cProfile.Profile) -> Dict[str, float]:
    """Self-time share of each layer inside the profiled calls."""
    totals = dict.fromkeys(SHARES, 0.0)
    for (filename, _, _), row in pstats.Stats(profiler).stats.items():
        totals[bucket(filename)] += row[2]
    whole = sum(totals.values()) or 1.0
    return {name: value / whole for name, value in totals.items()}


def model_counts(results: List[RunResult]) -> Dict[str, float]:
    """Simulated, exact totals over one pass (host-independent)."""
    cycles = sum(result.cycles for result in results)
    retired = sum(result.metrics["retired"] for result in results)
    l1d = {"hits": 0.0, "misses": 0.0}
    bus = {"transactions": 0, "wait_cycles": 0}
    issues = 0
    util = fabric_cycles = 0.0
    for result in results:
        for key, value in result.counters.items():
            match = _L1D.search(key)
            if match:
                l1d[match.group(1)] += value
        for key in bus:
            bus[key] += result.metrics["bus"][key]
        for fabric in result.metrics["fabrics"]:
            issues += fabric["issues"]
            weight = max(1, result.cycles // 4)
            util += fabric["row_utilization"] * weight
            fabric_cycles += weight
    accesses = l1d["hits"] + l1d["misses"]
    return {"model.cycles": cycles,
            "model.retired": retired,
            "model.ipc": retired / cycles if cycles else 0.0,
            "model.l1d_miss_rate": (l1d["misses"] / accesses
                                    if accesses else 0.0),
            "model.bus_transactions": bus["transactions"],
            "model.bus_wait_cycles": bus["wait_cycles"],
            "model.spl_issues": issues,
            "model.spl_row_utilization": (util / fabric_cycles
                                          if fabric_cycles else 0.0)}


# -- the two kinds of run -----------------------------------------------------


def measure(workload: str, reqs, gate: Gate) -> Dict:
    """One cold pass, what a fresh ``repro figure`` process does, timed
    with a :class:`~calibrate.HostClock` and reported in seconds of the
    reference host."""
    start = time.perf_counter()
    with HostClock() as clock:
        done = regen_pass(workload, reqs, gate)
    wall = time.perf_counter() - start
    regen = normalize(wall, clock.ticks)
    cycles = sum(result.cycles for result in done.results)
    return {"attempted": len(reqs),
            "failures": done.failures,
            "wall": wall - sum(clock.ticks),
            "host_speed": host_speed(clock.ticks),
            "metrics": {"regen_norm_s": (regen, "s"),
                        "regen_norm_kcps": (cycles / regen / 1e3, "kcyc/s"),
                        "peak_rss_mb": (peak_rss_mb(), "MB")}}


def trace(workload: str, reqs, gate: Gate, seed: int) -> Dict:
    """Per-layer numbers: spans, warm load, module shares, fan-out."""
    observed = workload == "observed_profile"
    # The profiled pass goes first: it also pays the one-time lazy
    # imports, which would otherwise land in the reference pass.
    profiler = cProfile.Profile()
    passes = [direct_pass(reqs, gate, observed, profiler=profiler)]
    tracer = Tracer()
    warm = fanout = None
    reference_dir, cache_dir = _fresh_dir(), _fresh_dir()
    try:
        # The reference and span passes differ only in the spans, so
        # their difference is the cost of tracing.
        reference = direct_pass(reqs, gate, observed,
                                cache=None if observed else ResultCache(
                                    reference_dir))
        spans = direct_pass(reqs, gate, observed, tracer,
                            cache=None if observed else ResultCache(
                                cache_dir))
        passes += [reference, spans]
        if not observed:
            warm = engine_pass(reqs, gate, cache_dir=cache_dir)
            passes.append(warm)
            fanout = engine_pass(reqs, gate, jobs=2)
            passes.append(fanout)
    finally:
        shutil.rmtree(reference_dir, ignore_errors=True)
        shutil.rmtree(cache_dir, ignore_errors=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    tracer.write_chrome(path)

    metrics: Dict[str, Tuple[float, str]] = {}
    self_times = tracer.self_times()
    for span, name in SPAN_METRICS.items():
        metrics[name] = (self_times.get(span, 0.0), "s")
    run_s = self_times.get("system.run", 0.0)
    cycles = sum(result.cycles for result in spans.results)
    metrics["system.run_kcps"] = (cycles / run_s / 1e3 if run_s else 0.0,
                                  "kcyc/s")
    metrics["engine.load_s"] = (warm.wall if warm else 0.0, "s")
    in_process = tracer.root_total()
    metrics["engine.fanout_eff"] = (
        in_process / (2 * fanout.wall) if fanout else 0.0, "ratio")
    metrics["trace_overhead"] = (spans.wall / reference.wall - 1.0, "ratio")
    metrics["span_coverage"] = (in_process / spans.wall, "ratio")
    for name, share in module_shares(profiler).items():
        metrics[f"sim.share.{name}"] = (share, "ratio")
    for name, value in model_counts(spans.results).items():
        metrics[name] = (value, "ratio" if name in RATIOS else "count")
    core_cycles = sum(spans.acct.values())
    for cls in ACCT_CLASSES:
        share = spans.acct.get(cls, 0) / core_cycles if core_cycles else 0.0
        metrics[f"model.acct.{cls}"] = (share, "ratio")
    return {"attempted": len(reqs) * len(passes),
            "failures": [failure for each in passes
                         for failure in each.failures],
            "trace_file": str(path.relative_to(PERF.parent)),
            "metrics": metrics}


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this interpreter (kilobytes on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def record(path: Path = EXPECTED) -> int:
    """Simulate every request any seed can draw; rewrite the records."""
    reqs = workloads.every_request()
    done = engine_pass(reqs, Gate({}))
    if done.failures:
        for failure in done.failures:
            print(failure, file=sys.stderr)
        return 1
    records = {workloads.spec_label(req): record_of(result)
               for req, result in zip(reqs, done.results)}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(records)} specs -> "
          f"{path.relative_to(PERF.parent)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    reqs = workloads.requests(args.workload, args.seed, smoke=args.smoke)
    gate = Gate(json.loads(EXPECTED.read_text()))
    if args.trace:
        out = trace(args.workload, reqs, gate, args.seed)
    else:
        out = measure(args.workload, reqs, gate)
    out["drift"] = gate.drift
    out["metrics"] = {name: {"value": value, "unit": unit}
                      for name, (value, unit) in out["metrics"].items()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
