"""Command-line interface: regenerate any table, figure, or ablation.

Usage::

    python -m repro list
    python -m repro table 1
    python -m repro figure 10 --quick --jobs 4
    python -m repro figure 12 --bench dijkstra
    python -m repro ablation sharing --no-cache
    python -m repro run hmmer compcomm --items M=64 R=3
    python -m repro trace dijkstra --out run.json
    python -m repro profile dijkstra
    python -m repro sample mpeg2enc seq --warmup 20000 --sample 50000
    python -m repro resume out/snap_mpeg2enc_seq.json

Simulation commands accept ``--jobs N`` (fan out over N worker
processes; also ``REPRO_JOBS``), ``--no-cache`` (ignore the persistent
result cache; also ``REPRO_NO_CACHE``), ``--cache-dir PATH``
(default ``~/.cache/repro``; also ``REPRO_CACHE_DIR``), and
``--no-lint`` (skip the static pre-flight verification of specs; also
``REPRO_NO_LINT``).  ``python -m repro lint`` runs the static verifier
over the whole registry and the SPL function library without
simulating anything; it exits non-zero when any error-severity
diagnostic is found.

Every ``cmd_*`` handler returns an integer exit code (the table is in
``python -m repro --help``): 0 success, 1 for failed checks, 2 for
usage errors (argparse's convention).  Handlers reject bad input by
raising :class:`UsageError`, which :func:`main` prints as one stderr
line and turns into exit 2; so does a request whose spec cannot be
built (a ``ConfigError`` or ``WorkloadError`` naming the spec), and a
snapshot that ``resume`` cannot read or restore.

The parser is built from names only, and each handler imports the
harness it runs, so a command that does not simulate starts without
loading the simulator (DESIGN.md section 3, "Import policy").
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, List, Optional

from repro.common.errors import ConfigError, ReproError, WorkloadError

if TYPE_CHECKING:
    from repro.experiments.engine import ExperimentEngine, SpecRequest

#: The CLI-wide exit-code convention (every ``cmd_*`` returns one).
EXIT_OK = 0        # the command did what was asked
EXIT_FAIL = 1      # ran, but a check/lint/baseline gate failed
EXIT_USAGE = 2     # bad arguments (argparse and UsageError paths)

EXIT_CODE_TABLE = """\
exit codes:
  0  success
  1  a gate failed: lint errors, bound violations, baseline check
     mismatches, or fuzz disagreements
  2  usage error (unknown command, malformed arguments, a spec
     request that cannot be built, or an unreadable snapshot)
"""


class UsageError(Exception):
    """Bad command-line input: :func:`main` prints it and exits 2."""


#: What building or validating a spec request raises for bad parameters.
#: A spec that builds and then fails (lint, deadlock, output check)
#: raises something else and keeps exit 1.
_REQUEST_ERRORS = (ConfigError, WorkloadError)

#: What reading or restoring an unusable snapshot file raises: missing
#: or unreadable, not JSON, another record kind or schema, or a payload
#: that does not fit the spec it names.
_SNAPSHOT_ERRORS = (OSError, ValueError, KeyError, TypeError, ReproError)

#: ``repro ablation NAME`` -> its study in repro.experiments.ablations.
_ABLATIONS = {
    "sharing": "sharing_degree",
    "fabric-size": "fabric_size",
    "partitioning": "spatial_partitioning",
    "queue-depth": "queue_depth",
    "barrier-bus": "barrier_bus_latency",
    "reconfig": "reconfiguration_cost",
    "manager": "dynamic_management",
}


def _coerce(value: str):
    """int, float, bool, or str — whichever the text reads as."""
    if value.lower() in ("true", "false"):
        return value.lower() == "true"
    for parse in (int, float):
        try:
            return parse(value)
        except ValueError:
            pass
    return value


def _parse_kwargs(pairs: List[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise UsageError(
                f"bad parameter {pair!r}: expected name=value, e.g. M=64, "
                f"scale=0.5, wide_core=true, bench=g721dec")
        key, value = pair.split("=", 1)
        out[key] = _coerce(value)
    return out


def _engine_from_args(args) -> ExperimentEngine:
    from repro.experiments.engine import ExperimentEngine
    return ExperimentEngine(
        jobs=args.jobs,
        use_cache=False if args.no_cache else None,
        cache_dir=args.cache_dir,
        lint=False if args.no_lint else None,
        progress=True)


@contextmanager
def _building(req: SpecRequest) -> Iterator[None]:
    """Report a request that cannot be built as a :class:`UsageError`.

    Covers both shapes: raised directly, or collected by the engine into
    an :class:`ExperimentBatchError` from its worker.
    """
    from repro.experiments.engine import ExperimentBatchError
    try:
        yield
    except _REQUEST_ERRORS as exc:
        raise UsageError(
            f"{req.label}: {type(exc).__name__}: {exc}") from None
    except ExperimentBatchError as exc:
        names = {cls.__name__ for cls in _REQUEST_ERRORS}
        if any(error.exception_type not in names for error in exc.errors):
            raise
        raise UsageError("; ".join(map(str, exc.errors))) from None


def _user_request(bench: str, variant: str, params: List[str]
                  ) -> SpecRequest:
    """The request a ``BENCH VARIANT --items ...`` command line names.

    The names are checked before the engine (and with it the simulator)
    is imported, so a typo costs no simulator start-up."""
    from repro.workloads import registry
    info = registry.REGISTRY.get(bench)
    if info is None:
        raise UsageError(f"unknown benchmark {bench!r}")
    if variant not in info.variants:
        raise UsageError(f"{bench} variants: "
                         f"{', '.join(sorted(info.variants))}")
    from repro.experiments.engine import request
    return request(bench, variant, **_parse_kwargs(params))


def cmd_list(_args) -> int:
    from repro.workloads import registry
    print("Benchmarks (Table III):")
    for info in registry.REGISTRY.values():
        variants = ", ".join(sorted(info.variants))
        print(f"  {info.name:12s} [{info.category}] variants: {variants}")
    print("\nTables: 1 2 3;  Figures: 8 9 10 11 12 13 14")
    print("Ablations:", ", ".join(_ABLATIONS))
    return EXIT_OK


def cmd_table(args) -> int:
    from repro.experiments.tables import table1, table2, table3
    from repro.obs.render import format_table
    if args.number == 1:
        rows = [dict(component=k, **v) for k, v in table1().items()]
        print(format_table(rows))
    elif args.number == 2:
        print(format_table([{"parameter": p, "OOO1": a, "OOO2": b}
                            for p, a, b in table2()]))
    elif args.number == 3:
        print(format_table([{"benchmark": n, "functions": f, "% exec": p}
                            for n, f, p in table3()]))
    else:
        raise UsageError("tables are 1, 2, or 3")
    return EXIT_OK


def cmd_figure(args) -> int:
    number = args.number
    if not 8 <= number <= 14:
        raise UsageError("figures are 8-14")
    from repro.obs.render import format_series, format_table
    if number <= 11:
        from repro.workloads import registry
        known = [info.name for info in registry.computation_only()
                 + registry.communicating()]
    else:
        from repro.experiments.barriers import QUICK_SIZES
        known = list(QUICK_SIZES)
    unknown = [bench for bench in args.benchmarks or []
               if bench not in known]
    if unknown:
        raise UsageError(f"figure {number} has no benchmark "
                         f"{', '.join(unknown)} (have {', '.join(known)})")
    engine = _engine_from_args(args)
    if number in (8, 9):
        from repro.experiments.whole_program import (figure8_rows,
                                                     figure9_rows,
                                                     whole_program_study)
        points = whole_program_study(args.benchmarks or None, engine=engine)
        rows = figure8_rows(points) if number == 8 else figure9_rows(points)
        print(format_table(rows))
    elif number in (10, 11):
        from repro.experiments.regions import (figure10_rows,
                                               figure11_rows,
                                               run_region_study,
                                               swqueue_rows)
        study = run_region_study(args.benchmarks or None,
                                 include_swqueue=True, engine=engine)
        rows = figure10_rows(study) if number == 10 \
            else figure11_rows(study)
        print(format_table(rows))
        if number == 10:
            print("\nSoftware queues (Section V-B):")
            print(format_table(swqueue_rows(study)))
    else:
        from repro.experiments.barriers import (PAPER_SIZES,
                                                figure12_series,
                                                figure13_series,
                                                figure14_series,
                                                run_barrier_sweep)
        benches = args.benchmarks or (["ll3", "dijkstra"] if number == 13
                                      else ["ll2", "ll6", "ll3", "dijkstra"])
        for bench in benches:
            sizes = (QUICK_SIZES if args.quick else PAPER_SIZES)[bench]
            threads = (2, 4, 8, 16) if number == 13 else (8, 16)
            sweep = run_barrier_sweep(bench, sizes=list(sizes),
                                      thread_counts=threads, engine=engine)
            series = {12: figure12_series, 13: figure13_series,
                      14: figure14_series}[number](sweep,
                                                   thread_counts=threads)
            print(f"--- {bench} ---")
            print(format_series(series))
    return EXIT_OK


def cmd_ablation(args) -> int:
    if args.name not in _ABLATIONS:
        raise UsageError(f"ablations: {', '.join(_ABLATIONS)}")
    from repro.experiments import ablations
    from repro.obs.render import format_table
    study = getattr(ablations, _ABLATIONS[args.name])
    print(format_table(study(engine=_engine_from_args(args))))
    return EXIT_OK


def cmd_run(args) -> int:
    req = _user_request(args.benchmark, args.variant, args.params)
    engine = _engine_from_args(args)
    with _building(req):
        result = engine.run(req)
    if args.json:
        import json
        print(json.dumps(result.to_dict(), indent=2))
        return EXIT_OK
    print(f"{result.name}: {result.cycles} cycles "
          f"({result.cycles_per_item:.2f} per item), "
          f"energy {result.energy_joules * 1e6:.2f} uJ, "
          f"ED {result.energy_delay:.3e} J*s")
    if result.cache_hit:
        print("result served from the cache (simulated and verified "
              "in an earlier run)")
    else:
        print("output verified against the reference kernel")
    return EXIT_OK


_VARIANT_PREFERENCE = ("spl", "compcomm", "barrier", "comm", "sw")


def _resolve_observed_spec(args):
    """RunSpec for the trace/profile commands (default variant if blank).

    The names are checked before the engine is imported."""
    from repro.workloads import registry
    bench = args.benchmark_opt or args.benchmark
    if not bench:
        raise UsageError("name a benchmark (positional or --bench)")
    variant = args.variant
    if args.benchmark_opt and args.benchmark and not variant:
        # "trace --bench hmmer compcomm": the positional is the variant.
        variant = args.benchmark
    info = registry.REGISTRY.get(bench)
    if not variant and info is not None:
        variant = next((candidate for candidate in _VARIANT_PREFERENCE
                        if candidate in info.variants),
                       min(info.variants))
    req = _user_request(bench, variant, args.params)
    from repro.experiments.engine import build_spec
    with _building(req):
        return build_spec(req)


def _run_observed(spec, *sinks):
    """Simulate ``spec`` with sinks attached to the machine's event bus."""
    from repro.common.config import RunOptions
    from repro.system.machine import Machine
    machine = Machine(spec.system)
    for sink, kinds in sinks:
        machine.obs.attach(sink, kinds=kinds)
    machine.load(spec.workload)
    machine.run(options=RunOptions(max_cycles=spec.max_cycles))
    machine.finish_observation()
    return machine


def cmd_trace(args) -> int:
    import os
    spec = _resolve_observed_spec(args)
    from repro.obs.perfetto import PERFETTO_KINDS, PerfettoSink
    sink = PerfettoSink()
    machine = _run_observed(spec, (sink, PERFETTO_KINDS))
    # Default under the gitignored out/ directory so traces (easily
    # hundreds of thousands of lines) never end up committed.
    out = args.out or os.path.join("out", "trace.json")
    parent = os.path.dirname(out)
    if parent:
        os.makedirs(parent, exist_ok=True)
    sink.write(out)
    print(f"{spec.name}: {machine.cycle} cycles, "
          f"{len(sink.trace_events)} trace events -> {out}")
    print("open in https://ui.perfetto.dev or chrome://tracing "
          "(1 us shown = 1 core cycle)")
    return EXIT_OK


def _cmd_profile_hot(args) -> int:
    """Hot-path report: per-PC retire counts plus compiled-walk
    statistics.

    Runs without observation sinks, because it needs none: its per-PC
    tallies and walk counters are read from the machine after the run.
    A sink would change no scheduling decision either (DESIGN.md
    section 10), so the run is the default configuration's — fused
    windows, periodic elision and all.
    """
    import json
    spec = _resolve_observed_spec(args)
    from repro.common.config import RunOptions
    from repro.system.machine import Machine
    machine = Machine(spec.system)
    machine.load(spec.workload)
    programs = {}
    for core in machine.cores:
        core._retire_pcs = {}
        if core.ctx is not None:
            programs[core.index] = core.ctx.program.instructions
    cycles = machine.run(options=RunOptions(max_cycles=spec.max_cycles))
    runners = list(machine._bg_runners.values())
    walk = machine._bg_multi
    windows, fused = walk.windows, walk.fused_cycles
    # Fused cycles are core-cycles, so their share is of the core-cycles
    # the run simulated, not of the machine's cycle count.
    core_cycles = sum(core.stats.get("cycles") for core in machine.cores)
    share = fused / core_cycles if core_cycles else 0.0
    periodic = {"periodic_cycles": sum(r.pe_cycles for r in runners),
                "periodic_wakes": sum(r.pe_wakes for r in runners),
                "periodic_attempts": sum(r.pe_attempts for r in runners),
                "periodic_failures": sum(r.pe_failures for r in runners)}
    rows = []
    for core in machine.cores:
        insts = programs.get(core.index, [])
        for pc, count in (core._retire_pcs or {}).items():
            text = repr(insts[pc]) if pc < len(insts) else "?"
            rows.append({"core": core.index, "pc": pc,
                         "retired": count, "instruction": text})
    rows.sort(key=lambda row: -row["retired"])
    top = rows[:args.top]
    if args.json:
        print(json.dumps({
            "name": spec.name,
            "total_cycles": cycles,
            "blockgen": {"windows": windows, "fused_cycles": fused,
                         "core_cycles": core_cycles, "fused_share": share,
                         **periodic},
            "hot_pcs": top,
        }, indent=2))
        return EXIT_OK
    print(f"{spec.name}: {cycles} cycles")
    print(f"blockgen: {windows} windows, {fused} fused core-cycles "
          f"({share:.1%} of {core_cycles} core-cycles)")
    print(f"periodic elision: {periodic['periodic_cycles']} core-cycles "
          f"elided, {periodic['periodic_wakes']} wakes, "
          f"{periodic['periodic_attempts']} attempts "
          f"({periodic['periodic_failures']} failed)")
    print(f"hot PCs (top {len(top)} by retire count):")
    for row in top:
        print(f"  core {row['core']:>2d}  pc {row['pc']:>5d}  "
              f"{row['retired']:>9d}  {row['instruction']}")
    return EXIT_OK


def cmd_profile(args) -> int:
    if args.hot:
        return _cmd_profile_hot(args)
    spec = _resolve_observed_spec(args)
    from repro.analysis.bounds import check_measured, compute_bounds
    from repro.obs.profile import ProfilerSink
    from repro.obs.render import render_profile
    sink = ProfilerSink()
    _run_observed(spec, (sink, ProfilerSink.KINDS))
    accounting = sink.accounting()
    bounds = compute_bounds(spec)
    bound_diags = check_measured(bounds, accounting.total_cycles,
                                 unit=spec.name)
    if args.json:
        import json
        print(json.dumps({"name": spec.name,
                          "total_cycles": accounting.total_cycles,
                          "min_cycles_bound": bounds.min_cycles,
                          "bound_violations": [d.render()
                                               for d in bound_diags],
                          "cores": accounting.rows()}, indent=2))
        return EXIT_FAIL if bound_diags else EXIT_OK
    print(f"{spec.name}:")
    print(render_profile(accounting))
    print(f"static lower bound: {bounds.min_cycles} cycles "
          f"({accounting.total_cycles} measured)")
    for diag in bound_diags:
        print(diag.render())
    return EXIT_FAIL if bound_diags else EXIT_OK


def cmd_sample(args) -> int:
    import json
    import os
    req = _user_request(args.benchmark, args.variant, args.params)
    from repro import api
    from repro.experiments.sample import format_report
    snapshot_path = args.snapshot
    if snapshot_path is None:
        snapshot_path = os.path.join(
            "out", f"snap_{args.benchmark}_{args.variant}.json")
    parent = os.path.dirname(snapshot_path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with _building(req):
        report = api.sample(req, warmup=args.warmup, sample=args.sample,
                            snapshot_path=snapshot_path,
                            compare_full=args.compare_full)
    if args.json:
        print(json.dumps(report, indent=2))
        return EXIT_OK
    print(format_report(report))
    return EXIT_OK


def cmd_resume(args) -> int:
    from repro.system.snapshot import (read_snapshot, restore_machine,
                                       run_restored)
    try:
        machine, spec = restore_machine(read_snapshot(args.snapshot))
    except _SNAPSHOT_ERRORS as exc:
        raise UsageError(f"{args.snapshot}: {type(exc).__name__}: "
                         f"{exc}") from None
    cycles = run_restored(machine, spec, check=not args.no_check)
    print(f"resumed {args.snapshot}: completed at cycle {cycles}, "
          f"{machine.total_retired()} instructions retired")
    if not args.no_check:
        print("output verified against the reference kernel")
    return EXIT_OK


def cmd_bench(args) -> int:
    import json

    from repro.experiments.bench import (DEFAULT_OUT, SNAPSHOT_OUT,
                                         check_report, format_report,
                                         run_bench, run_snapshot_roundtrip,
                                         write_report)
    cases = list(args.cases or [])
    for group in args.case_list or []:
        cases.extend(name for name in group.split(",") if name)
    baseline = None
    if args.check:
        # Read the baseline first: the report may land on the same path
        # (a bench run's default --out is the committed baseline).
        try:
            with open(args.check, encoding="utf-8") as handle:
                baseline = json.load(handle)
        except (OSError, ValueError) as exc:
            raise UsageError(f"{args.check}: {type(exc).__name__}: "
                             f"{exc}") from None
    if args.snapshot_roundtrip:
        report = run_snapshot_roundtrip(cases or None,
                                        snapshot_dir=args.snapshot_dir)
        out = args.out or SNAPSHOT_OUT
    else:
        report = run_bench(cases or None)
        out = args.out or DEFAULT_OUT
    write_report(report, out)
    print(format_report(report))
    print(f"report -> {out}")
    if baseline is not None:
        failures = check_report(report, baseline)
        if failures:
            for failure in failures:
                print(f"CHECK FAIL {failure}")
            return EXIT_FAIL
        print(f"check OK against {args.check}")
    return EXIT_OK


def cmd_lint(args) -> int:
    from repro import api
    from repro.analysis import has_errors, render_json, render_text
    from repro.workloads import registry
    benchmarks = args.benchmarks or None
    if benchmarks:
        unknown = [b for b in benchmarks if b not in registry.REGISTRY]
        if unknown:
            raise UsageError(f"unknown benchmarks: {', '.join(unknown)}")
    diagnostics = api.lint(benchmarks)
    if args.json:
        print(render_json(diagnostics))
    else:
        print(render_text(diagnostics))
    return EXIT_FAIL if has_errors(diagnostics) else EXIT_OK


def cmd_fuzz(args) -> int:
    from repro.analysis.fuzz import (render_fuzz_text, run_fuzz,
                                     write_fuzz_json)
    seeds = range(args.start, args.start + args.seeds)
    report = run_fuzz(seeds)
    print(render_fuzz_text(report))
    if args.json_out:
        import os
        parent = os.path.dirname(args.json_out)
        if parent:
            os.makedirs(parent, exist_ok=True)
        write_fuzz_json(report, args.json_out)
        print(f"report -> {args.json_out}")
    return EXIT_FAIL if report["disagreements"] else EXIT_OK


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default $REPRO_JOBS or 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read or write the result cache")
    parser.add_argument("--cache-dir", default=None,
                        help="result cache location "
                             "(default $REPRO_CACHE_DIR or ~/.cache/repro)")
    parser.add_argument("--no-lint", action="store_true",
                        help="skip the static pre-flight verification "
                             "of specs before simulating")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ReMAP (MICRO 2010) reproduction driver",
        epilog=EXIT_CODE_TABLE,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmarks and experiments") \
        .set_defaults(func=cmd_list)

    p_table = sub.add_parser("table", help="print Table 1/2/3")
    p_table.add_argument("number", type=int)
    _add_engine_flags(p_table)
    p_table.set_defaults(func=cmd_table)

    p_fig = sub.add_parser("figure", help="regenerate Figure 8-14")
    p_fig.add_argument("number", type=int)
    p_fig.add_argument("--quick", action="store_true",
                       help="use reduced sweep sizes")
    p_fig.add_argument("--bench", dest="benchmarks", action="append",
                       help="restrict to specific benchmarks")
    _add_engine_flags(p_fig)
    p_fig.set_defaults(func=cmd_figure)

    p_abl = sub.add_parser("ablation", help="run one ablation study")
    p_abl.add_argument("name")
    _add_engine_flags(p_abl)
    p_abl.set_defaults(func=cmd_ablation)

    p_run = sub.add_parser("run", help="run one benchmark variant")
    p_run.add_argument("benchmark")
    p_run.add_argument("variant")
    p_run.add_argument("--items", dest="params", nargs="*", default=[],
                       help="spec parameters, e.g. M=64 R=3 or items=128")
    p_run.add_argument("--json", action="store_true",
                       help="emit a JSON record of the run")
    _add_engine_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_trace = sub.add_parser(
        "trace", help="export a Perfetto/Chrome trace of one run")
    p_trace.add_argument("benchmark", nargs="?", default="")
    p_trace.add_argument("variant", nargs="?", default="",
                         help="variant (default: the SPL variant)")
    p_trace.add_argument("--bench", dest="benchmark_opt", default=None,
                         help="benchmark (alternative to the positional)")
    p_trace.add_argument("--out", default=None,
                         help="output path (default out/trace.json)")
    p_trace.add_argument("--items", dest="params", nargs="*", default=[],
                         help="spec parameters, e.g. n=64 p=4")
    p_trace.set_defaults(func=cmd_trace)

    p_prof = sub.add_parser(
        "profile", help="cycle-accounting breakdown of one run")
    p_prof.add_argument("benchmark", nargs="?", default="")
    p_prof.add_argument("variant", nargs="?", default="",
                        help="variant (default: the SPL variant)")
    p_prof.add_argument("--bench", dest="benchmark_opt", default=None,
                        help="benchmark (alternative to the positional)")
    p_prof.add_argument("--items", dest="params", nargs="*", default=[],
                        help="spec parameters, e.g. n=64 p=4")
    p_prof.add_argument("--json", action="store_true",
                        help="emit the breakdown as JSON")
    p_prof.add_argument("--hot", action="store_true",
                        help="per-PC retire counts and compiled-walk "
                             "statistics instead of cycle accounting "
                             "(runs with no sink attached)")
    p_prof.add_argument("--top", type=int, default=20,
                        help="rows in the --hot per-PC table (default 20)")
    p_prof.set_defaults(func=cmd_profile)

    p_sample = sub.add_parser(
        "sample", help="SimPoint-style sampled run: warmup, snapshot, "
                       "measure a bounded window")
    p_sample.add_argument("benchmark")
    p_sample.add_argument("variant")
    p_sample.add_argument("--warmup", type=int, default=20_000,
                          help="detailed warmup cycles before the "
                               "snapshot/measurement boundary")
    p_sample.add_argument("--sample", type=int, default=50_000,
                          help="measured window length in cycles")
    p_sample.add_argument("--snapshot", default=None,
                          help="snapshot path written at the warmup "
                               "boundary (default out/snap_<bench>_"
                               "<variant>.json)")
    p_sample.add_argument("--compare-full", action="store_true",
                          help="also run uninterrupted and report the "
                               "sampled-vs-full IPC error and wall-clock "
                               "ratio")
    p_sample.add_argument("--items", dest="params", nargs="*", default=[],
                          help="spec parameters, e.g. M=64 R=3 or items=128")
    p_sample.add_argument("--json", action="store_true",
                          help="emit the report as JSON")
    p_sample.set_defaults(func=cmd_sample)

    p_resume = sub.add_parser(
        "resume", help="continue a snapshotted run to completion")
    p_resume.add_argument("snapshot", help="snapshot file written by "
                                           "'repro sample' --snapshot")
    p_resume.add_argument("--no-check", action="store_true",
                          help="skip the workload's reference-output check")
    p_resume.set_defaults(func=cmd_resume)

    p_bench = sub.add_parser(
        "bench", help="time the simulation loop (naive vs fast-forward)")
    p_bench.add_argument("--case", dest="cases", action="append",
                         help="case to run (seq, barrier, compcomm, adpcm, "
                              "livermore); repeatable, default all")
    p_bench.add_argument("--cases", dest="case_list", action="append",
                         help="comma-separated case selection, e.g. "
                              "--cases seq,adpcm")
    p_bench.add_argument("--out", default=None,
                         help="report path (default BENCH_simloop.json)")
    p_bench.add_argument("--check", default=None, metavar="PATH",
                         help="compare simulated results (cycles, retired) "
                              "against a committed baseline report; exact "
                              "match required, wall clock informational")
    p_bench.add_argument("--snapshot-roundtrip", action="store_true",
                         help="instead of timing, pause each case mid-run, "
                              "snapshot to disk, restore and continue; "
                              "--check then gates the round-tripped results "
                              "against the same baseline")
    p_bench.add_argument("--snapshot-dir", default=None,
                         help="where round-trip snapshot files are written "
                              "(default: a temporary directory)")
    p_bench.set_defaults(func=cmd_bench)

    p_lint = sub.add_parser(
        "lint", help="statically verify benchmarks and SPL functions")
    p_lint.add_argument("--bench", dest="benchmarks", action="append",
                        help="restrict to specific benchmarks (also skips "
                             "the function library)")
    p_lint.add_argument("--json", action="store_true",
                        help="emit the diagnostic report as JSON")
    p_lint.set_defaults(func=cmd_lint)

    p_fuzz = sub.add_parser(
        "fuzz", help="cross-check static verdicts against simulation on "
                     "randomized scenarios")
    p_fuzz.add_argument("--seeds", type=int, default=100,
                        help="number of seeds to fuzz (default 100)")
    p_fuzz.add_argument("--start", type=int, default=0,
                        help="first seed (default 0)")
    p_fuzz.add_argument("--json", dest="json_out", default=None,
                        help="also write the full report to this path")
    p_fuzz.set_defaults(func=cmd_fuzz)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
