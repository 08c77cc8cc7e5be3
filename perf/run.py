"""Regeneration benchmark: what a user of ``repro figure`` waits for.

    python3 perf/run.py [--workload W] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in child interpreters (perf/measure.py), one at a
time, engine ``jobs=1``: untraced, one fresh child per cold pass until
about ``run_seconds`` of BENCHMARK.json are spent, each metric the
median over the passes.  Without ``--workload`` all four run one after
another.  The run length is fixed so that runs being compared always
have the same length; ``--seconds`` may only repeat that value, and
``--smoke`` (tiny sizes, for the test suite) measures a single pass.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones (see perf/README.md); the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  A run whose specs fail or drift from
``perf/expected/specs.json`` prints that object with ``"correct":
false`` and exits 1.  ``--record-expected`` rewrites the records.

Set-up time (``setup_s``) is the median of five fresh interpreters that
import ``repro.cli``, build an engine, fingerprint the source tree and
build the workload's request list.  All times are in seconds of the
reference host (perf/calibrate.py): the host's speed drifts too much to
compare raw wall times.  The raw pass times and the host's speed are
printed above the result line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from calibrate import normalize

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
BENCHMARK = ROOT / "BENCHMARK.json"
SETUP_LAUNCHES = 5
#: Wall-clock cap on one child; the whole run must end within 180 s.
CHILD_TIMEOUT_S = 170

SETUP_CODE = """\
import json
import calibrate
with calibrate.HostClock() as clock:
    import repro.cli
    from repro.experiments.engine import ExperimentEngine, code_fingerprint
    import workloads
    ExperimentEngine(jobs=1, cache_dir={cache!r})
    code_fingerprint()
    workloads.requests({workload!r}, {seed!r}, smoke={smoke!r})
print(json.dumps(clock.ticks))
"""


def child_env() -> Dict[str, str]:
    paths = [str(ROOT / "src"), str(PERF)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def host_fingerprint() -> Dict[str, object]:
    """Times compare only between runs with the same fingerprint."""
    return {"python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count()}


def setup_seconds(workload: str, seed: int, smoke: bool) -> float:
    """Median wall time of fresh interpreters doing the set-up work, each
    in seconds of the reference host by the ticks of a clock it runs."""
    code = SETUP_CODE.format(cache=str(ROOT / "out" / "perf" / "setup"),
                             workload=workload, seed=seed, smoke=smoke)
    times = []
    for _ in range(SETUP_LAUNCHES):
        # No timeout: waiting with one polls in 50 ms steps, which
        # would quantize the measurement.
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                              check=True, stdout=subprocess.PIPE, text=True)
        wall = time.perf_counter() - start
        times.append(normalize(wall, json.loads(proc.stdout)))
    return statistics.median(times)


def run_child(args: List[str]) -> Dict:
    """Run measure.py; its last stdout line is its JSON report."""
    proc = subprocess.run([sys.executable, str(PERF / "measure.py")] + args,
                          env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perf/measure.py {' '.join(args)} exited "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(args: List[str], seconds: float) -> Dict:
    """Untraced: one cold pass per fresh child for about ``seconds``.

    A pass is not started when more than half of it would fall past
    ``seconds``.  Each metric is the median over the passes.
    """
    children: List[Dict] = []
    spent: List[float] = []
    while not spent or sum(spent) + statistics.mean(spent) / 2 < seconds:
        start = time.perf_counter()
        children.append(run_child(args))
        spent.append(time.perf_counter() - start)
    first = children[0]
    return {"attempted": sum(child["attempted"] for child in children),
            "failures": [failure for child in children
                         for failure in child["failures"]],
            "drift": sorted({line for child in children
                             for line in child["drift"]}),
            "walls": [child["wall"] for child in children],
            "host_speed": statistics.median(child["host_speed"]
                                            for child in children),
            "metrics": {name: {"value": statistics.median(
                                   child["metrics"][name]["value"]
                                   for child in children),
                               "unit": metric["unit"]}
                        for name, metric in first["metrics"].items()}}


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 smoke: bool, expected: List[str]) -> Dict:
    """One workload's result object (the four keys) plus a report."""
    setup = None if trace else setup_seconds(workload, seed, smoke)
    args = ["--workload", workload, "--seed", str(seed),
            "--trace", str(trace)] + (["--smoke"] if smoke else [])
    child = run_child(args) if trace else run_passes(args, seconds)
    metrics = child["metrics"]
    if setup is not None:
        metrics["setup_s"] = {"value": setup, "unit": "s"}
    if sorted(metrics) != sorted(expected):
        raise SystemExit(f"{workload}: emitted {sorted(metrics)}, "
                         f"BENCHMARK.json names {sorted(expected)}")
    failures = child["failures"]
    print(f"{workload} seed={seed}", end="")
    if "walls" in child:
        walls = " ".join(f"{wall:.3f}" for wall in child["walls"])
        print(f": {len(child['walls'])} passes [{walls}] s wall, host "
              f"speed {child['host_speed']:.3f} x reference", end="")
    if "trace_file" in child:
        print(f": spans -> {child['trace_file']}", end="")
    print()
    for name in expected:
        print(f"  {name:28s} {metrics[name]['value']:14.6g} "
              f"{metrics[name]['unit']}")
    if not trace:
        print(f"  {'failed_frac':28s} {len(failures) / child['attempted']:14g}"
              f" ratio ({len(failures)} of {child['attempted']} specs)")
    for line in failures + child["drift"]:
        print(f"{workload}: {line}", file=sys.stderr)
    return {"correct": not failures and not child["drift"],
            "attempted": child["attempted"],
            "failed": len(failures),
            "metrics": {name: metrics[name] for name in expected}}


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    benchmark = json.loads(BENCHMARK.read_text())
    names = [each["name"] for each in benchmark["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=0,
                        help="0 = base sizes; 1 is held out for claims")
    parser.add_argument("--seconds", type=int,
                        default=benchmark["run_seconds"],
                        help="measured time per workload; must equal "
                             "run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the test suite")
    parser.add_argument("--out", type=Path,
                        help="also write each result to a JSON file here "
                             "(input of perf/compare.py)")
    parser.add_argument("--record-expected", action="store_true",
                        help="rewrite perf/expected/specs.json")
    args = parser.parse_args(argv)
    if args.seconds != benchmark["run_seconds"]:
        parser.error(f"--seconds {args.seconds}: the run length is fixed "
                     f"at run_seconds = {benchmark['run_seconds']}")
    if args.record_expected:
        proc = subprocess.run([sys.executable, str(PERF / "measure.py"),
                               "--record"], env=child_env())
        return proc.returncode

    group = "per_layer" if args.trace else "end_to_end"
    expected = [each["name"] for each in benchmark[group]]
    selected = [args.workload] if args.workload else names
    seconds = 0 if args.smoke else args.seconds
    results = {}
    for workload in selected:
        stamp = time.time_ns()
        result = run_workload(workload, args.seed, seconds, args.trace,
                              args.smoke, expected)
        results[workload] = result
        if args.out:
            args.out.mkdir(parents=True, exist_ok=True)
            path = args.out / (f"{workload}-seed{args.seed}-trace"
                               f"{args.trace}-{stamp}.json")
            path.write_text(json.dumps({"workload": workload,
                                        "seed": args.seed,
                                        "trace": args.trace,
                                        "time_ns": stamp,
                                        "host": host_fingerprint(),
                                        "result": result}) + "\n")
    if args.workload:
        final = results[args.workload]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{workload}.{name}": value
                             for workload, result in results.items()
                             for name, value in result["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
