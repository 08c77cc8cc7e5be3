"""Compare two sets of benchmark runs: ``python3 perf/compare.py A/ B/``.

A and B are directories of result files written by ``perf/run.py --out``
(A is the parent commit, B the change).  For every workload and every
end-to-end metric of BENCHMARK.json this prints each side's median and
quartiles, the fraction of runs B wins, and a verdict:

* ``improved`` -- B wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than A's interquartile range;
* ``unresolved`` -- A's spread is wider than the metric's bound, so no
  regression can be ruled out (unless every B run beats every A run);
* ``worse`` -- B's median is worse than A's by more than the bound;
* ``unchanged`` -- otherwise.

Runs are paired by seed when both sides ran the same distinct seeds,
otherwise in the order they were made (the ``time_ns`` of each file), so
that a pair shares the host's speed at the time.  Exits 1 if any
pairing is ``worse``, 2 if the two sides ran on hosts with different
fingerprints.  ``perf/baseline/`` holds five runs of seed 0 at the
commit that added the benchmark; ``compare.py perf/baseline
perf/baseline`` prints their medians and quartiles.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Set, Tuple

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: workload -> metric -> [(seed, value)], in the order the runs were made
Runs = Dict[str, Dict[str, List[Tuple[int, float]]]]


def load_runs(directory: Path) -> Tuple[Runs, Set[str]]:
    """The untraced runs of a directory and the host fingerprints seen."""
    records = [json.loads(path.read_text())
               for path in directory.glob("*.json")]
    records = sorted((record for record in records if not record["trace"]),
                     key=lambda record: record["time_ns"])
    runs: Runs = {}
    hosts = set()
    for record in records:
        hosts.add(json.dumps(record["host"], sort_keys=True))
        by_metric = runs.setdefault(record["workload"], {})
        for name, metric in record["result"]["metrics"].items():
            by_metric.setdefault(name, []).append((record["seed"],
                                                   metric["value"]))
    return runs, hosts


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def pairs(a: List[Tuple[int, float]],
          b: List[Tuple[int, float]]) -> List[Tuple[float, float]]:
    seeds = [seed for seed, _ in a]
    if len(set(seeds)) == len(seeds) and sorted(seeds) == \
            sorted(seed for seed, _ in b):
        b_by_seed = dict(b)
        return [(value, b_by_seed[seed]) for seed, value in a]
    return [(x, y) for (_, x), (_, y) in zip(a, b)]


def verdict(a: List[Tuple[int, float]], b: List[Tuple[int, float]],
            better: str, bound: float) -> Dict:
    """The section-8 rule for one workload x metric."""
    sign = 1.0 if better == "higher" else -1.0
    a_values = [value for _, value in a]
    b_values = [value for _, value in b]
    a_q = quartiles(a_values)
    b_q = quartiles(b_values)
    paired = pairs(a, b)
    wins = sum(1 for x, y in paired if sign * (y - x) > 0)
    win_frac = wins / len(paired) if paired else 0.0
    gain = sign * (b_q[1] - a_q[1])
    spread = (a_q[2] - a_q[0]) / abs(a_q[1]) if a_q[1] else 0.0
    all_better = all(sign * (y - x) > 0 for x in a_values for y in b_values)
    if win_frac >= 0.9 and gain > a_q[2] - a_q[0]:
        rating = "improved"
    elif spread > bound and not all_better:
        rating = "unresolved"
    elif -gain > bound * abs(a_q[1]):
        rating = "worse"
    else:
        rating = "unchanged"
    return {"a": a_q, "b": b_q, "win_frac": win_frac, "spread": spread,
            "verdict": rating}


def compare(a: Runs, b: Runs, metrics: List[Dict]) -> List[Tuple]:
    rows = []
    for workload in sorted(set(a) & set(b)):
        for metric in metrics:
            name = metric["name"]
            if name not in a[workload] or name not in b[workload]:
                continue
            rows.append((workload, name, verdict(
                a[workload][name], b[workload][name], metric["better"],
                metric["bound"])))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", type=Path, help="runs of the parent commit")
    parser.add_argument("b", type=Path, help="runs of the change")
    args = parser.parse_args(argv)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    (a, a_hosts), (b, b_hosts) = load_runs(args.a), load_runs(args.b)
    if len(a_hosts | b_hosts) > 1:
        print("the runs come from hosts with different fingerprints; "
              "their times do not compare:", file=sys.stderr)
        for host in sorted(a_hosts | b_hosts):
            print(f"  {host}", file=sys.stderr)
        return 2
    rows = compare(a, b, metrics)
    if not rows:
        print("no workload x metric present on both sides", file=sys.stderr)
        return 2
    print(f"{'workload':18s} {'metric':12s} {'A median [q1, q3]':>32s} "
          f"{'B median [q1, q3]':>32s} {'win':>5s}  verdict")
    for workload, name, row in rows:
        a_q, b_q = row["a"], row["b"]
        print(f"{workload:18s} {name:12s} "
              f"{a_q[1]:10.4g} [{a_q[0]:9.4g}, {a_q[2]:9.4g}] "
              f"{b_q[1]:10.4g} [{b_q[0]:9.4g}, {b_q[2]:9.4g}] "
              f"{row['win_frac']:5.2f}  {row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for _, _, row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
