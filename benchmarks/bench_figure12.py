"""Figure 12: per-iteration execution time for the barrier workloads."""

from conftest import BARRIER_SIZES, ENGINE, get_or_run

from repro.experiments.barriers import figure12_series, run_barrier_sweep
from repro.obs.render import format_series


def _sweep(bench):
    return run_barrier_sweep(bench, sizes=BARRIER_SIZES[bench],
                             thread_counts=(2, 4, 8, 16), engine=ENGINE)


def _bench(benchmark, name):
    sweep = benchmark.pedantic(
        lambda: get_or_run(f"sweep_{name}", lambda: _sweep(name)),
        rounds=1, iterations=1)
    print(f"\n=== Figure 12 ({name}): cycles per iteration ===")
    print(format_series(figure12_series(sweep, thread_counts=(8, 16))))


def bench_figure12_ll2(benchmark):
    _bench(benchmark, "ll2")


def bench_figure12_ll6(benchmark):
    _bench(benchmark, "ll6")


def bench_figure12_ll3(benchmark):
    _bench(benchmark, "ll3")


def bench_figure12_dijkstra(benchmark):
    _bench(benchmark, "dijkstra")
