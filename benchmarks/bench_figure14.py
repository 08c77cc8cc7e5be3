"""Figure 14: energy x delay of the barrier workloads vs sequential."""

from bench_figure12 import _sweep
from conftest import get_or_run

from repro.experiments.barriers import figure14_series
from repro.obs.render import format_series


def _bench(benchmark, name):
    sweep = benchmark.pedantic(
        lambda: get_or_run(f"sweep_{name}", lambda: _sweep(name)),
        rounds=1, iterations=1)
    print(f"\n=== Figure 14 ({name}): relative energy x delay ===")
    print(format_series(figure14_series(sweep), value_fmt="{:.3f}"))


def bench_figure14_ll2(benchmark):
    _bench(benchmark, "ll2")


def bench_figure14_ll6(benchmark):
    _bench(benchmark, "ll6")


def bench_figure14_ll3(benchmark):
    _bench(benchmark, "ll3")


def bench_figure14_dijkstra(benchmark):
    _bench(benchmark, "dijkstra")
