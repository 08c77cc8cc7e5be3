"""Figure 13: Barrier+Comp improvement over Barrier alone (LL3, dijkstra)."""

from bench_figure12 import _sweep
from conftest import get_or_run

from repro.experiments.barriers import figure13_series
from repro.obs.render import format_series


def _bench(benchmark, name):
    sweep = benchmark.pedantic(
        lambda: get_or_run(f"sweep_{name}", lambda: _sweep(name)),
        rounds=1, iterations=1)
    print(f"\n=== Figure 13 ({name}): Barrier+Comp % improvement ===")
    print(format_series(figure13_series(sweep), value_fmt="{:.1f}"))


def bench_figure13_ll3(benchmark):
    _bench(benchmark, "ll3")


def bench_figure13_dijkstra(benchmark):
    _bench(benchmark, "dijkstra")
