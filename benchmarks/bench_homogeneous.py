"""Section V-C2: ReMAP barrier+comp vs the homogeneous barrier cluster."""

from conftest import ENGINE

from repro.experiments.barriers import homogeneous_comparison
from repro.obs.render import format_table


def bench_homogeneous_dijkstra(benchmark):
    rows = benchmark.pedantic(
        lambda: homogeneous_comparison("dijkstra", sizes=[40, 80],
                                       thread_counts=(4, 8),
                                       engine=ENGINE),
        rounds=1, iterations=1)
    print("\n=== Section V-C2 (dijkstra): ED vs homogeneous cluster ===")
    print(format_table(rows, floatfmt="{:.3f}"))


def bench_homogeneous_ll3(benchmark):
    rows = benchmark.pedantic(
        lambda: homogeneous_comparison("ll3", sizes=[128, 512],
                                       thread_counts=(4, 8),
                                       engine=ENGINE),
        rounds=1, iterations=1)
    print("\n=== Section V-C2 (LL3): ED vs homogeneous cluster ===")
    print(format_table(rows, floatfmt="{:.3f}"))
