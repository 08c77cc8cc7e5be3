"""Ablations of the design choices DESIGN.md calls out (not in the paper;
they quantify the mechanisms the paper argues for qualitatively)."""

from conftest import ENGINE

from repro.experiments import ablations
from repro.obs.render import format_table


def bench_ablation_sharing_degree(benchmark):
    rows = benchmark.pedantic(
        lambda: ablations.sharing_degree(items=16, engine=ENGINE),
        rounds=1, iterations=1)
    print("\n=== Ablation: fabric sharing degree (g721 fmult) ===")
    print(format_table(rows))


def bench_ablation_fabric_size(benchmark):
    rows = benchmark.pedantic(
        lambda: ablations.fabric_size(items=16, engine=ENGINE),
        rounds=1, iterations=1)
    print("\n=== Ablation: fabric rows / virtualization (g721 fmult) ===")
    print(format_table(rows))


def bench_ablation_partitioning(benchmark):
    rows = benchmark.pedantic(
        lambda: ablations.spatial_partitioning(n=256, p=4, passes=4,
                                               engine=ENGINE),
        rounds=1, iterations=1)
    print("\n=== Ablation: spatial partitioning (LL3 MAC streams) ===")
    print(format_table(rows, floatfmt="{:.1f}"))


def bench_ablation_queue_depth(benchmark):
    rows = benchmark.pedantic(
        lambda: ablations.queue_depth(M=64, R=3, engine=ENGINE),
        rounds=1, iterations=1)
    print("\n=== Ablation: SPL queue depth (hmmer 2Th+CompComm) ===")
    print(format_table(rows))


def bench_ablation_barrier_bus(benchmark):
    rows = benchmark.pedantic(
        lambda: ablations.barrier_bus_latency(n=40, p=8, engine=ENGINE),
        rounds=1, iterations=1)
    print("\n=== Ablation: inter-cluster barrier bus latency (dijkstra) ===")
    print(format_table(rows))


def bench_ablation_reconfig_cost(benchmark):
    rows = benchmark.pedantic(
        lambda: ablations.reconfiguration_cost(n=128, p=4, passes=4,
                                               engine=ENGINE),
        rounds=1, iterations=1)
    print("\n=== Ablation: reconfiguration cost (LL3 barrier+comp) ===")
    print(format_table(rows))


def bench_ablation_fabric_manager(benchmark):
    """Dynamic partitioning (core/manager.py) vs static temporal sharing
    on a mixed-function four-thread stream."""
    rows = benchmark.pedantic(
        lambda: ablations.dynamic_management(n=128, engine=ENGINE),
        rounds=1, iterations=1)
    print("\n=== Ablation: dynamic fabric management ===")
    print(format_table(rows))
