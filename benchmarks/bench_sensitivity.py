"""Microarchitectural sensitivity sweeps (simulator-credibility checks)."""

from conftest import ENGINE

from repro.experiments.sensitivity import ALL_SENSITIVITIES
from repro.obs.render import format_table


def bench_sensitivity_rob(benchmark):
    rows = benchmark.pedantic(
        lambda: ALL_SENSITIVITIES["rob"](engine=ENGINE),
                              rounds=1,
                              iterations=1)
    print("\n=== Sensitivity: ROB entries (hmmer seq) ===")
    print(format_table(rows))


def bench_sensitivity_registers(benchmark):
    rows = benchmark.pedantic(
        lambda: ALL_SENSITIVITIES["registers"](engine=ENGINE),
                              rounds=1,
                              iterations=1)
    print("\n=== Sensitivity: physical registers (hmmer seq) ===")
    print(format_table(rows))


def bench_sensitivity_l1d(benchmark):
    rows = benchmark.pedantic(
        lambda: ALL_SENSITIVITIES["l1d"](engine=ENGINE),
                              rounds=1,
                              iterations=1)
    print("\n=== Sensitivity: L1D capacity (hmmer seq) ===")
    print(format_table(rows))


def bench_sensitivity_memory(benchmark):
    rows = benchmark.pedantic(
        lambda: ALL_SENSITIVITIES["memory"](engine=ENGINE),
                              rounds=1,
                              iterations=1)
    print("\n=== Sensitivity: memory latency (hmmer seq) ===")
    print(format_table(rows))
