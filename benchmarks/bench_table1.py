"""Table I: relative area and power of four OOO1 cores vs the shared SPL."""

from repro.experiments.tables import table1, table2, table3
from repro.obs.render import format_table


def bench_table1(benchmark):
    data = benchmark.pedantic(table1, rounds=1, iterations=1)
    rows = [dict(component=name, **values) for name, values in data.items()]
    print("\n=== Table I: relative area and power ===")
    print(format_table(rows))


def bench_table2(benchmark):
    rows = benchmark.pedantic(table2, rounds=1, iterations=1)
    print("\n=== Table II: architecture parameters ===")
    print(format_table([{"parameter": p, "OOO1": a, "OOO2": b}
                        for p, a, b in rows]))


def bench_table3(benchmark):
    rows = benchmark.pedantic(table3, rounds=1, iterations=1)
    print("\n=== Table III: benchmark details ===")
    print(format_table([{"benchmark": n, "functions": f, "% exec": p}
                        for n, f, p in rows]))
