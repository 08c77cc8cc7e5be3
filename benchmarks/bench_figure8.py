"""Figure 8: whole-program performance relative to the OOO1 baseline."""

from conftest import ENGINE, REGION_OVERRIDES, get_or_run

from repro.experiments.whole_program import figure8_rows, whole_program_study
from repro.obs.render import format_table, geomean_row


def _study():
    return whole_program_study(overrides=REGION_OVERRIDES, engine=ENGINE)


def bench_figure8(benchmark):
    points = benchmark.pedantic(
        lambda: get_or_run("whole_program", _study), rounds=1, iterations=1)
    rows = figure8_rows(points)
    rows.append(geomean_row(rows))
    print("\n=== Figure 8: whole-program % improvement vs 1-thread OOO1 ===")
    print(format_table(rows, floatfmt="{:.1f}"))
