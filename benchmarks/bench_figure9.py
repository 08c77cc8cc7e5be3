"""Figure 9: whole-program energy x delay relative to the OOO1 baseline."""

from conftest import ENGINE, REGION_OVERRIDES, get_or_run

from repro.experiments.whole_program import figure9_rows, whole_program_study
from repro.obs.render import format_table


def bench_figure9(benchmark):
    points = benchmark.pedantic(
        lambda: get_or_run("whole_program",
                           lambda: whole_program_study(
                               overrides=REGION_OVERRIDES,
                               engine=ENGINE)),
        rounds=1, iterations=1)
    print("\n=== Figure 9: whole-program relative energy x delay ===")
    print(format_table(figure9_rows(points), floatfmt="{:.2f}"))
