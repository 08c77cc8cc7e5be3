"""Figure 10: optimized-region % improvement per variant."""

from conftest import ENGINE, REGION_OVERRIDES, get_or_run

from repro.experiments.regions import figure10_rows, run_region_study
from repro.obs.render import format_table


def _study():
    return run_region_study(include_swqueue=True,
                            overrides=REGION_OVERRIDES, engine=ENGINE)


def bench_figure10(benchmark):
    study = benchmark.pedantic(
        lambda: get_or_run("regions", _study), rounds=1, iterations=1)
    print("\n=== Figure 10: region % improvement vs 1-thread OOO1 ===")
    print(format_table(figure10_rows(study), floatfmt="{:.1f}"))
