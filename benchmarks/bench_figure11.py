"""Figure 11: optimized-region energy x delay per variant."""

from conftest import ENGINE, REGION_OVERRIDES, get_or_run

from repro.experiments.regions import figure11_rows, run_region_study
from repro.obs.render import format_table


def bench_figure11(benchmark):
    study = benchmark.pedantic(
        lambda: get_or_run(
            "regions",
            lambda: run_region_study(include_swqueue=True,
                                     overrides=REGION_OVERRIDES,
                                     engine=ENGINE)),
        rounds=1, iterations=1)
    print("\n=== Figure 11: region relative energy x delay ===")
    print(format_table(figure11_rows(study), floatfmt="{:.2f}"))
