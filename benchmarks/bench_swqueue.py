"""Section V-B: software-queue degradation vs the OOO1 baseline."""

from conftest import ENGINE, REGION_OVERRIDES, get_or_run

from repro.experiments.regions import run_region_study, swqueue_rows
from repro.obs.render import format_table


def bench_swqueue(benchmark):
    study = benchmark.pedantic(
        lambda: get_or_run(
            "regions",
            lambda: run_region_study(include_swqueue=True,
                                     overrides=REGION_OVERRIDES,
                                     engine=ENGINE)),
        rounds=1, iterations=1)
    print("\n=== Section V-B: software-queue slowdown (%) ===")
    print(format_table(swqueue_rows(study), floatfmt="{:.1f}"))
