"""``check_report``, the ``repro bench --check`` gate: exact cycles and
retired counts for every case two reports share."""

from repro.experiments.bench import BENCH_SCHEMA_VERSION, check_report


def _report(*rows, schema=BENCH_SCHEMA_VERSION):
    return {"schema": schema,
            "cases": [{"case": case, "cycles": cycles, "retired": retired}
                      for case, cycles, retired in rows]}


def test_matching_reports_pass():
    baseline = _report(("seq", 1000, 800), ("barrier", 5000, 3000))
    fresh = _report(("seq", 1000, 800), ("barrier", 5000, 3000))
    assert check_report(fresh, baseline) == []


def test_old_or_unknown_schema_is_refused():
    current = _report(("seq", 1000, 800))
    for schema in (1, BENCH_SCHEMA_VERSION + 1, None):
        other = _report(("seq", 1000, 800), schema=schema)
        for fresh, baseline, label in ((other, current, "fresh"),
                                       (current, other, "baseline")):
            failures = check_report(fresh, baseline)
            assert len(failures) == 1
            assert failures[0].startswith(f"{label} report has schema "
                                          f"{schema!r}")


def test_cycles_and_retired_drift_is_named_per_case():
    baseline = _report(("seq", 1000, 800), ("barrier", 5000, 3000),
                       ("adpcm", 700, 600))
    fresh = _report(("seq", 1001, 800), ("barrier", 5000, 2999),
                    ("adpcm", 700, 600))
    failures = check_report(fresh, baseline)
    assert failures == [
        "seq: cycles changed 1000 -> 1001 (simulated results must be exact)",
        "barrier: retired changed 3000 -> 2999 "
        "(simulated results must be exact)",
    ]


def test_reports_without_a_shared_case_fail():
    failures = check_report(_report(("seq", 1000, 800)),
                            _report(("barrier", 5000, 3000)))
    assert failures == ["no bench cases in common with the baseline report"]
