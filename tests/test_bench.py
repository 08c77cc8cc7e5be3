"""``check_report``, the ``repro bench --check`` gate: exact cycles and
retired counts for every case two reports share."""

import copy
import json
import shutil
from pathlib import Path

from repro.cli import main
from repro.experiments import bench
from repro.experiments.bench import BENCH_SCHEMA_VERSION, check_report

#: The committed baseline ``repro bench --check`` gates against.
_COMMITTED = Path(__file__).resolve().parent.parent / "BENCH_simloop.json"


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
    for schema in (1, 2, BENCH_SCHEMA_VERSION + 1, None):
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


def test_cli_check_reads_the_baseline_before_overwriting_it(
        tmp_path, monkeypatch, capsys):
    """Without ``--out``, ``repro bench`` writes its report to the
    committed baseline's path, so ``--check BENCH_simloop.json`` must
    read the baseline before the report lands on it.  The bench run is
    stubbed: the committed report with one case's cycles raised by 1."""
    fresh = copy.deepcopy(json.loads(_COMMITTED.read_text()))
    drifted = fresh["cases"][0]
    drifted["cycles"] += 1
    monkeypatch.setattr(bench, "run_bench", lambda cases=None: fresh)
    shutil.copy(_COMMITTED, tmp_path / _COMMITTED.name)
    monkeypatch.chdir(tmp_path)
    assert main(["bench", "--check", _COMMITTED.name]) == 1
    assert f"CHECK FAIL {drifted['case']}: cycles changed " \
        f"{drifted['cycles'] - 1} -> {drifted['cycles']}" \
        in capsys.readouterr().out
