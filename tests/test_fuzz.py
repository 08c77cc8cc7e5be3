"""Scenario fuzzer: determinism, three-way agreement, CLI contract."""

import json

from repro.analysis import fuzz
from repro.analysis.fuzz import (_MENU, run_fuzz, scenario_for_seed,
                                 write_fuzz_json)
from repro.cli import main


def test_scenarios_are_deterministic():
    for seed in range(20):
        a = scenario_for_seed(seed)
        b = scenario_for_seed(seed)
        assert (a.kind, a.defect, a.expect_rules) == \
               (b.kind, b.defect, b.expect_rules)
        assert a.golden == b.golden and a.result_addrs == b.result_addrs


def test_thirty_seeds_agree():
    report = run_fuzz(range(30))
    assert report["scenarios"] == 30
    assert report["disagreements"] == []
    # Both populations are represented in any contiguous 30-seed window.
    assert report["clean"] > 0 and report["defective"] > 0
    for record in report["records"]:
        if record["defect"] is not None:
            assert record["dynamic"] != "completed"


def test_ci_seed_range_covers_the_whole_menu():
    """The CI fuzz-smoke job runs seeds 0..24: every (shape, defect)
    entry of the menu, the atomics shape included, is among them."""
    seen = {(s.kind, s.defect) for s in map(scenario_for_seed, range(25))}
    assert seen == set(_MENU)


def test_clean_scenario_runs_both_schedulers(monkeypatch):
    """A clean scenario runs in two modes: the fast scheduler on the
    spec lint saw, then the naive loop on a fresh build."""
    runs = []
    real = fuzz._run_spec

    def spy(spec, scenario, fast_forward):
        runs.append((spec, fast_forward))
        return real(spec, scenario, fast_forward)

    monkeypatch.setattr(fuzz, "_run_spec", spy)
    scenario = next(s for s in map(scenario_for_seed, range(len(_MENU)))
                    if s.kind == "compute")
    assert fuzz.run_scenario(scenario)["disagreements"] == []
    assert [fast for _spec, fast in runs] == [True, False]
    assert runs[0][0] is not runs[1][0]


def test_defect_records_name_the_rules():
    report = run_fuzz(range(len(_MENU)))
    for record in report["records"]:
        if record["defect"] is not None:
            assert record["error_rules"], record


def test_report_json_roundtrip(tmp_path):
    report = run_fuzz(range(4))
    path = tmp_path / "fuzz.json"
    write_fuzz_json(report, str(path))
    loaded = json.loads(path.read_text())
    assert loaded["schema"] == report["schema"]
    assert loaded["seeds"] == list(range(4))
    assert loaded["disagreements"] == []


def test_cli_fuzz(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["fuzz", "--seeds", "5", "--json", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "0 disagreements" in printed
    assert json.loads(out.read_text())["scenarios"] == 5


def test_cli_fuzz_start_offset(capsys):
    assert main(["fuzz", "--seeds", "2", "--start", "7"]) == 0
    assert "2 scenarios" in capsys.readouterr().out
