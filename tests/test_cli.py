"""Tests for the command-line interface."""

import pytest

from repro.cli import UsageError, _parse_kwargs, build_parser, main


class TestParsing:
    def test_kwargs(self):
        assert _parse_kwargs(["M=64", "R=3"]) == {"M": 64, "R": 3}
        with pytest.raises(UsageError):
            _parse_kwargs(["M"])

    def test_kwargs_typed_values(self):
        parsed = _parse_kwargs(["scale=0.5", "wide_core=true", "flip=False",
                                "bench=g721dec", "items=48"])
        assert parsed == {"scale": 0.5, "wide_core": True, "flip": False,
                          "bench": "g721dec", "items": 48}
        assert isinstance(parsed["items"], int)
        assert isinstance(parsed["scale"], float)

    def test_kwargs_error_names_the_pair(self):
        with pytest.raises(UsageError, match="bogus"):
            _parse_kwargs(["bogus"])

    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["table", "1"])
        assert args.number == 1
        args = parser.parse_args(["figure", "12", "--quick",
                                  "--bench", "ll3"])
        assert args.quick and args.benchmarks == ["ll3"]

    def test_engine_flags(self):
        parser = build_parser()
        args = parser.parse_args(["figure", "10", "--jobs", "4",
                                  "--no-cache", "--cache-dir", "/tmp/x"])
        assert args.jobs == 4 and args.no_cache
        assert args.cache_dir == "/tmp/x"
        args = parser.parse_args(["run", "wc", "seq", "--jobs", "2"])
        assert args.jobs == 2 and not args.no_cache


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "hmmer" in out and "dijkstra" in out

    def test_tables(self, capsys):
        for number in ("1", "2", "3"):
            assert main(["table", number]) == 0
        out = capsys.readouterr().out
        assert "0.51" in out and "MESI" in out and "P7Viterbi" in out

    def test_run_variant(self, capsys):
        assert main(["run", "wc", "compcomm", "--items", "items=48"]) == 0
        out = capsys.readouterr().out
        assert "verified" in out

    def test_ablation_sharing(self, capsys):
        assert main(["ablation", "sharing"]) == 0
        assert "sharers" in capsys.readouterr().out


def test_run_json_output(capsys):
    import json
    assert main(["run", "twolf", "seq", "--items", "items=16",
                 "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["name"] == "twolf/seq"
    assert record["results"]["cycles"] > 0
    assert "system" in record and record["system"]["clusters"]


def test_profile_hot_fused_share_is_of_core_cycles(capsys):
    """On a multi-core run the fused share divides the walk's compiled
    core-cycles by the core-cycles simulated, so it stays within [0, 1],
    and the text and ``--json`` reports give the same counts."""
    import json
    import re
    argv = ["profile", "--hot", "--bench", "ll2", "barrier",
            "--items", "n=32", "p=8", "passes=1", "--top", "1"]
    assert main(argv + ["--json"]) == 0
    report = json.loads(capsys.readouterr().out)["blockgen"]
    assert 0 < report["fused_cycles"] <= report["core_cycles"]
    assert 0.0 < report["fused_share"] <= 1.0
    assert main(argv) == 0
    line = next(line for line in capsys.readouterr().out.splitlines()
                if line.startswith("blockgen:"))
    match = re.fullmatch(
        r"blockgen: (\d+) windows, (\d+) fused core-cycles "
        r"\(([\d.]+)% of (\d+) core-cycles\)", line)
    assert match, line
    windows, fused, share, core_cycles = match.groups()
    assert (int(windows), int(fused), int(core_cycles)) == (
        report["windows"], report["fused_cycles"], report["core_cycles"])
    assert f"{share}%" == f"{report['fused_share']:.1%}"


# -- the exit-code convention --------------------------------------------------
#
# Every cmd_* handler returns an int exit code (0 ok, 1 failed gate,
# 2 usage); main() passes it through, and turns a UsageError into a
# stderr line and 2.  The table is printed in --help.

def _handlers():
    import repro.cli as cli
    return sorted(name for name in vars(cli)
                  if name.startswith("cmd_"))


def test_every_handler_is_declared_to_return_int():
    import inspect

    import repro.cli as cli
    assert _handlers(), "no cmd_* handlers found"
    for name in _handlers():
        annotation = inspect.signature(
            getattr(cli, name)).return_annotation
        assert annotation in (int, "int"), \
            f"{name} must declare -> int (got {annotation!r})"


@pytest.mark.parametrize("argv", [
    ["list"],
    ["table", "1"],
    ["table", "2"],
    ["table", "3"],
    ["run", "wc", "seq", "--items", "items=16"],
    ["lint", "--bench", "wc"],
])
def test_cheap_commands_return_int_zero(argv, capsys):
    code = main(argv)
    assert isinstance(code, int) and code == 0
    capsys.readouterr()  # drain output so failures print cleanly


def test_help_epilog_documents_exit_codes(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "exit codes:" in out
    assert "usage error" in out


#: Unusable snapshot files for the ``resume`` cases below.
_BAD_SNAPSHOTS = {
    "malformed.json": "{not json",
    "list.json": "[1, 2]",
    "other-kind.json": '{"kind": "metrics-snapshot", "schema": 1, '
                       '"payload": {}}',
    "old-schema.json": '{"kind": "machine-snapshot", "schema": 1, '
                       '"payload": {}}',
}


@pytest.mark.parametrize("argv,message", [
    pytest.param(["no-such-command"], "invalid choice", id="unknown-command"),
    pytest.param(["serve"], "invalid choice", id="serve-is-gone"),
    pytest.param(["run", "wc", "seq", "--items", "items"],
                 "bad parameter 'items'", id="run-items-not-a-pair"),
    pytest.param(["run", "nosuch", "seq"], "unknown benchmark 'nosuch'",
                 id="run-unknown-benchmark"),
    pytest.param(["run", "wc", "warp"], "wc variants:",
                 id="run-unknown-variant"),
    pytest.param(["table", "4"], "tables are 1, 2, or 3", id="table-4"),
    pytest.param(["figure", "7"], "figures are 8-14", id="figure-7"),
    pytest.param(["ablation", "nope"], "ablations:", id="ablation-unknown"),
    pytest.param(["lint", "--bench", "nosuch"], "unknown benchmarks: nosuch",
                 id="lint-unknown-benchmark"),
    # A name the figure does not plot, and two requests whose spec
    # cannot be built (one in the engine's worker, one before it).
    pytest.param(["figure", "12", "--quick", "--bench", "nosuch"],
                 "figure 12 has no benchmark nosuch",
                 id="figure-unknown-benchmark"),
    pytest.param(["run", "hmmer", "compcomm", "--items", "M=8"],
                 "hmmer/compcomm: WorkloadError: compcomm needs M >= 48",
                 id="run-workload-error"),
    pytest.param(["sample", "g721dec", "seq", "--sample", "0"],
                 "g721dec/seq: ConfigError: need warmup >= 0",
                 id="sample-config-error"),
    # Snapshots that cannot be read or restored (files from
    # _BAD_SNAPSHOTS; missing.json is never written).
    pytest.param(["resume", "missing.json"],
                 "missing.json: FileNotFoundError:", id="resume-missing"),
    pytest.param(["resume", "malformed.json"],
                 "malformed.json: JSONDecodeError:", id="resume-not-json"),
    pytest.param(["resume", "list.json"],
                 "list.json holds no versioned record",
                 id="resume-not-a-record"),
    pytest.param(["resume", "other-kind.json"],
                 "expected a 'machine-snapshot' record, got kind "
                 "'metrics-snapshot'", id="resume-other-kind"),
    pytest.param(["resume", "old-schema.json"],
                 "machine-snapshot record has schema v1, this code reads v",
                 id="resume-other-schema"),
    # A bench baseline that cannot be read fails before any case runs.
    pytest.param(["bench", "--check", "missing.json"],
                 "missing.json: FileNotFoundError:",
                 id="bench-check-missing"),
    pytest.param(["bench", "--check", "malformed.json"],
                 "malformed.json: JSONDecodeError:",
                 id="bench-check-not-json"),
])
def test_usage_errors_exit_2(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    for name, text in _BAD_SNAPSHOTS.items():
        (tmp_path / name).write_text(text)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's own usage errors
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert message in err.strip().splitlines()[-1]
