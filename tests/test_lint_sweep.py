"""Registry-wide lint sweep: every benchmark x variant must verify clean.

This is the static half of the acceptance gate — it builds (but never
simulates) every spec the registry can produce and asserts the verifier
finds nothing at error or warning severity.
"""

import json

import pytest

from repro.analysis import (Severity, lint_library, lint_registry,
                            render_text)
from repro.cli import main
from repro.workloads import registry


@pytest.mark.parametrize("bench", sorted(registry.REGISTRY))
def test_benchmark_lints_clean(bench):
    diagnostics = lint_registry([bench], include_library=False)
    problems = [diag for diag in diagnostics
                if diag.severity is not Severity.NOTE]
    assert not problems, "\n" + render_text(problems)


def test_spl_library_lints_clean():
    assert lint_library() == []


def test_cli_lint_text(capsys):
    assert main(["lint", "--bench", "wc"]) == 0
    out = capsys.readouterr().out
    assert "0 errors" in out


def test_cli_lint_json(capsys):
    assert main(["lint", "--bench", "wc", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["schema"] == 1
    assert record["counts"]["error"] == 0


def test_cli_lint_rejects_unknown_benchmark(capsys):
    assert main(["lint", "--bench", "nope"]) == 2
    assert "unknown benchmarks: nope" in capsys.readouterr().err
