"""Registry-wide lint sweep: every benchmark x variant must verify clean.

This is the static half of the acceptance gate — it builds (but never
simulates) every spec the registry can produce and asserts the verifier
finds nothing at error or warning severity.

The sweep finds nothing, so it cannot tell whether the SPL dataflow still
computes the per-thread summaries that the balance rules (SPL004-006),
the concurrency checks and the static bounds consume.  A golden file
pins them; regenerate it deliberately with::

    PYTHONPATH=src python -m tests.regen_spl_golden
"""

import json
import os

import pytest

from repro.analysis import (Severity, lint_library, lint_registry,
                            render_text, spec_summaries)
from repro.cli import main
from repro.workloads import registry

SPL_GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                          "spl_summaries.json")


def _int_set(values):
    return None if values is None else sorted(values)


def spl_summaries_record():
    """``{bench/variant: {thread id: SplSummary}}`` at factory defaults."""
    record = {}
    for bench in sorted(registry.REGISTRY):
        variants = registry.REGISTRY[bench].variants
        for variant in sorted(variants):
            _, _, _, summaries, _ = spec_summaries(variants[variant]())
            record[f"{bench}/{variant}"] = {
                str(thread): {
                    "has_spl": summary.has_spl,
                    "pops": _int_set(summary.pops),
                    "issues": {str(config): _int_set(values)
                               for config, values in summary.issues.items()},
                    "init_words": {str(config): _int_set(values)
                                   for config, values
                                   in summary.init_words.items()},
                } for thread, summary in summaries.items()}
    return record


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


def test_spl_summaries_match_golden():
    with open(SPL_GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    assert spl_summaries_record() == golden
