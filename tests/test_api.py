"""Tests for the ``repro.api`` facade: the synchronous verbs over the
process-wide default engine, and the retired call shapes staying gone."""

import pytest

from repro import api
from repro.experiments import engine as engine_module
from repro.experiments.engine import request

SMALL = dict(items=32)


@pytest.fixture
def default_engine_in_tmp(tmp_path, monkeypatch):
    """A fresh default engine whose caches live under ``tmp_path``."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(engine_module, "_default_engine", None)


class TestCompatShims:
    def test_execute_fast_forward_kwarg_is_gone(self):
        from repro.experiments.runner import execute
        import inspect
        assert "fast_forward" not in inspect.signature(execute).parameters


class TestFacadeSurface:
    def test_surface_is_the_synchronous_verbs(self):
        assert sorted(api.__all__) == ["lint", "request", "run", "sample"]
        for verb in api.__all__:
            assert callable(getattr(api, verb)), verb

    def test_run_via_facade(self, default_engine_in_tmp):
        result = api.run("wc", "seq", **SMALL)
        assert result.cycles > 0 and not result.cache_hit
        again = api.run(request("wc", "seq", **SMALL))
        assert again.cycles == result.cycles
        assert again.cache_hit  # the same default engine's cache

    def test_as_request_rejects_mixed_forms(self):
        with pytest.raises(TypeError):
            api.as_request(request("wc", "seq"), "seq")

    def test_lint_via_facade(self, default_engine_in_tmp):
        diagnostics = api.lint(["wc"])
        assert isinstance(diagnostics, list)
