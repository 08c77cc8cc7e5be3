"""Tests of the parallel experiment engine and its persistent cache."""

import dataclasses
import json

import pytest

from repro.common.errors import ConfigError
from repro.experiments.engine import (ExperimentBatchError, ExperimentEngine,
                                      ResultCache, SpecError, SpecRequest,
                                      build_spec, request)
from repro.experiments.runner import (RESULT_SCHEMA_VERSION, RunResult,
                                      execute)


def _engine(tmp_path=None, **kwargs):
    """An engine isolated from the user's real cache."""
    if tmp_path is None:
        return ExperimentEngine(use_cache=False, **kwargs)
    return ExperimentEngine(cache_dir=tmp_path / "cache", **kwargs)


class TestSpecRequest:
    def test_label_and_cache_key_stability(self):
        a = request("wc", "seq", items=32)
        b = request("wc", "seq", items=32)
        c = request("wc", "seq", items=64)
        assert a.label == "wc/seq"
        assert a.cache_key() == b.cache_key()
        assert a.cache_key() != c.cache_key()

    def test_param_order_irrelevant(self):
        a = request("hmmer", "seq", M=64, R=3)
        b = request("hmmer", "seq", R=3, M=64)
        assert a.cache_key() == b.cache_key()

    def test_non_scalar_param_rejected(self):
        with pytest.raises(ConfigError):
            request("wc", "seq", items=[1, 2])

    def test_requests_are_picklable_and_hashable(self):
        import pickle
        req = request("wc", "seq", items=32)
        assert pickle.loads(pickle.dumps(req)) == req
        assert len({req, request("wc", "seq", items=32)}) == 1

    def test_build_spec_unknown_names(self):
        with pytest.raises(ConfigError):
            build_spec(SpecRequest(bench="nope", variant="seq"))
        with pytest.raises(ConfigError):
            build_spec(SpecRequest(bench="wc", variant="warp"))

    def test_build_spec_matches_direct_factory(self):
        from repro.workloads import wc
        built = build_spec(request("wc", "seq", items=32))
        direct = wc.VARIANTS["seq"](items=32)
        assert built.name == direct.name
        assert built.region_items == direct.region_items
        assert built.system == direct.system


class TestRoundTrip:
    def test_from_dict_to_dict_identity(self):
        result = execute(build_spec(request("wc", "seq", items=32)))
        record = result.to_dict()
        rebuilt = RunResult.from_dict(record)
        assert rebuilt.to_dict() == record
        assert rebuilt.spec is None
        # Every metric consumers use survives the trip.
        assert rebuilt.cycles == result.cycles
        assert rebuilt.cycles_per_item == result.cycles_per_item
        assert rebuilt.energy_joules == result.energy_joules
        assert rebuilt.energy_delay == result.energy_delay
        assert rebuilt.seconds == result.seconds
        assert rebuilt.counters == result.counters

    def test_schema_mismatch_rejected(self):
        result = execute(build_spec(request("wc", "seq", items=32)))
        record = result.to_dict()
        record["schema"] = RESULT_SCHEMA_VERSION + 1
        with pytest.raises(ConfigError):
            RunResult.from_dict(record)

    def test_malformed_record_rejected(self):
        with pytest.raises(ConfigError):
            RunResult.from_dict({"schema": RESULT_SCHEMA_VERSION})


class TestCache:
    def test_hit_miss_determinism(self, tmp_path):
        req = request("wc", "seq", items=32)
        cold = _engine(tmp_path).run(req)
        assert not cold.cache_hit
        warm_engine = _engine(tmp_path)
        warm = warm_engine.run(req)
        assert warm.cache_hit
        assert warm_engine.simulated == 0
        assert warm_engine.cache_hits == 1
        assert warm.to_dict() == cold.to_dict()

    def test_different_params_miss(self, tmp_path):
        engine = _engine(tmp_path)
        engine.run(request("wc", "seq", items=32))
        engine.run(request("wc", "seq", items=16))
        assert engine.simulated == 2
        assert engine.cache_hits == 0

    def test_duplicate_requests_simulate_once(self, tmp_path):
        engine = _engine(tmp_path)
        a, b = engine.run_batch([request("wc", "seq", items=32),
                                 request("wc", "seq", items=32)])
        assert engine.simulated == 1
        assert a.to_dict() == b.to_dict()

    def test_corrupt_entry_ignored(self, tmp_path):
        engine = _engine(tmp_path)
        req = request("wc", "seq", items=32)
        engine.run(req)
        cache = ResultCache(tmp_path / "cache")
        path = cache._path(req.cache_key())
        path.write_text("{not json")
        rerun_engine = _engine(tmp_path)
        result = rerun_engine.run(req)
        assert not result.cache_hit and rerun_engine.simulated == 1


class TestParallel:
    def test_parallel_matches_serial(self, tmp_path):
        reqs = [request("wc", "seq", items=16),
                request("wc", "compcomm", items=16),
                request("g721enc", "spl", items=8)]
        serial = _engine(jobs=1).run_batch(reqs)
        parallel = _engine(jobs=2).run_batch(reqs)
        assert [r.to_dict() for r in serial] == \
            [r.to_dict() for r in parallel]

    def test_parallel_fills_cache(self, tmp_path):
        reqs = [request("wc", "seq", items=16),
                request("wc", "compcomm", items=16)]
        _engine(tmp_path, jobs=2).run_batch(reqs)
        warm = _engine(tmp_path, jobs=2)
        results = warm.run_batch(reqs)
        assert warm.simulated == 0 and warm.cache_hits == 2
        assert all(r.cache_hit for r in results)


class TestErrors:
    def test_structured_error_without_killing_batch(self):
        engine = _engine(jobs=2)
        out = engine.run_batch([request("wc", "seq", items=16),
                                request("wc", "seq", items=-1),
                                request("wc", "compcomm", items=16)],
                               strict=False)
        assert isinstance(out[0], RunResult)
        assert isinstance(out[2], RunResult)
        error = out[1]
        assert isinstance(error, SpecError)
        assert error.exception_type == "WorkloadError"
        assert "region_items" in error.message
        assert error.request.params == (("items", -1),)
        assert "Traceback" in error.traceback_text
        assert engine.failed == 1 and engine.simulated == 2

    def test_strict_batch_raises_after_completion(self):
        engine = _engine()
        with pytest.raises(ExperimentBatchError) as exc_info:
            engine.run_batch([request("wc", "seq", items=16),
                              request("wc", "warp")])
        assert len(exc_info.value.errors) == 1
        # The healthy spec still ran before the raise.
        assert engine.simulated == 1

    def test_gather_raises_with_every_failure(self):
        engine = _engine()
        engine.submit(request("wc", "warp"), key="a")
        engine.submit(request("wc", "seq", items=-1), key="b")
        with pytest.raises(ExperimentBatchError) as exc_info:
            engine.gather()
        assert len(exc_info.value.errors) == 2


class TestSubmitGather:
    def test_keyed_results_in_submission_order(self):
        engine = _engine()
        engine.submit(request("wc", "seq", items=16), key=("wc", "seq"))
        engine.submit(request("wc", "compcomm", items=16),
                      key=("wc", "compcomm"))
        results = engine.gather()
        assert list(results) == [("wc", "seq"), ("wc", "compcomm")]
        assert results[("wc", "seq")].name == "wc/seq"
        # gather drains the queue.
        assert engine.gather() == {}

    def test_system_override_and_transform(self):
        from repro.experiments.ablations import _spl_system
        from repro.common.config import SplConfig
        system = _spl_system(dataclasses.replace(SplConfig(),
                                                 barrier_bus_latency=77))
        spec = build_spec(request("dijkstra", "barrier", n=16, p=4,
                                  system=system, name="dijkstra/bus77"))
        assert spec.name == "dijkstra/bus77"
        assert spec.system.clusters[0].spl.barrier_bus_latency == 77
        stripped = build_spec(request(
            "ll3", "barrier_comp", n=32, p=4, passes=2,
            transform="repro.experiments.ablations:strip_partitions"))
        result = execute(stripped)  # setup runs without set_partitions
        assert result.cycles > 0


class TestStudiesThroughEngine:
    def test_region_study_uses_engine(self, tmp_path):
        from repro.experiments.regions import run_region_study
        engine = _engine(tmp_path)
        study = run_region_study(["wc"], overrides={"wc": {"items": 32}},
                                 engine=engine)
        assert engine.simulated == len(study["wc"].runs)
        warm_engine = _engine(tmp_path)
        warm = run_region_study(["wc"], overrides={"wc": {"items": 32}},
                                engine=warm_engine)
        assert warm_engine.simulated == 0
        assert {k: r.to_dict() for k, r in study["wc"].runs.items()} == \
            {k: r.to_dict() for k, r in warm["wc"].runs.items()}

    def test_barrier_sweep_uses_engine(self):
        from repro.experiments.barriers import run_barrier_sweep
        engine = _engine()
        sweep = run_barrier_sweep("ll2", sizes=[16], thread_counts=(4,),
                                  engine=engine)
        assert set(sweep.runs) == {("seq", 0, 16), ("sw", 4, 16),
                                   ("barrier", 4, 16)}
        assert engine.simulated == 3


class TestLintCache:
    def test_verdict_persisted_and_reused(self, tmp_path):
        from repro.experiments.engine import LintCache
        req = request("wc", "seq", items=32)
        engine = _engine(tmp_path)
        engine.run(req)
        cache = LintCache(tmp_path / "cache")
        record = cache.load(req.cache_key())
        assert record == {"ok": True}
        # Drop the cached *result* so the warm engine must simulate
        # again, then poison lint_spec: the disk verdict must be trusted
        # instead of re-linting.
        ResultCache(tmp_path / "cache")._path(req.cache_key()).unlink()
        import repro.analysis as analysis

        def boom(*args, **kwargs):
            raise AssertionError("lint_spec re-ran despite cached verdict")

        original = analysis.lint_spec
        analysis.lint_spec = boom
        try:
            warm = _engine(tmp_path)
            result = warm.run(req)
        finally:
            analysis.lint_spec = original
        assert warm.simulated == 1 and result.cycles > 0

    def test_cached_failure_replays_without_relint(self, tmp_path):
        from repro.experiments.engine import LintCache
        req = request("wc", "seq", items=48)
        LintCache(tmp_path / "cache").store(
            req.cache_key(),
            ("error", "LintError", "static pre-flight found problems",
             "error[XXX999] test: seeded verdict"))
        engine = _engine(tmp_path)
        with pytest.raises(ExperimentBatchError) as excinfo:
            engine.run(req)
        (error,) = excinfo.value.errors
        assert error.exception_type == "LintError"
        assert "seeded verdict" in error.traceback_text

    def test_no_cache_engine_has_no_lint_cache(self):
        assert _engine().lint_cache is None


class TestBatchErrorPayloads:
    def test_batch_error_carries_structured_payloads(self, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path / "cache",
                                  progress=False)
        good = request("wc", "seq", items=24)
        bad = request("wc", "no-such-variant")
        with pytest.raises(ExperimentBatchError) as excinfo:
            engine.run_batch([good, bad])
        error = excinfo.value
        assert len(error.payloads) == 1
        payload = error.payloads[0]
        assert payload["exception_type"] == "ConfigError"
        assert payload["request"]["variant"] == "no-such-variant"
        assert payload["label"] == bad.label
        assert error.to_dict() == {"errors": error.payloads}
        # payloads survive JSON and rebuild into live SpecErrors
        rebuilt = SpecError.from_dict(json.loads(json.dumps(payload)))
        assert rebuilt.request == bad
