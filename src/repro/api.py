"""The supported programmatic surface of the ReMAP reproduction.

Three verbs, plus :func:`request` to describe a spec:

* :func:`run` — simulate one declarative spec request synchronously
  (engine-cached, lint-gated) and return its
  :class:`~repro.experiments.runner.RunResult`;
* :func:`sample` — a SimPoint-style warmup + measured-window run;
* :func:`lint` — static verification without simulating.

:func:`run` goes through the process-wide
:func:`~repro.experiments.engine.default_engine`, so repeated calls
share its result and lint caches (configured by ``REPRO_CACHE_DIR`` /
``REPRO_NO_CACHE`` / ``REPRO_NO_LINT``).  Each verb takes either a
ready :class:`~repro.experiments.engine.SpecRequest` or the
``(bench, variant, **params)`` it would be built from.

Stability: this module is the frozen surface (see DESIGN.md §9);
everything else in the package is internal and may change without
notice.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Union

from repro.experiments.engine import SpecRequest, default_engine, request
from repro.experiments.runner import RunResult

__all__ = ["lint", "request", "run", "sample"]


def as_request(req: Union[SpecRequest, str], variant: str = "",
               **params: Any) -> SpecRequest:
    """Coerce ``(bench, variant, params)`` or a ready request to one."""
    if isinstance(req, SpecRequest):
        if variant or params:
            raise TypeError(
                "pass either a SpecRequest or bench/variant/params, "
                "not both")
        return req
    return request(req, variant, **params)


def run(req: Union[SpecRequest, str], variant: str = "",
        **params: Any) -> RunResult:
    """Simulate one request synchronously (cached, lint-gated)."""
    return default_engine().run(as_request(req, variant, **params))


def sample(req: Union[SpecRequest, str], variant: str = "", *,
           warmup: int = 20_000, sample: int = 50_000,
           snapshot_path: Optional[str] = None,
           compare_full: bool = False, **params: Any) -> Dict:
    """SimPoint-style warmup + measured-window run (DESIGN.md §8)."""
    from repro.experiments.sample import sampled_run
    return sampled_run(as_request(req, variant, **params),
                       warmup=warmup, sample=sample,
                       snapshot_path=snapshot_path,
                       compare_full=compare_full)


def lint(benchmarks: Optional[Sequence[str]] = None) -> List:
    """Static diagnostics for the registry (or a subset of it)."""
    from repro.analysis import lint_registry
    benchmarks = list(benchmarks) if benchmarks else None
    return lint_registry(benchmarks, include_library=not benchmarks)
