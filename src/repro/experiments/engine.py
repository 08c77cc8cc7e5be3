"""Parallel experiment engine with a persistent, content-addressed cache.

Every figure, table, and ablation in this repo is a fan-out of independent
:class:`RunSpec` simulations.  This module gives all of them one execution
path:

* **Declarative requests.** A :class:`SpecRequest` names a spec *by
  construction recipe* — registry benchmark + variant (or a
  ``module:function`` factory path), factory parameters, an optional
  system-config override, and an optional named transform.  Specs
  themselves carry closures (workload ``setup``/``check``) and cannot
  cross a process boundary; requests are plain, hashable, picklable data,
  so workers rebuild the spec locally.
* **Fan-out.** :meth:`ExperimentEngine.gather` runs pending requests on a
  ``ProcessPoolExecutor`` (``--jobs`` / ``REPRO_JOBS``), imported only
  then; ``jobs=1`` preserves the historical in-process serial path.
* **Memoization.** Results are stored on disk (``REPRO_CACHE_DIR`` or
  ``~/.cache/repro``) keyed by a stable hash of the request, the result
  schema version, and a fingerprint of the ``repro`` source tree — any
  code change invalidates the cache automatically.
* **Structured failures.** A failing spec never kills the batch: it is
  reported as a :class:`SpecError` (request, exception type, message,
  traceback), and strict callers get them all at once in an
  :class:`ExperimentBatchError`.
* **Pre-flight lint.** A worker builds each cache-missing spec once,
  statically verifies it (``repro.analysis.lint_spec``) right after the
  build and simulates that same spec only if it passed, so a faulty spec
  costs a lint, not a simulation: error-severity diagnostics turn into
  ``LintError``-typed :class:`SpecError` records.  Disable with
  ``--no-lint`` / ``REPRO_NO_LINT`` or ``ExperimentEngine(lint=False)``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import os
import sys
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from repro.common.config import ENV_NO_LINT, SystemConfig, env_enabled
from repro.common.errors import ConfigError
from repro.common.serialize import system_from_json, system_to_dict
from repro.experiments.runner import (RESULT_SCHEMA_VERSION, RunResult,
                                      execute)

_SCALARS = (bool, int, float, str)


# -- declarative run requests --------------------------------------------------


@dataclass(frozen=True)
class SpecRequest:
    """A picklable recipe for building one :class:`RunSpec`.

    ``bench`` is a registry benchmark name, or a ``"module:function"``
    dotted path to any factory returning a RunSpec (``variant`` is then
    ignored).  ``params`` are the factory's keyword arguments as a sorted
    tuple of pairs.  ``system_json`` optionally replaces the built spec's
    system configuration; ``transform`` optionally names a
    ``"module:function"`` applied to the built spec (for overrides a
    config swap cannot express).
    """

    bench: str
    variant: str = ""
    params: Tuple[Tuple[str, Any], ...] = ()
    system_json: Optional[str] = None
    name: Optional[str] = None
    transform: Optional[str] = None

    @property
    def label(self) -> str:
        if self.name:
            return self.name
        if self.variant:
            return f"{self.bench}/{self.variant}"
        return self.bench

    def cache_key(self) -> str:
        from repro.common.config import RunOptions
        record = {
            "schema": RESULT_SCHEMA_VERSION,
            "bench": self.bench,
            "variant": self.variant,
            "params": list(self.params),
            "system": (json.loads(self.system_json)
                       if self.system_json else None),
            "name": self.name,
            "transform": self.transform,
            # Effective run options (the scheduler after env
            # resolution): runs under REPRO_NO_FASTFORWARD must not
            # share cache entries with default-mode runs.
            "options": RunOptions().resolve().fingerprint(),
        }
        text = json.dumps(record, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


def request(bench: str, variant: str = "", *,
            system: Optional[SystemConfig] = None,
            name: Optional[str] = None,
            transform: Optional[str] = None, **params) -> SpecRequest:
    """Build a :class:`SpecRequest`, validating parameter types."""
    for key, value in params.items():
        if not isinstance(value, _SCALARS):
            raise ConfigError(
                f"{bench}/{variant}: parameter {key}={value!r} is not a "
                f"scalar (int/float/bool/str) — requests must be "
                f"declarative and hashable")
    system_json = None
    if system is not None:
        system_json = json.dumps(system_to_dict(system), sort_keys=True,
                                 separators=(",", ":"))
    return SpecRequest(bench=bench, variant=variant,
                       params=tuple(sorted(params.items())),
                       system_json=system_json, name=name,
                       transform=transform)


def _resolve(path: str) -> Callable:
    module_name, _, attr = path.partition(":")
    if not attr:
        raise ConfigError(f"bad dotted path {path!r} (want module:function)")
    return getattr(importlib.import_module(module_name), attr)


def build_spec(req: SpecRequest):
    """Rebuild the RunSpec a request describes (runs in the worker)."""
    if ":" in req.bench:
        factory = _resolve(req.bench)
    else:
        from repro.workloads import registry
        info = registry.REGISTRY.get(req.bench)
        if info is None:
            raise ConfigError(f"unknown benchmark {req.bench!r}")
        factory = info.variants.get(req.variant)
        if factory is None:
            raise ConfigError(f"{req.bench} has no variant {req.variant!r} "
                              f"(have {', '.join(sorted(info.variants))})")
    spec = factory(**dict(req.params))
    if req.system_json is not None:
        spec = replace(spec, system=system_from_json(req.system_json))
    if req.name is not None:
        spec = replace(spec, name=req.name)
    if req.transform is not None:
        spec = _resolve(req.transform)(spec)
    return spec


# -- structured failure records ------------------------------------------------


@dataclass
class SpecError:
    """One spec's failure, preserved without killing the batch."""

    request: SpecRequest
    exception_type: str
    message: str
    traceback_text: str

    def __str__(self) -> str:
        return (f"{self.request.label}: {self.exception_type}: "
                f"{self.message}")


class ExperimentBatchError(Exception):
    """Raised by strict gathers after the whole batch has completed.

    Carries the :class:`SpecError` records (``errors``), so callers can
    tell the failures apart without string-parsing the exception
    message or tracebacks.
    """

    def __init__(self, errors: List[SpecError]) -> None:
        self.errors = errors
        first = errors[0]
        summary = f"{len(errors)} of the batch's specs failed; first: " \
                  f"{first}\n{first.traceback_text}"
        super().__init__(summary)


# -- persistent result cache ---------------------------------------------------


_fingerprint_cache: Optional[str] = None


def code_fingerprint() -> str:
    """Hash of every ``repro`` source file — changes invalidate the cache."""
    global _fingerprint_cache
    if _fingerprint_cache is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(path.read_bytes())
        _fingerprint_cache = digest.hexdigest()[:12]
    return _fingerprint_cache


def default_cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


class ResultCache:
    """Content-addressed on-disk store of ``RunResult.to_dict()`` records.

    Layout: ``<root>/v<schema>-<code fingerprint>/<key[:2]>/<key>.json``.
    Invalidation is implicit — a schema bump or any change to the
    ``repro`` package moves the version directory, so stale entries are
    simply never read again.
    """

    def __init__(self, root: Optional[Path] = None) -> None:
        root = root or default_cache_dir()
        self.root = Path(root) / \
            f"v{RESULT_SCHEMA_VERSION}-{code_fingerprint()}"

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def load(self, key: str) -> Optional[Dict]:
        path = self._path(key)
        try:
            with open(path) as handle:
                record = json.load(handle)
        except (OSError, ValueError):
            return None
        return record.get("result")

    def store(self, key: str, req: SpecRequest, result: Dict) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {"request": dataclasses.asdict(req), "result": result}
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with open(tmp, "w") as handle:
            json.dump(record, handle)
        os.replace(tmp, path)  # atomic: concurrent writers race benignly


class LintCache:
    """On-disk cache of pre-flight lint verdicts, beside the result cache.

    Layout: ``<root>/v<schema>-<fingerprint>/lint/<key[:2]>/<key>.json``.
    Keys are the same content-addressed request hashes as
    :class:`ResultCache` and live under the same code-fingerprinted
    version directory, so any source change (including to the analysis
    rules themselves) invalidates cached verdicts implicitly.  A record
    is ``{"ok": true}`` or ``{"ok": false, "outcome": [...]}`` where
    ``outcome`` is the error tuple a failing lint produces (see
    :func:`_lint_verdict`).
    """

    def __init__(self, root: Optional[Path] = None) -> None:
        root = root or default_cache_dir()
        self.root = Path(root) / \
            f"v{RESULT_SCHEMA_VERSION}-{code_fingerprint()}" / "lint"

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def load(self, key: str) -> Optional[Dict]:
        try:
            with open(self._path(key)) as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    def store(self, key: str, outcome: Optional[Tuple]) -> None:
        """Store a verdict: a failing lint's outcome, empty if it passed."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        record: Dict = {"ok": not outcome}
        if outcome:
            record["outcome"] = list(outcome)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with open(tmp, "w") as handle:
            json.dump(record, handle)
        os.replace(tmp, path)


# -- the engine ----------------------------------------------------------------


def _lint_verdict(spec) -> Optional[Tuple]:
    """Lint one built spec: ``()`` when it may run, the engine's error
    outcome when it must not, ``None`` when the linter itself raised (the
    spec then runs, and no verdict is kept)."""
    from repro.analysis import lint_spec, render_text
    try:
        diagnostics = lint_spec(spec)
    except Exception:
        return None
    errors = [diag for diag in diagnostics if diag.is_error]
    if not errors:
        return ()
    return ("error", "LintError",
            f"static pre-flight found {len(errors)} error-severity "
            f"diagnostics (--no-lint to bypass)",
            render_text(errors))


def _run_request(req: SpecRequest,
                 lint: bool) -> Tuple[Tuple, Optional[Tuple]]:
    """Worker entry point: build the spec once, lint it if ``lint``, and
    simulate that same spec unless the lint failed.

    Returns ``(outcome, verdict)``, both picklable: ``outcome`` is
    ``("ok", record)`` or ``("error", type, message, traceback)``, and
    ``verdict`` is :func:`_lint_verdict`'s, or ``None`` when nothing was
    linted (``lint`` off, or the factory raised).
    """
    verdict: Optional[Tuple] = None
    try:
        spec = build_spec(req)
        if lint:
            verdict = _lint_verdict(spec)
            if verdict:
                return verdict, verdict
        return ("ok", execute(spec).to_dict()), verdict
    except Exception as exc:
        return (("error", type(exc).__name__, str(exc),
                 traceback.format_exc()), verdict)


class ExperimentEngine:
    """Batched execution of SpecRequests with caching and fan-out.

    Use it either as submit/gather::

        engine.submit(request("hmmer", "seq", M=64, R=3), key="baseline")
        results = engine.gather()          # {"baseline": RunResult}

    or as a one-shot batch::

        results = engine.run_batch([req_a, req_b])   # input order

    ``jobs`` defaults to ``REPRO_JOBS`` (else 1).  ``use_cache`` defaults
    to on unless ``REPRO_NO_CACHE`` is set.  ``lint`` defaults to on
    unless ``REPRO_NO_LINT`` is set; when on, the worker (this process
    at ``jobs=1``) lints each cache-missing spec right after its one
    build and before it simulates, so error-severity findings become
    ``LintError``-typed :class:`SpecError` records at the cost of a
    lint, not a simulation.  The parent stores the verdict each worker
    returns (:class:`LintCache`, under the same content-addressed keys
    as results), so repeated batches skip the analysis entirely until
    the code or the request changes.
    """

    def __init__(self, jobs: Optional[int] = None,
                 use_cache: Optional[bool] = None,
                 cache_dir: Optional[Path] = None,
                 lint: Optional[bool] = None,
                 progress: bool = False) -> None:
        if jobs is None:
            jobs = int(os.environ.get("REPRO_JOBS", "1"))
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        if use_cache is None:
            use_cache = not os.environ.get("REPRO_NO_CACHE")
        if lint is None:
            lint = env_enabled(ENV_NO_LINT)
        self.jobs = jobs
        self.cache = ResultCache(cache_dir) if use_cache else None
        self.lint_cache = LintCache(cache_dir) if use_cache else None
        self.lint = lint
        self.progress = progress
        self._pending: List[Tuple[Any, SpecRequest]] = []
        self._lint_passed: set = set()
        #: Session-wide counters, reported in progress lines.
        self.cache_hits = 0
        self.simulated = 0
        self.failed = 0

    # -- submission ----------------------------------------------------------

    def submit(self, req: SpecRequest, key: Any = None) -> None:
        """Queue one request; ``key`` identifies it in gather()'s dict."""
        if key is None:
            key = len(self._pending)
        self._pending.append((key, req))

    def gather(self) -> Dict[Any, RunResult]:
        """Run everything submitted since the last gather.

        Returns ``{key: RunResult}`` in submission order.  If any spec
        failed, the *whole batch still completes* and then an
        :class:`ExperimentBatchError` listing every failure is raised.
        """
        items, self._pending = self._pending, []
        results, errors = self._execute(items)
        if errors:
            raise ExperimentBatchError(errors)
        return {key: results[key] for key, _ in items}

    def run_batch(self, reqs: Sequence[SpecRequest], strict: bool = True
                  ) -> List[Union[RunResult, SpecError]]:
        """Execute ``reqs``; the result list parallels the input.

        With ``strict`` (the default) any failure raises
        :class:`ExperimentBatchError` after the batch completes; with
        ``strict=False`` failed entries are the :class:`SpecError`
        records themselves, in place.
        """
        items = [(index, req) for index, req in enumerate(reqs)]
        results, errors = self._execute(items)
        if errors and strict:
            raise ExperimentBatchError(errors)
        by_key = {error.request.cache_key(): error for error in errors}
        out: List[Union[RunResult, SpecError]] = []
        for index, req in items:
            out.append(results.get(index, by_key.get(req.cache_key())))
        return out

    def run(self, req: SpecRequest) -> RunResult:
        """Convenience: one request, strict."""
        return self.run_batch([req])[0]

    # -- execution -----------------------------------------------------------

    def _execute(self, items: List[Tuple[Any, SpecRequest]]
                 ) -> Tuple[Dict[Any, RunResult], List[SpecError]]:
        total = len(items)
        results: Dict[Any, RunResult] = {}
        errors: List[SpecError] = []
        done = hits = simulated = 0
        # Probe the cache; group the misses by cache key so duplicate
        # requests in one batch simulate only once.
        todo: Dict[str, List[Tuple[Any, SpecRequest]]] = {}
        for key, req in items:
            cache_key = req.cache_key()
            record = self.cache.load(cache_key) if self.cache else None
            if record is not None:
                result = RunResult.from_dict(record)
                result.cache_hit = True
                results[key] = result
                done += 1
                hits += 1
                self._note(done, total, hits, simulated, len(errors),
                           f"cached {req.label}")
            else:
                todo.setdefault(cache_key, []).append((key, req))

        def finish(cache_key: str, outcome: Tuple,
                   verdict: Optional[Tuple] = None) -> None:
            nonlocal done, simulated
            if verdict is not None:
                if not verdict:
                    self._lint_passed.add(cache_key)
                if self.lint_cache:
                    self.lint_cache.store(cache_key, verdict)
            keyed = todo[cache_key]
            req = keyed[0][1]
            done += len(keyed)
            if outcome[0] == "ok":
                simulated += 1
                record = outcome[1]
                if self.cache:
                    self.cache.store(cache_key, req, record)
                for key, each in keyed:
                    result = RunResult.from_dict(record)
                    results[key] = result
                self._note(done, total, hits, simulated, len(errors),
                           f"simulated {req.label}")
            else:
                _, exc_type, message, tb = outcome
                for key, each in keyed:
                    errors.append(SpecError(each, exc_type, message, tb))
                self._note(done, total, hits, simulated, len(errors),
                           f"FAILED {req.label}: {exc_type}: {message}")

        # A stored verdict spares the worker its lint, and a stored
        # failure is replayed without dispatching the spec at all.
        to_lint: Dict[str, bool] = {}
        for cache_key in list(todo):
            verdict = self._stored_verdict(cache_key) if self.lint else ()
            if verdict:
                finish(cache_key, verdict)
                del todo[cache_key]
            else:
                to_lint[cache_key] = verdict is None

        if self.jobs == 1 or len(todo) <= 1:
            for cache_key, keyed in todo.items():
                finish(cache_key, *_run_request(keyed[0][1],
                                                to_lint[cache_key]))
        else:
            from concurrent.futures import (FIRST_COMPLETED,
                                            ProcessPoolExecutor, wait)
            with ProcessPoolExecutor(max_workers=self.jobs) as pool:
                futures = {pool.submit(_run_request, keyed[0][1],
                                       to_lint[cache_key]): cache_key
                           for cache_key, keyed in todo.items()}
                pending = set(futures)
                while pending:
                    finished, pending = wait(pending,
                                             return_when=FIRST_COMPLETED)
                    for future in finished:
                        finish(futures[future], *future.result())
        self.cache_hits += hits
        self.simulated += simulated
        self.failed += len(errors)
        if total:
            self._note(done, total, hits, simulated, len(errors),
                       "batch complete")
        return results, errors

    def _stored_verdict(self, cache_key: str) -> Optional[Tuple]:
        """A request's known lint verdict, in :func:`_lint_verdict`'s
        form; ``None`` when it has none yet and must be linted."""
        if cache_key in self._lint_passed:
            return ()
        record = self.lint_cache.load(cache_key) \
            if self.lint_cache else None
        if record is None:
            return None
        if record.get("ok"):
            self._lint_passed.add(cache_key)
            return ()
        return tuple(record["outcome"])

    def _note(self, done: int, total: int, hits: int, simulated: int,
              failed: int, event: str) -> None:
        if not self.progress:
            return
        line = (f"[engine] {done}/{total} done "
                f"({simulated} simulated, {hits} cache hits")
        if failed:
            line += f", {failed} failed"
        print(f"{line}) — {event}", file=sys.stderr)


_default_engine: Optional[ExperimentEngine] = None


def default_engine() -> ExperimentEngine:
    """Shared environment-configured engine for study entry points."""
    global _default_engine
    if _default_engine is None:
        _default_engine = ExperimentEngine()
    return _default_engine
