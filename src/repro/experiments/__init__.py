"""Experiment harnesses: one module per paper table/figure.

All studies execute through :mod:`repro.experiments.engine` — declare a
grid of requests and the engine parallelizes, caches, and
reports per-spec failures.  The names below are resolved on first
access (PEP 562): both modules that define them load the simulator, so
importing a harness that does not simulate, such as
:mod:`repro.experiments.tables`, does not.
"""

from importlib import import_module

#: Public name -> the module that defines it.
_EXPORTS = {
    "ExperimentBatchError": "repro.experiments.engine",
    "ExperimentEngine": "repro.experiments.engine",
    "RunResult": "repro.experiments.runner",
    "SpecError": "repro.experiments.engine",
    "SpecRequest": "repro.experiments.engine",
    "execute": "repro.experiments.runner",
    "relative_ed": "repro.experiments.runner",
    "request": "repro.experiments.engine",
    "speedup": "repro.experiments.runner",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
