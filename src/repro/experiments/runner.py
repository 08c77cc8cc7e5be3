"""Run one RunSpec on a fresh machine and account performance + energy.

:class:`RunResult` is the engine's unit of exchange, so it round-trips
through a versioned dict schema (:meth:`RunResult.to_dict` /
:meth:`RunResult.from_dict`).  A freshly executed result carries the live
``spec`` and ``stats`` tree; one rebuilt from the cache or a worker
process carries ``spec=None`` and the flattened ``counters`` instead.
Every metric consumers touch (cycles, per-item throughput, energy, ED)
derives only from the serialized fields, so cached, parallel, and
in-process results are interchangeable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from repro.common.config import CORE_CLOCK_HZ, RunOptions
from repro.common.errors import ConfigError
from repro.common.stats import Stats
from repro.power.model import EnergyBreakdown, EnergyModel
from repro.system.machine import Machine
from repro.workloads.base import RunSpec

#: Bump when the meaning of any serialized field changes; the result cache
#: keys on it, so old entries stop being read.
#: v3: added the versioned ``metrics`` snapshot (repro.obs.metrics).
RESULT_SCHEMA_VERSION = 3


@dataclass
class RunResult:
    """Outcome of one simulated benchmark variant."""

    spec: Optional[RunSpec]
    cycles: int
    energy: EnergyBreakdown
    stats: Optional[Stats] = None
    #: Serialized identity/accounting fields; filled from ``spec`` when
    #: one is present, or directly by :meth:`from_dict`.
    name: str = ""
    region_items: int = 1
    energy_divisor: float = 1.0
    system: Optional[Dict] = None
    #: Flattened ``Stats`` counters ({"machine.cpu0.retired": ...}).
    counters: Dict[str, float] = field(default_factory=dict)
    #: Run-level metrics snapshot (see :mod:`repro.obs.metrics`); carries
    #: its own ``schema`` field and survives cache round-trips.
    metrics: Dict = field(default_factory=dict)
    #: True when the engine served this result from the persistent cache.
    cache_hit: bool = False

    def __post_init__(self) -> None:
        if self.spec is not None:
            from repro.common.serialize import system_to_dict
            self.name = self.spec.name
            self.region_items = self.spec.region_items
            self.energy_divisor = self.spec.energy_divisor
            self.system = system_to_dict(self.spec.system)
        if self.stats is not None and not self.counters:
            self.counters = self.stats.as_dict()
        if not self.metrics and self.counters:
            from repro.obs.metrics import snapshot_from_counters
            self.metrics = snapshot_from_counters(self.counters, self.cycles)

    @property
    def seconds(self) -> float:
        return self.cycles / CORE_CLOCK_HZ

    @property
    def energy_joules(self) -> float:
        return self.energy.total / self.energy_divisor

    @property
    def energy_delay(self) -> float:
        return self.energy_joules * self.seconds

    @property
    def cycles_per_item(self) -> float:
        return self.cycles / self.region_items

    def counter(self, key: str, default: float = 0.0) -> float:
        """A flattened stats counter, e.g. ``machine.spl0.spl_issues``."""
        return self.counters.get(key, default)

    def summary(self) -> Dict[str, float]:
        return {
            "cycles": self.cycles,
            "cycles_per_item": self.cycles_per_item,
            "energy_j": self.energy_joules,
            "ed": self.energy_delay,
        }

    def to_dict(self) -> Dict:
        """JSON-serializable record of the run (spec identity + results)."""
        return {
            "schema": RESULT_SCHEMA_VERSION,
            "name": self.name,
            "region_items": self.region_items,
            "energy_divisor": self.energy_divisor,
            "system": self.system,
            "results": self.summary(),
            "energy_breakdown": {
                "core_dynamic": self.energy.core_dynamic,
                "memory_dynamic": self.energy.memory_dynamic,
                "spl_dynamic": self.energy.spl_dynamic,
                "leakage": self.energy.leakage,
            },
            "counters": self.counters,
            "metrics": self.metrics,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "RunResult":
        """Rebuild a result from :meth:`to_dict` output (``spec=None``)."""
        from repro.common.serialize import check_schema
        check_schema("RunResult", data, RESULT_SCHEMA_VERSION)
        try:
            return cls(
                spec=None,
                cycles=data["results"]["cycles"],
                energy=EnergyBreakdown(**data["energy_breakdown"]),
                stats=None,
                name=data["name"],
                region_items=data["region_items"],
                energy_divisor=data["energy_divisor"],
                system=data.get("system"),
                counters=dict(data.get("counters", {})),
                metrics=dict(data.get("metrics", {})))
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed RunResult record: {exc}") from exc


def execute(spec: RunSpec, check: bool = True,
            model: Optional[EnergyModel] = None, *,
            options: Optional[RunOptions] = None) -> RunResult:
    """Build a machine, run the workload to completion, verify, account.

    The run is configured by one :class:`RunOptions` value.  An
    ``options`` whose ``max_cycles`` is still the RunOptions default is
    bounded by the spec's own ``max_cycles`` budget.
    """
    if options is None:
        options = RunOptions(max_cycles=spec.max_cycles)
    elif options.max_cycles == RunOptions.max_cycles:
        options = replace(options, max_cycles=spec.max_cycles)
    machine = Machine(spec.system)
    machine.load(spec.workload)
    cycles = machine.run(options=options)
    return finalize(machine, spec, cycles, check=check, model=model)


def finalize(machine: Machine, spec: RunSpec, cycles: int,
             check: bool = True,
             model: Optional[EnergyModel] = None) -> RunResult:
    """Verify and account one completed machine into a :class:`RunResult`.

    The back half of :func:`execute`, shared with callers that drive the
    machine themselves (in ``pause_at`` slices, or with sinks attached)
    so every path produces byte-identical result records for the same
    simulation.
    """
    machine.finish_observation()
    if check and spec.workload.check is not None:
        spec.workload.check(machine.memory)
    model = model or EnergyModel()
    energy = model.configuration_energy(
        machine.stats, cycles,
        ooo1_cores=spec.ooo1_cores,
        ooo2_cores=spec.ooo2_cores,
        spl_clusters=spec.spl_clusters)
    from repro.obs.metrics import snapshot_from_machine
    return RunResult(spec=spec, cycles=cycles, energy=energy,
                     stats=machine.stats,
                     metrics=snapshot_from_machine(machine))


def _register_result_codec() -> None:
    from repro.common.serialize import register_codec
    register_codec("run-result", RESULT_SCHEMA_VERSION,
                   lambda result: result.to_dict(), RunResult.from_dict)


_register_result_codec()


def speedup(baseline: RunResult, candidate: RunResult) -> float:
    """Throughput ratio on a per-work-item basis (>1 means faster)."""
    return baseline.cycles_per_item / candidate.cycles_per_item


def relative_ed(baseline: RunResult, candidate: RunResult) -> float:
    """ED of the candidate relative to the baseline (<1 means better).

    Both runs complete the same number of work items per thread-set, so ED
    is compared per item-set: (E/items) x (T/items).
    """
    base = (baseline.energy_joules / baseline.region_items) * \
        (baseline.seconds / baseline.region_items)
    cand = (candidate.energy_joules / candidate.region_items) * \
        (candidate.seconds / candidate.region_items)
    return cand / base
