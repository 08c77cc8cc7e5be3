"""Run-level metric snapshots with a versioned schema.

A *snapshot* is a plain JSON-serializable dict summarizing one run: the
quantities an architect reads first (per-core IPC, branch accuracy, cache
hit rates; per-fabric issue counts and utilization; bus pressure), all
derived from the flattened counter mapping that :class:`RunResult`
already persists.  Both the post-run ``machine_report`` and the
experiment engine's cached records use this one serializer, so a result
served from the cache retains exactly the telemetry a fresh run shows.

``schema`` is :data:`METRICS_SCHEMA_VERSION`; bump it whenever a field
changes meaning, and the result cache (which keys on the enclosing
``RESULT_SCHEMA_VERSION``) stops serving stale snapshots.
"""

from __future__ import annotations

import re
from typing import Dict, Mapping, Optional

#: Bump when any snapshot field changes meaning.
METRICS_SCHEMA_VERSION = 1

_CPU_SCOPE = re.compile(r"\.cpu(\d+)\.")
_SPL_SCOPE = re.compile(r"\.spl(\d+)\.")


def core_summary(flat: Mapping[str, float], index: int,
                 prefix: str = "machine") -> Optional[Dict]:
    """IPC, branch accuracy, and hit rates for one core, or None if the
    core never ticked."""
    cpu = f"{prefix}.cpu{index}."

    def get(key: str) -> float:
        return flat.get(cpu + key, 0.0)

    cycles = get("cycles")
    if not cycles:
        return None
    branches = get("branches_resolved")
    summary = {
        "core": index,
        "cycles": int(cycles),
        "retired": int(get("retired")),
        "ipc": get("retired") / cycles,
        "branch_accuracy": (1 - get("mispredicts") / branches
                            if branches else 1.0),
        "load_replays": int(get("load_replays")),
    }
    port = f"{prefix}.mem.core{index}."
    if any(key.startswith(port) for key in flat):
        l1d_hits = flat.get(port + "l1d_hits", 0.0)
        l1d_misses = flat.get(port + "l1d_misses", 0.0)
        l1_accesses = l1d_hits + l1d_misses
        summary["l1d_hit_rate"] = (l1d_hits / l1_accesses
                                   if l1_accesses else 1.0)
        l2_hits = flat.get(port + "l2_hits", 0.0)
        l2_accesses = l2_hits + flat.get(port + "l2_misses", 0.0)
        summary["l2_hit_rate"] = (l2_hits / l2_accesses
                                  if l2_accesses else 1.0)
    return summary


def fabric_summary(flat: Mapping[str, float], cluster_id: int,
                   cycles: int, rows: int,
                   prefix: str = "machine") -> Dict:
    """Issue counts, utilization, and stall profile for one SPL cluster."""
    spl = f"{prefix}.spl{cluster_id}."

    def get(key: str) -> float:
        return flat.get(spl + key, 0.0)

    fabric_cycles = max(1, cycles // 4)
    return {
        "cluster": cluster_id,
        "issues": int(get("issues")),
        "barrier_releases": int(get("barrier_releases")),
        "reconfigurations": int(get("reconfigurations")),
        "rows_evaluated": int(get("rows_evaluated")),
        "row_utilization": get("rows_evaluated") / (fabric_cycles * rows),
        "output_queue_stalls": int(get("output_queue_stalls")),
        "dest_absent_stalls": int(get("dest_absent_stalls")),
    }


def bus_summary(flat: Mapping[str, float],
                prefix: str = "machine") -> Dict:
    bus = f"{prefix}.mem.bus."
    return {
        "transactions": int(flat.get(bus + "transactions", 0.0)),
        "wait_cycles": int(flat.get(bus + "wait_cycles", 0.0)),
    }


def snapshot_from_machine(machine) -> Dict:
    """Build the run snapshot for a just-simulated machine."""
    flat = machine.stats.as_dict()
    cores = []
    for index in range(len(machine.cores)):
        summary = core_summary(flat, index)
        if summary is not None:
            cores.append(summary)
    fabrics = []
    for cluster in machine.clusters:
        if cluster.controller is not None:
            fabrics.append(fabric_summary(
                flat, cluster.index, machine.cycle,
                cluster.controller.config.rows))
    return {
        "schema": METRICS_SCHEMA_VERSION,
        "cycles": machine.cycle,
        "retired": machine.total_retired(),
        "cores": cores,
        "fabrics": fabrics,
        "bus": bus_summary(flat),
        "migrations": int(flat.get("machine.migrations", 0.0)),
    }


def snapshot_from_counters(flat: Mapping[str, float], cycles: int,
                           retired: Optional[int] = None,
                           prefix: str = "machine") -> Dict:
    """Rebuild a snapshot from flattened counters (cached results).

    Core/fabric scopes are discovered from the key paths; fabric rows
    fall back to the default SPL configuration when the counters cannot
    tell (ablations that resize the fabric should keep the live
    snapshot taken at execute time instead).
    """
    from repro.common.config import spl_config
    core_ids = sorted({int(m.group(1))
                       for key in flat for m in [_CPU_SCOPE.search(key)]
                       if m is not None})
    spl_ids = sorted({int(m.group(1))
                      for key in flat for m in [_SPL_SCOPE.search(key)]
                      if m is not None})
    cores = []
    for index in core_ids:
        summary = core_summary(flat, index, prefix=prefix)
        if summary is not None:
            cores.append(summary)
    rows = spl_config().rows
    fabrics = [fabric_summary(flat, cid, cycles, rows, prefix=prefix)
               for cid in spl_ids]
    if retired is None:
        retired = int(sum(flat.get(f"{prefix}.cpu{i}.retired", 0.0)
                          for i in core_ids))
    return {
        "schema": METRICS_SCHEMA_VERSION,
        "cycles": cycles,
        "retired": retired,
        "cores": cores,
        "fabrics": fabrics,
        "bus": bus_summary(flat, prefix=prefix),
        "migrations": int(flat.get(f"{prefix}.migrations", 0.0)),
    }


def _register_metrics_codec() -> None:
    from repro.common.serialize import check_schema, register_codec

    def decode(payload: Dict) -> Dict:
        check_schema("metrics-snapshot", payload, METRICS_SCHEMA_VERSION)
        return dict(payload)

    register_codec("metrics-snapshot", METRICS_SCHEMA_VERSION,
                   dict, decode)


_register_metrics_codec()

