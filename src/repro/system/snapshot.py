"""Deterministic machine snapshots: versioned capture, file I/O, resume.

A snapshot (DESIGN.md §8) is the JSON record of every piece of *mutable*
machine state — :meth:`repro.system.machine.Machine.snapshot` — wrapped
in a provenance envelope naming the :class:`SpecRequest` recipe that
builds the machine it came from.  Restoring never deserializes programs,
bindings, or wiring: the recipe rebuilds a fresh machine (config +
workload load + setup), then :meth:`Machine.restore` overwrites its
state, and continuing the run is cycle-for-cycle identical to never
having paused (tests/test_snapshot.py proves this differentially).

The file format registers the ``machine-snapshot`` codec in
:mod:`repro.common.serialize`, so snapshot files share the repo-wide
``kind``/``schema`` envelope and version-check error path.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, Optional, Tuple

from repro.common.config import RunOptions
from repro.common.errors import ConfigError
from repro.common.serialize import (decode_record, encode_record,
                                    register_codec)
from repro.system.machine import Machine

#: Bump whenever any component's ``snapshot_state`` layout changes.
#: Schema 2 dropped the machine's fast-forward probe backoff fields.
#: Schema 3 dropped each core's elision fields (its wake cycle, the
#: first skipped cycle and the plan): the walk resumes every elided
#: core before it returns, so no snapshot holds an elision.
SNAPSHOT_SCHEMA_VERSION = 3


def take_snapshot(machine: Machine, request=None) -> Dict:
    """Capture ``machine`` into a self-describing versioned record.

    ``request`` (a :class:`repro.experiments.engine.SpecRequest`) is the
    rebuild recipe embedded for :func:`resume_from_file`; pass None for
    ad-hoc machines the caller will rebuild itself.
    """
    payload = {
        "request": dataclasses.asdict(request) if request is not None
        else None,
        "cycle": machine.cycle,
        "state": machine.snapshot(),
    }
    return encode_record("machine-snapshot", payload)


def write_snapshot(path, machine: Machine, request=None) -> Dict:
    """Serialize :func:`take_snapshot` to ``path``; returns the record."""
    record = take_snapshot(machine, request)
    with open(path, "w") as handle:
        json.dump(record, handle)
    return record


def read_snapshot(path) -> Dict:
    """Load and version-check a snapshot file; returns the payload."""
    with open(path) as handle:
        record = json.load(handle)
    if not isinstance(record, dict):
        raise ConfigError(f"{path} holds no versioned record")
    return decode_record(record, expect_kind="machine-snapshot")


def rebuild_request(payload: Dict):
    """The :class:`SpecRequest` a snapshot payload was taken from."""
    from repro.experiments.engine import SpecRequest
    fields = payload.get("request")
    if fields is None:
        raise ConfigError(
            "snapshot carries no build recipe (taken with request=None); "
            "rebuild the machine yourself and call Machine.restore")
    fields = dict(fields)
    fields["params"] = tuple(
        (key, value) for key, value in fields.get("params", ()))
    return SpecRequest(**fields)


def restore_machine(payload: Dict) -> Tuple[Machine, object]:
    """Rebuild the snapshotted machine, ready to continue running.

    Returns ``(machine, spec)``: a fresh machine built from the embedded
    recipe with the workload loaded and all mutable state restored, plus
    the rebuilt :class:`RunSpec` (for ``max_cycles`` budgets and the
    workload's ``check``).
    """
    from repro.experiments.engine import build_spec
    spec = build_spec(rebuild_request(payload))
    machine = Machine(spec.system)
    machine.load(spec.workload)
    machine.restore(payload["state"])
    return machine, spec


def run_restored(machine: Machine, spec, max_cycles: Optional[int] = None,
                 check: bool = True) -> int:
    """Continue a :func:`restore_machine` result to completion; returns
    the final cycle count, which matches an uninterrupted run of the
    same spec exactly.  ``check`` verifies the workload's output."""
    budget = spec.max_cycles if max_cycles is None else max_cycles
    cycles = machine.run(options=RunOptions(max_cycles=budget))
    machine.finish_observation()
    if check and spec.workload.check is not None:
        spec.workload.check(machine.memory)
    return cycles


def resume_from_file(path, max_cycles: Optional[int] = None,
                     check: bool = True) -> Tuple[Machine, int]:
    """Continue a snapshotted run to completion.

    Returns ``(machine, cycles)`` — the final cycle count matches an
    uninterrupted run of the same spec exactly.
    """
    machine, spec = restore_machine(read_snapshot(path))
    return machine, run_restored(machine, spec, max_cycles, check)


def _decode_payload(payload: Dict) -> Dict:
    if "state" not in payload or "cycle" not in payload:
        raise ConfigError("malformed machine-snapshot payload")
    return payload


register_codec("machine-snapshot", SNAPSHOT_SCHEMA_VERSION,
               dict, _decode_payload)
