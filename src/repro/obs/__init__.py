"""Simulator-wide observability: event bus, trace export, profiling.

The subsystem has three layers (see docs/OBSERVABILITY.md):

* :mod:`repro.obs.events` / :mod:`repro.obs.bus` — the structured event
  bus every simulated layer publishes into, zero-cost when no sink is
  attached;
* :mod:`repro.obs.perfetto` / :mod:`repro.obs.profile` — sinks: the
  Chrome/Perfetto trace-event exporter and the cycle-accounting
  profiler;
* :mod:`repro.obs.metrics` / :mod:`repro.obs.render` — run-level metric
  snapshots with a versioned schema, and the one shared text renderer.
"""

from repro.obs.bus import CallbackSink, CollectorSink, EventBus, Sink
from repro.obs.events import Event

__all__ = [
    "CallbackSink",
    "CollectorSink",
    "Event",
    "EventBus",
    "Sink",
]
