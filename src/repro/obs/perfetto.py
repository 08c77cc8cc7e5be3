"""Chrome/Perfetto trace-event JSON export.

:class:`PerfettoSink` turns the event stream into the `Trace Event
Format`_ consumed by https://ui.perfetto.dev and ``chrome://tracing``:

* process ``cores`` — one thread (track) per core, showing the
  cycle-accounting spans (compute / stalls) as duration slices;
* process ``spl N`` — one thread per fabric partition (issue and
  reconfiguration slices), one thread per core port (staging, barrier
  arrivals, refusals), and one counter track per input/output queue
  (depth over time);
* process ``mem`` — one thread per private hierarchy (miss slices,
  length = miss latency) plus the shared snoop bus (arbitration waits);
* process ``machine`` — migrations and watchdog instants.

Timestamps are **core-clock cycles** written into the ``ts``/``dur``
microsecond fields, so one displayed microsecond is one cycle.

.. _Trace Event Format: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.common.config import SPL_CLOCK_RATIO
from repro.obs import events as ev
from repro.obs.bus import Sink
from repro.obs.events import Event

#: Everything the exporter draws: every kind :mod:`repro.obs.events`
#: declares.  Core activity is rendered from the run-length
#: ``cycle_span`` stream, which keeps traces small.
PERFETTO_KINDS = (frozenset((ev.CYCLE_SPAN,)) | ev.SPL_KINDS
                  | ev.MEM_KINDS | ev.SYSTEM_KINDS)

_PID_MACHINE = 0
_PID_CORES = 1
_PID_MEM = 2
_PID_SPL_BASE = 10

_TID_BUS = 99
_TID_PORT_BASE = 100


class PerfettoSink(Sink):
    """Collects events and renders a Chrome trace-event JSON document."""

    def __init__(self) -> None:
        self.trace_events: List[Dict[str, Any]] = []
        #: (pid, tid) -> thread (track) name.
        self._threads: Dict[tuple, str] = {}
        #: pid -> process name.
        self._processes: Dict[int, str] = {}
        self.finished_at: Optional[int] = None

    # -- bus interface -----------------------------------------------------

    def accept(self, event: Event) -> None:
        source = event.source
        if source.startswith("cpu"):
            self._accept_core(int(source[3:]), event)
        elif source.startswith("spl"):
            self._accept_spl(int(source[3:]), event)
        elif source.startswith("mem"):
            self._accept_mem(int(source[3:]), event)
        elif source == "bus":
            self._accept_bus(event)
        else:
            self._accept_machine(event)

    def on_finish(self, cycle: int) -> None:
        self.finished_at = cycle

    # -- per-source translation --------------------------------------------

    def _accept_core(self, index: int, event: Event) -> None:
        # A core publishes only its cycle-accounting spans.
        self._track(_PID_CORES, "cores", index, f"core {index}")
        self._slice(_PID_CORES, index, event.cycle, event.get("dur", 1),
                    event.get("cls", "?"))

    def _accept_spl(self, cluster: int, event: Event) -> None:
        pid = _PID_SPL_BASE + cluster
        name = f"spl {cluster}"
        kind = event.kind
        if kind in (ev.QUEUE_PUSH, ev.QUEUE_POP, ev.QUEUE_FULL):
            queue = event.get("queue", "?")
            self._processes.setdefault(pid, name)
            self.trace_events.append({
                "ph": "C", "pid": pid, "ts": event.cycle,
                "name": f"{queue} depth",
                "args": {"depth": event.get("depth", 0)}})
            if kind == ev.QUEUE_FULL:
                slot = int(queue[2:]) if queue[2:].isdigit() else 0
                tid = _TID_PORT_BASE + slot
                self._track(pid, name, tid, f"port {slot}")
                self._instant(pid, tid, event.cycle, "queue full",
                              {"queue": queue})
            return
        if kind in (ev.SPL_ISSUE, ev.SPL_RECONFIG):
            partition = event.get("partition", 0)
            tid = partition
            self._track(pid, name, tid, f"partition {partition}")
            if kind == ev.SPL_ISSUE:
                label = event.get("function", "fn")
                if event.get("barrier") is not None:
                    label = f"{label} (barrier {event.get('barrier')})"
                dur = event.get("latency", 1) * SPL_CLOCK_RATIO
            else:
                label = f"reconfig {event.get('function', '?')}"
                dur = event.get("fcycles", 1) * SPL_CLOCK_RATIO
            self._slice(pid, tid, event.cycle, dur, label,
                        {k: v for k, v in event.args.items()
                         if k != "function"})
            return
        if kind in (ev.SPL_STAGE, ev.BARRIER_ARRIVE, ev.DEST_STALL):
            slot = event.get("slot", 0)
            tid = _TID_PORT_BASE + slot
            self._track(pid, name, tid, f"port {slot}")
            self._instant(pid, tid, event.cycle, kind, dict(event.args))
            return
        # QUEUE_STALL / SPL_DELIVER / BARRIER_RELEASE / PARTITION_SET:
        # partition-level instants.
        tid = event.get("partition", 0)
        self._track(pid, name, tid, f"partition {tid}")
        self._instant(pid, tid, event.cycle, kind, dict(event.args))

    def _accept_mem(self, index: int, event: Event) -> None:
        tid = index
        self._track(_PID_MEM, "mem", tid, f"core {index} hierarchy")
        if event.kind == ev.MEM_MISS:
            dur = max(1, event.get("done", event.cycle + 1) - event.cycle)
            label = f"{event.get('level', '?')} miss"
            self._slice(_PID_MEM, tid, event.cycle, dur, label,
                        {"addr": event.get("addr"),
                         "write": event.get("write")})
        else:
            self._instant(_PID_MEM, tid, event.cycle, event.kind,
                          dict(event.args))

    def _accept_bus(self, event: Event) -> None:
        self._track(_PID_MEM, "mem", _TID_BUS, "snoop bus")
        if event.kind == ev.BUS_WAIT:
            self._slice(_PID_MEM, _TID_BUS, event.cycle,
                        max(1, event.get("wait", 1)), "bus wait",
                        {"grant": event.get("grant")})
        else:
            self._instant(_PID_MEM, _TID_BUS, event.cycle, event.kind,
                          dict(event.args))

    def _accept_machine(self, event: Event) -> None:
        self._track(_PID_MACHINE, "machine", 0, "system")
        self._instant(_PID_MACHINE, 0, event.cycle, event.kind,
                      dict(event.args))

    # -- trace-event helpers -----------------------------------------------

    def _track(self, pid: int, process: str, tid: int, thread: str) -> None:
        self._processes.setdefault(pid, process)
        self._threads.setdefault((pid, tid), thread)

    def _slice(self, pid: int, tid: int, ts: int, dur: int, name: str,
               args: Optional[Dict[str, Any]] = None) -> None:
        record: Dict[str, Any] = {"ph": "X", "pid": pid, "tid": tid,
                                  "ts": ts, "dur": dur, "name": name}
        if args:
            record["args"] = args
        self.trace_events.append(record)

    def _instant(self, pid: int, tid: int, ts: int, name: str,
                 args: Optional[Dict[str, Any]] = None) -> None:
        record: Dict[str, Any] = {"ph": "i", "pid": pid, "tid": tid,
                                  "ts": ts, "s": "t", "name": name}
        if args:
            record["args"] = args
        self.trace_events.append(record)

    # -- output ------------------------------------------------------------

    def metadata_events(self) -> List[Dict[str, Any]]:
        records: List[Dict[str, Any]] = []
        for pid, process in sorted(self._processes.items()):
            records.append({"ph": "M", "pid": pid, "name": "process_name",
                            "args": {"name": process}})
            records.append({"ph": "M", "pid": pid, "name":
                            "process_sort_index", "args": {"sort_index": pid}})
        for (pid, tid), thread in sorted(self._threads.items()):
            records.append({"ph": "M", "pid": pid, "tid": tid,
                            "name": "thread_name", "args": {"name": thread}})
        return records

    def to_dict(self) -> Dict[str, Any]:
        body = sorted(self.trace_events,
                      key=lambda r: (r.get("ts", 0), r.get("pid", 0),
                                     r.get("tid", 0)))
        return {
            "traceEvents": self.metadata_events() + body,
            "displayTimeUnit": "ms",
            "otherData": {
                "clock": "core cycles (1 us shown = 1 cycle)",
                "total_cycles": self.finished_at,
            },
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=1)

    def shape(self) -> Dict[str, Any]:
        """Structural inventory of the trace, for golden-file testing.

        Timing-independent: which processes/tracks/counters exist and
        which phase types each process emitted — stable across timing
        tweaks, sensitive to track-layout regressions.
        """
        processes: Dict[str, List[str]] = {}
        for (pid, _tid), thread in self._threads.items():
            processes.setdefault(self._processes[pid], []).append(thread)
        counters: Dict[str, List[str]] = {}
        phases: Dict[str, List[str]] = {}
        for record in self.trace_events:
            process = self._processes.get(record["pid"], "?")
            if record["ph"] == "C":
                bucket = counters.setdefault(process, [])
                if record["name"] not in bucket:
                    bucket.append(record["name"])
            bucket = phases.setdefault(process, [])
            if record["ph"] not in bucket:
                bucket.append(record["ph"])
        return {
            "processes": {name: sorted(tracks)
                          for name, tracks in sorted(processes.items())},
            "counters": {name: sorted(tracks)
                         for name, tracks in sorted(counters.items())},
            "phases": {name: sorted(kinds)
                       for name, kinds in sorted(phases.items())},
        }
