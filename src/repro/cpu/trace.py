"""Pipeline tracing: a pipe-trace sink over the observability bus.

:class:`PipelineTracer` subscribes to a core's per-instruction events
(fetch / dispatch / issue / complete / retire / flush) on the machine's
:class:`~repro.obs.bus.EventBus` and records them (optionally bounded).
The textual rendering is a classic pipe-trace::

    cycle    12 retire   seq=007 pc=004  addi r1, r1, 1
    cycle    13 flush    seq=009 pc=006  blt r1, r2, ...  (redirect -> 2)

Tracing is opt-in and costs nothing when no sink is attached: cores only
construct trace payloads while the bus reports a pipeline-kind listener.

Attach through the bus::

    tracer = PipelineTracer(stages=["retire"])
    machine.obs.attach(tracer, kinds=tracer.kinds,
                       sources={f"cpu{core.index}"})
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.obs import events as ev
from repro.obs.bus import Sink
from repro.obs.events import Event


@dataclass(frozen=True)
class TraceEvent:
    cycle: int
    stage: str
    seq: int
    pc: int
    text: str

    def render(self) -> str:
        return (f"cycle {self.cycle:6d} {self.stage:<8s} "
                f"seq={self.seq:04d} pc={self.pc:04d}  {self.text}")


class PipelineTracer(Sink):
    """Bounded in-memory pipe-trace recorder (an event-bus sink)."""

    def __init__(self, limit: int = 100_000,
                 stages: Optional[List[str]] = None) -> None:
        self.limit = limit
        self.stages = set(stages) if stages else None
        self.events: List[TraceEvent] = []
        self.dropped = 0

    @property
    def kinds(self) -> frozenset:
        """The event kinds this tracer wants (for ``EventBus.attach``)."""
        if self.stages is None:
            return ev.PIPELINE_KINDS
        return ev.PIPELINE_KINDS & frozenset(self.stages)

    def accept(self, event: Event) -> None:
        if event.kind not in ev.PIPELINE_KINDS:
            return
        self.record(event.cycle, event.kind, event.get("seq", 0),
                    event.get("pc", 0), event.get("text", ""))

    def record(self, cycle: int, stage: str, seq: int, pc: int,
               text: str) -> None:
        if self.stages is not None and stage not in self.stages:
            return
        if len(self.events) >= self.limit:
            self.dropped += 1
            return
        self.events.append(TraceEvent(cycle, stage, seq, pc, text))

    def render(self, last: Optional[int] = None) -> str:
        events = self.events if last is None else self.events[-last:]
        lines = [event.render() for event in events]
        if self.dropped:
            lines.append(f"... {self.dropped} events dropped (limit "
                         f"{self.limit})")
        return "\n".join(lines)

    def of_stage(self, stage: str) -> List[TraceEvent]:
        return [event for event in self.events if event.stage == stage]

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0
