"""The event bus observability backbone.

A :class:`Machine` owns one :class:`EventBus`; every simulated structure
(cores, SPL cluster controllers, memory hierarchy, bus, the machine
itself) holds a reference and publishes :class:`~repro.obs.events.Event`
records into it.

The bus is **zero-cost when nothing listens**: publishers guard every
emission with ``if self.obs.active:`` where ``active`` is a plain bool
attribute, so an unobserved run performs one attribute read and a branch
per would-be event — no ``Event`` objects, no dict payloads, no calls.

Sinks subscribe with optional ``kinds``/``sources`` filters.  The filter
closure is compiled once per (sink, filter) pair at attach time so
dispatch is a short loop over predicate+accept pairs.
"""

from __future__ import annotations

from typing import (Any, Callable, FrozenSet, Iterable, List, Optional,
                    Tuple)

from repro.obs.events import Event


class Sink:
    """Base class for event consumers.

    Subclasses override :meth:`accept`; :meth:`on_finish` is called once
    when the producing machine stops, with the final cycle count.
    """

    def accept(self, event: Event) -> None:
        raise NotImplementedError

    def on_finish(self, cycle: int) -> None:
        """Hook invoked when the run ends (flush open spans, etc.)."""


class EventBus:
    """Dispatches published events to attached sinks.

    ``active`` is the publisher-side fast-path guard: it is True iff at
    least one sink is attached.  Publishers must check it before building
    event payloads.
    """

    __slots__ = ("active", "_routes")

    def __init__(self) -> None:
        self.active = False
        # (sink, kinds-or-None, sources-or-None) triples.
        self._routes: List[Tuple[Sink, Optional[FrozenSet[str]],
                                 Optional[FrozenSet[str]]]] = []

    # -- subscription ------------------------------------------------------

    def attach(self, sink: Sink,
               kinds: Optional[Iterable[str]] = None,
               sources: Optional[Iterable[str]] = None) -> Sink:
        """Subscribe ``sink``; optionally filter by event kind/source.

        ``kinds``/``sources`` of ``None`` mean "everything".  Returns the
        sink for chaining.
        """
        kind_set = None if kinds is None else frozenset(kinds)
        source_set = None if sources is None else frozenset(sources)
        self._routes.append((sink, kind_set, source_set))
        self.active = True
        return sink

    def detach(self, sink: Sink) -> None:
        self._routes = [route for route in self._routes
                        if route[0] is not sink]
        self.active = bool(self._routes)

    @property
    def sinks(self) -> List[Sink]:
        return [route[0] for route in self._routes]

    # -- publication -------------------------------------------------------

    def emit(self, cycle: int, source: str, kind: str,
             **args: Any) -> None:
        """Publish one event.

        Callers are expected to have already checked :attr:`active`; the
        method still works (as a no-op) if they did not.
        """
        if not self.active:
            return
        self.publish(Event(cycle, source, kind, args))

    def publish(self, event: Event) -> None:
        for sink, kinds, sources in self._routes:
            if kinds is not None and event.kind not in kinds:
                continue
            if sources is not None and event.source not in sources:
                continue
            sink.accept(event)

    def finish(self, cycle: int) -> None:
        """Signal end-of-run to every sink (in attach order)."""
        for sink, _kinds, _sources in self._routes:
            sink.on_finish(cycle)


class CallbackSink(Sink):
    """Adapter wrapping a plain callable as a sink (handy in tests)."""

    def __init__(self, fn: Callable[[Event], None]) -> None:
        self.fn = fn

    def accept(self, event: Event) -> None:
        self.fn(event)


class CollectorSink(Sink):
    """Buffers every accepted event; the simplest useful sink."""

    def __init__(self) -> None:
        self.events: List[Event] = []
        self.finished_at: Optional[int] = None

    def accept(self, event: Event) -> None:
        self.events.append(event)

    def on_finish(self, cycle: int) -> None:
        self.finished_at = cycle

    def of_kind(self, kind: str) -> List[Event]:
        return [event for event in self.events if event.kind == kind]
