"""Structured event bus for the DynaSpAM lifecycle.

Every stage of the paper's trace lifecycle — detection in the T-Cache,
mapping on the issue unit, caching of the configuration, offloading as a
fat atomic instruction, and the occasional squash — emits a typed event
through an :class:`EventBus` into an :class:`EventSink`.  The registry
(:data:`EVENT_TYPES`) is the single source of truth for the taxonomy; the
bus rejects unregistered types so instrumentation and documentation can
never drift apart silently.

Tracing is strictly opt-in and must never perturb the simulation:

* components hold ``bus = None`` by default and guard every emission with
  a single ``is not None`` check — the disabled path costs one pointer
  comparison per site and allocates nothing;
* emission only *reads* simulator state; sinks never call back into it.

Sinks:

:class:`MemorySink`
    Bounded in-memory ring of :class:`Event` records (the ``run
    --trace-out`` Chrome export, analysis, tests).
:class:`TeeSink`
    Fans one stream out to several sinks.

The streaming folds in :mod:`repro.obs.decisions` are sinks too: the
``DecisionSink`` behind ``repro why``/``explain`` and the ``decisions``
report block, and the per-trace ``TraceEventLog`` of ``explain
--trace-id``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Protocol, runtime_checkable

#: The event taxonomy: every type the bus will accept, with the meaning
#: documented where the "no dead events" test can enforce coverage.
EVENT_TYPES: dict[str, str] = {
    # T-Cache (repro.core.tcache)
    "tcache.window": "a trace-window candidate closed (terminal decision "
                     "record: close reason + hotness outcome)",
    "tcache.detect": "a new trace identity entered the T-Cache",
    "tcache.hot": "a trace identity crossed the hot threshold",
    "tcache.clear": "periodic T-Cache clear demoted all hot traces",
    # Mapping (repro.core.mapper / naive_mapper, scored by core.priority)
    "map.start": "a mapping phase began for a hot trace",
    "map.place": "one instruction was placed onto a PE",
    "map.stripe": "the scheduling frontier advanced one stripe",
    "map.fail": "the trace could not be mapped (closed-enum reason + "
                "human detail attached)",
    "map.abort": "a mapping phase was abandoned before the drain: the "
                 "actual path diverged from the predicted hot key",
    "map.done": "a configuration was built",
    # Configuration cache (repro.core.config_cache)
    "ccache.hit": "a fetch-stage probe hit a cached entry",
    "ccache.insert": "a mapping result (or unmappable marker) was stored",
    "ccache.ready": "an entry's counter crossed the ready threshold",
    "ccache.evict": "LRU replacement evicted an entry",
    # Fabric (repro.fabric.fabric via repro.core.multifabric)
    "fabric.reconfig": "a spatial fabric was reconfigured for a trace",
    # Offload (repro.core.offload + framework squash detection)
    "offload.dispatch": "a fat atomic invocation was dispatched",
    "offload.commit": "a fat atomic invocation committed",
    "offload.squash": "an invocation squashed (cause=branch|memory)",
    "offload.defer": "a ready trace could not acquire a fabric "
                     "(reconfiguration hysteresis); host path continued",
    # Host pipeline (repro.ooo.pipeline)
    "pipeline.drain": "the back end drained before a mapping phase",
    "pipeline.phase": "the execution phase changed (host|mapping|offload)",
}


@dataclass(slots=True)
class Event:
    """One emitted lifecycle event."""

    seq: int                 #: emission order, assigned by the bus
    type: str                #: a key of :data:`EVENT_TYPES`
    cycle: int               #: simulated cycle stamp
    data: dict[str, Any]     #: type-specific payload (read-only snapshot)


@runtime_checkable
class EventSink(Protocol):
    """Receiver of emitted events: anything with an ``emit`` method."""

    def emit(self, event: Event) -> None:  # pragma: no cover - protocol
        ...


class MemorySink:
    """Bounded in-memory ring of events (newest kept when full)."""

    def __init__(self, capacity: int | None = 1 << 20) -> None:
        self.events: deque[Event] = deque(maxlen=capacity)
        self.dropped = 0
        self._capacity = capacity

    def emit(self, event: Event) -> None:
        if (
            self._capacity is not None
            and len(self.events) == self._capacity
        ):
            self.dropped += 1
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


class TeeSink:
    """Fan one event stream out to several sinks."""

    def __init__(self, *sinks: EventSink) -> None:
        self.sinks = tuple(sinks)

    def emit(self, event: Event) -> None:
        for sink in self.sinks:
            sink.emit(event)


class EventBus:
    """Stamps, numbers, validates, and forwards events to one sink.

    The ``clock`` callable supplies the cycle stamp when the emitter does
    not pass an explicit ``cycle`` (components like the T-Cache have no
    cycle notion of their own; the framework wires in the pipeline's
    front-end clock).
    """

    __slots__ = ("sink", "clock", "_seq")

    def __init__(
        self, sink: EventSink, clock: Callable[[], int] | None = None
    ) -> None:
        self.sink = sink
        self.clock = clock or (lambda: 0)
        self._seq = 0

    def emit(self, type: str, cycle: int | None = None, **data) -> None:
        if type not in EVENT_TYPES:
            raise ValueError(f"unregistered event type {type!r}")
        if cycle is None:
            cycle = self.clock()
        self.sink.emit(Event(self._seq, type, cycle, data))
        self._seq += 1
