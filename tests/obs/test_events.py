"""Unit tests for the event bus and sinks."""

import pytest

from repro.obs import (
    EVENT_TYPES,
    DecisionSink,
    EventBus,
    EventSink,
    MemorySink,
    TeeSink,
    TraceEventLog,
)


def test_bus_stamps_sequence_and_clock():
    sink = MemorySink()
    ticks = iter(range(100, 200))
    bus = EventBus(sink, clock=lambda: next(ticks))
    bus.emit("tcache.detect", key=(4, (), 8), length=8)
    bus.emit("tcache.hot", cycle=777, key=(4, (), 8), count=3)
    first, second = list(sink)
    assert (first.seq, first.cycle) == (0, 100)
    assert second.seq == 1
    assert second.cycle == 777          # explicit cycle beats the clock


def test_bus_rejects_unregistered_types():
    bus = EventBus(MemorySink())
    with pytest.raises(ValueError, match="unregistered"):
        bus.emit("tcache.bogus")


def test_every_sink_satisfies_the_protocol():
    for sink in (MemorySink(), TeeSink(), DecisionSink(),
                 TraceEventLog("0x4:-:8")):
        assert isinstance(sink, EventSink)


def test_memory_sink_ring_drops_oldest():
    sink = MemorySink(capacity=3)
    bus = EventBus(sink)
    for index in range(5):
        bus.emit("pipeline.phase", cycle=index, phase="host")
    assert len(sink) == 3
    assert sink.dropped == 2
    assert [event.cycle for event in sink] == [2, 3, 4]


def test_tee_sink_fans_out():
    first, second = MemorySink(), MemorySink()
    bus = EventBus(TeeSink(first, second))
    bus.emit("fabric.reconfig", cycle=3, fabric=0,
             key=(2, (), 8), evicted=None, stripes=4)
    assert len(first) == len(second) == 1
    assert list(first) == list(second)
    assert first.events[0].type == "fabric.reconfig"


def test_registry_names_are_namespaced():
    for name in EVENT_TYPES:
        component, _, verb = name.partition(".")
        assert component and verb, name
