"""Unit tests for trace window building and the T-Cache."""

import pytest

from repro.core.tcache import TCache, TraceWindowBuilder
from repro.isa.builder import ProgramBuilder
from repro.isa.executor import FunctionalExecutor


def trace_of(build):
    b = ProgramBuilder("t")
    build(b)
    b.halt()
    return FunctionalExecutor().run(b.build()).trace


def loop_trace(iterations, body_adds):
    def body(b):
        with b.countdown("loop", "r1", iterations):
            for _ in range(body_adds):
                b.addi("r2", "r2", 1)
    return trace_of(body)


# ---------------------------------------------------------------------------
# Window builder
# ---------------------------------------------------------------------------
def test_window_closes_at_third_branch():
    trace = loop_trace(iterations=10, body_adds=3)  # 5 instrs/iter, 1 branch
    builder = TraceWindowBuilder(max_length=32)
    windows = [w for w in map(builder.feed, trace) if w]
    assert all(len(w.outcomes) <= 3 for w in windows)
    assert len(windows[0].outcomes) == 3
    # Steady state (after the loop preamble window): 3 iterations of 5.
    assert windows[1].length == 15


def test_window_closes_at_length_cap_and_enters_dead_zone():
    trace = loop_trace(iterations=6, body_adds=40)  # 42 instrs/iter
    builder = TraceWindowBuilder(max_length=32)
    windows = []
    for dyn in trace:
        w = builder.feed(dyn)
        if w:
            windows.append(w)
    # Cap closes each window at 32 mid-block; the rest of the iteration is
    # a dead zone, so steady-state windows anchor at iteration starts.
    assert all(w.length == 32 for w in windows[:-1])
    anchor_pcs = {w.anchor_pc for w in windows[1:-1]}
    assert len(anchor_pcs) == 1


def test_windows_anchor_after_branches():
    trace = loop_trace(iterations=9, body_adds=3)
    builder = TraceWindowBuilder(max_length=32)
    windows = [w for w in map(builder.feed, trace) if w]
    # 9 iterations, 3 per window: steady-state windows share the loop
    # anchor (the first window additionally covers the loop preamble).
    loop_windows = [w for w in windows if len(w.outcomes) == 3]
    assert len({w.anchor_pc for w in loop_windows[1:]}) == 1


def test_stable_loop_yields_identical_keys():
    trace = loop_trace(iterations=15, body_adds=3)
    builder = TraceWindowBuilder(max_length=32)
    keys = [w.key for w in map(builder.feed, trace) if w]
    # Steady-state windows: fully-taken loop iterations -> same key.
    assert keys[1] == keys[2] == keys[3]


def test_halt_discards_open_window():
    trace = loop_trace(iterations=2, body_adds=2)
    builder = TraceWindowBuilder(max_length=32)
    windows = [w for w in map(builder.feed, trace) if w]
    # 2 iterations = 2 branches < 3: no window ever closes, HALT discards.
    assert windows == []
    assert builder.at_anchor


def test_resume_after_realigns_anchor_state():
    builder = TraceWindowBuilder(max_length=32)
    trace = loop_trace(iterations=6, body_adds=40)
    segment = trace[:32]  # ends mid-block (not at a branch)
    builder.resume_after(segment)
    assert not builder.at_anchor
    # Feeding until the branch re-arms the anchor.
    for dyn in trace[32:]:
        builder.feed(dyn)
        if dyn.is_branch:
            break
    assert builder.at_anchor


def test_at_anchor_initially_true():
    assert TraceWindowBuilder().at_anchor


# ---------------------------------------------------------------------------
# TCache
# ---------------------------------------------------------------------------
def closed_windows(trace, max_length=32):
    builder = TraceWindowBuilder(max_length=max_length)
    return [w for w in map(builder.feed, trace) if w]


def test_trace_becomes_hot_after_threshold():
    windows = closed_windows(loop_trace(iterations=30, body_adds=3))
    tcache = TCache(hot_threshold=3)
    hot_after = None
    for i, w in enumerate(windows):
        if tcache.observe(w) and hot_after is None:
            hot_after = i
    # The steady-state key (first seen at window 1) crosses threshold 3 on
    # its third observation, i.e. overall window index 3.
    assert hot_after == 3
    assert tcache.is_hot(windows[3].key)


def test_is_hot_by_key():
    windows = closed_windows(loop_trace(iterations=30, body_adds=3))
    tcache = TCache(hot_threshold=2)
    for w in windows[1:3]:
        tcache.observe(w)
    assert tcache.is_hot(windows[1].key)
    assert not tcache.is_hot(("bogus", (), 0))


def test_counter_saturates():
    windows = closed_windows(loop_trace(iterations=60, body_adds=3))
    tcache = TCache(counter_bits=3, hot_threshold=3)
    for w in windows:
        tcache.observe(w)
    key = windows[1].key
    assert tcache._counters[key] <= 7


def test_periodic_clearing_demotes_and_rewarm():
    """Clearing resets counters and demotes hot flags; a genuinely hot
    trace re-warms within threshold observations."""
    windows = closed_windows(loop_trace(iterations=60, body_adds=3))
    tcache = TCache(hot_threshold=2, clear_interval=5)
    steady = [w for w in windows if w.key == windows[1].key]
    key = windows[1].key
    tcache.observe(steady[0])
    tcache.observe(steady[1])
    assert tcache.is_hot(key)
    # Force a clearing epoch: the observation that crosses the interval
    # finds its trace demoted.
    hot_flags = [tcache.observe(w) for w in steady[2:7]]
    assert not all(hot_flags)
    # The dominant trace re-warms quickly after demotion.
    hot_again = False
    for w in steady[7:10]:
        hot_again = tcache.observe(w) or hot_again
    assert hot_again


def test_capacity_eviction():
    tcache = TCache(entries=2, hot_threshold=1)
    traces = loop_trace(iterations=30, body_adds=3)
    builder = TraceWindowBuilder(max_length=32)
    windows = [w for w in map(builder.feed, traces) if w]
    w = windows[0]
    # Fabricate distinct keys by perturbing anchors.
    for anchor in (1000, 2000, 3000):
        w.anchor_pc = anchor
        tcache.observe(w)
    assert len(tcache._counters) <= 2


def test_non_positive_bounds_rejected():
    with pytest.raises(ValueError):
        TCache(clear_interval=0)
    with pytest.raises(ValueError):
        TraceWindowBuilder(max_length=0)
    with pytest.raises(ValueError):
        TraceWindowBuilder(max_branches=0)
