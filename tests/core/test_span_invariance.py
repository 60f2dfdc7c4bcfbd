"""Split invariance of the framework's span-batched bookkeeping.

The framework feeds the window builder one host span at a time and
advances the configuration cache's clear clock once per span.  Neither
may depend on where the spans are cut: ``TraceWindowBuilder.feed_span``
must yield the windows and builder state that feeding one instruction at
a time does, and ``ConfigCache.advance(n)`` must equal ``n`` calls of
``tick(1)``.
"""

from hypothesis import given, settings, strategies as st

from repro.core.config_cache import ConfigCache
from repro.core.tcache import TraceWindowBuilder
from repro.isa.builder import ProgramBuilder
from repro.isa.executor import FunctionalExecutor

body_items = st.lists(
    st.tuples(st.sampled_from(("adds", "if", "jump")), st.integers(0, 9)),
    min_size=1, max_size=4,
)
loops = st.lists(st.tuples(st.integers(1, 5), body_items),
                 min_size=1, max_size=3)


def _program(shape):
    """Counted loops whose bodies mix straight runs, data-dependent
    forward branches and jumps."""
    b = ProgramBuilder("spans")
    for n, (iterations, body) in enumerate(shape):
        with b.countdown(f"loop{n}", "r1", iterations):
            for m, (kind, size) in enumerate(body):
                if kind == "adds":
                    for _ in range(size):
                        b.addi("r2", "r2", 1)
                elif kind == "if":
                    b.andi("r5", "r1", 1)
                    b.beq("r5", "r0", f"skip{n}_{m}")
                    for _ in range(size):
                        b.addi("r3", "r3", 1)
                    b.label(f"skip{n}_{m}")
                else:
                    b.jmp(f"over{n}_{m}")
                    b.label(f"dead{n}_{m}")
                    b.addi("r4", "r4", 1)
                    b.label(f"over{n}_{m}")
    b.halt()
    return b.build()


def _window_view(window):
    if window is None:
        return None
    return (window.anchor_pc, window.start_seq, window.instructions,
            window.branches, window.close_reason, window.key)


def _builder_view(builder):
    return _window_view(builder._window), builder._awaiting_branch


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    shape=loops,
    max_length=st.integers(1, 20),
    max_branches=st.integers(1, 4),
    smart=st.booleans(),
    data=st.data(),
)
def test_feed_span_matches_feeding_one_at_a_time(shape, max_length,
                                                 max_branches, smart, data):
    program = _program(shape)
    run = FunctionalExecutor().run(program).trace
    # Two runs back to back: the first run's HALT lands mid-stream.
    trace = run + run
    lookahead = program if smart else None
    single = TraceWindowBuilder(max_length, max_branches, program=lookahead)
    spans = TraceWindowBuilder(max_length, max_branches, program=lookahead)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(trace)),
                                     max_size=12)))

    start = 0
    for limit in cuts + [len(trace)]:
        while start < limit:
            stop, window = spans.feed_span(trace, start, limit)
            assert start < stop <= limit
            closed = [single.feed(dyn) for dyn in trace[start:stop]]
            # Only the span's last instruction may close a window.
            assert all(w is None for w in closed[:-1])
            assert _window_view(window) == _window_view(closed[-1])
            if stop < limit:
                # A span stops early only where the framework must look:
                # a closed window or a fresh anchor.
                assert window is not None or spans.at_anchor
            assert _builder_view(spans) == _builder_view(single)
            start = stop
    assert start == len(trace)


def test_feed_span_covers_the_awaiting_stretch_and_halt():
    """A length cap on a non-branch leaves an awaiting stretch, which one
    span consumes through its closing branch; HALT ends a span alone."""
    b = ProgramBuilder("awaiting")
    with b.countdown("loop", "r1", 2):
        for _ in range(6):
            b.addi("r2", "r2", 1)
    b.halt()
    trace = FunctionalExecutor().run(b.build()).trace
    builder = TraceWindowBuilder(max_length=4, max_branches=3)
    stop, window = builder.feed_span(trace, 0, len(trace))
    # li r1, then three addi: capped at 4 on a non-branch.
    assert (stop, window.close_reason) == (4, "length_cap")
    assert builder._awaiting_branch and not builder.at_anchor
    stop, window = builder.feed_span(trace, stop, len(trace))
    assert window is None and builder.at_anchor
    assert trace[stop - 1].is_branch
    halt = len(trace) - 1
    stop, window = builder.feed_span(trace, halt, len(trace))
    assert (stop, window) == (len(trace), None) and builder.at_anchor


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    interval=st.integers(1, 40),
    steps=st.lists(
        st.tuples(st.integers(0, 130),
                  st.lists(st.integers(0, 7), min_size=3, max_size=3)),
        max_size=10,
    ),
)
def test_advance_equals_repeated_single_ticks(interval, steps):
    batched = ConfigCache(clear_interval=interval)
    ticked = ConfigCache(clear_interval=interval)
    keys = [(pc, (), 4) for pc in range(3)]
    for cache in (batched, ticked):
        for key in keys:
            cache.insert(key, None)
    for n, counters in steps:
        # Counters move between spans (fetch-stage predictions).
        for cache in (batched, ticked):
            for key, counter in zip(keys, counters):
                cache._store[key].counter = counter
        batched.advance(n)
        for _ in range(n):
            ticked.tick(1)
        assert batched._since_clear == ticked._since_clear < interval
        assert ([e.counter for e in batched._store.values()]
                == [e.counter for e in ticked._store.values()])
