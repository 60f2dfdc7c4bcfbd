"""Trace lifetimes: the decision fold's milestones behind ``repro explain``."""

from repro.harness.runner import run_dynaspam
from repro.obs import (
    DecisionSink,
    MemorySink,
    TeeSink,
    TraceEventLog,
    format_trace_id,
    render_explain,
    render_trace_detail,
)
from repro.obs.decisions import DETAIL_EVENTS, TRACE_FATES


def _traced_run(abbrev="KM", scale=0.05, sink=None):
    fold = DecisionSink()
    result = run_dynaspam(
        abbrev, scale, sink=fold if sink is None else TeeSink(fold, sink)
    )
    return result, fold


def test_format_trace_id():
    assert format_trace_id((0x30, (True, False, True), 27)) == "0x30:TNT:27"
    assert format_trace_id((4, (), 32)) == "0x4:-:32"


def test_lifetimes_are_ordered_and_consistent():
    ring = MemorySink()
    result, fold = _traced_run(sink=ring)
    assert fold.events == len(ring)
    assert fold._traces, "no traces detected"
    for key, record in fold._traces.items():
        # Milestones must be reached in lifecycle order.
        stamps = [cycle for cycle, _ in record.timeline()]
        assert stamps == sorted(stamps), format_trace_id(key)
        if record.commits:
            assert record.fate == "offloaded"
            assert record.mapped is not None
            assert record.ready is not None
    # The fold's offload totals agree with the simulator's own accounting.
    offloaded = [r for r in fold._traces.values() if r.commits]
    assert len(offloaded) == result.offloaded_traces
    assert sum(r.commits for r in offloaded) == \
        result.stats.fabric_invocations


def test_fate_counts_partition_the_traces():
    _, fold = _traced_run()
    fates = fold.fate_counts()
    assert list(fates) == list(TRACE_FATES)
    assert sum(fates.values()) == len(fold._traces)


def test_ranked_puts_heaviest_offloader_first():
    _, fold = _traced_run()
    _, first = fold.ranked()[0]
    assert first.commits == max(r.commits for r in fold._traces.values())


def test_render_table_and_summary():
    _, fold = _traced_run()
    text = render_explain(fold, top=5)
    assert "traces detected" in text
    assert "offloaded" in text
    assert f"{fold.events} events" in text
    # top=5 caps the table body.
    body = [line for line in text.splitlines() if line.startswith("0x")]
    assert 0 < len(body) <= 5


def test_render_trace_detail():
    _, fold = _traced_run()
    trace_id = format_trace_id(fold.ranked()[0][0])
    log = TraceEventLog(trace_id)
    _, fold = _traced_run(sink=log)
    assert 0 < len(log.events) <= DETAIL_EVENTS
    assert all(format_trace_id(e.data["key"]) == trace_id
               for e in log.events)
    detail = render_trace_detail(fold, trace_id, log.events)
    assert detail is not None
    assert trace_id in detail
    assert "timeline:" in detail
    assert "first offload" in detail
    assert render_trace_detail(fold, "0xdead:-:1", []) is None
