"""Host-runtime span tracer: nesting, correlation, merging."""

import json
import threading

import pytest

from repro.obs.logging import attach_log, close_log, detach_log, open_log
from repro.obs.runtime import (
    TRACER,
    SpanRecord,
    SpanTracer,
    begin_worker,
    init_runtime_telemetry,
    shutdown_runtime_telemetry,
    worker_telemetry,
)


@pytest.fixture
def tracer():
    """A fresh private tracer (the global TRACER stays untouched)."""
    return SpanTracer()


@pytest.fixture
def global_tracer():
    """The process-wide TRACER, enabled for the test and fully reset after."""
    TRACER.reset()
    TRACER.enable("run-test")
    yield TRACER
    TRACER.disable()
    TRACER.reset()
    TRACER.run_id = None
    TRACER._listeners.clear()


def test_disabled_tracer_is_free(tracer):
    with tracer.span("sim.execute_spec", benchmark="KM") as span:
        assert span is None
    with tracer.bind(job_id="nope"):
        pass
    assert tracer.records() == []
    assert tracer.snapshot()["spans"] == []


def test_spans_nest_without_overlap_per_thread(tracer):
    tracer.enable("run-abc")
    with tracer.span("cli.run"):
        with tracer.span("sim.report", benchmark="KM"):
            with tracer.span("sim.baseline"):
                pass
            with tracer.span("sim.dynaspam"):
                pass
    records = tracer.records()
    # Close order: innermost first.
    assert [r.name for r in records] == [
        "sim.baseline", "sim.dynaspam", "sim.report", "cli.run",
    ]
    depths = {r.name: r.depth for r in records}
    assert depths == {"cli.run": 0, "sim.report": 1,
                      "sim.baseline": 2, "sim.dynaspam": 2}
    # Children lie strictly within their parent's [start, start+duration].
    by_name = {r.name: r for r in records}
    parent = by_name["sim.report"]
    for child in ("sim.baseline", "sim.dynaspam"):
        rec = by_name[child]
        assert rec.start >= parent.start
        assert rec.start + rec.duration <= parent.start + parent.duration
    # Every record carries the run id.
    assert all(r.attrs["run_id"] == "run-abc" for r in records)


def test_sibling_threads_keep_independent_stacks(tracer):
    tracer.enable()
    barrier = threading.Barrier(2)

    def work(label):
        with tracer.span("pool.worker_batch", label=label):
            barrier.wait(timeout=5)
            with tracer.span("sim.execute_spec", label=label):
                pass

    threads = [threading.Thread(target=work, args=(str(i),), name=f"w{i}")
               for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    records = tracer.records()
    assert len(records) == 4
    for record in records:
        # Depth is per-thread: the outer span is 0 on BOTH threads even
        # though they overlap in time.
        expected = 0 if record.name == "pool.worker_batch" else 1
        assert record.depth == expected, record
        assert record.thread in ("w0", "w1")


def test_bind_attaches_context_to_inner_spans(tracer):
    tracer.enable("run-ctx")
    with tracer.bind(job_id="job-1", run_key="abc123"):
        with tracer.span("service.execute_request", benchmark="KM"):
            pass
    with tracer.span("service.execute_request"):
        pass
    first, second = tracer.records()
    assert first.attrs["job_id"] == "job-1"
    assert first.attrs["run_key"] == "abc123"
    assert first.attrs["benchmark"] == "KM"
    assert "job_id" not in second.attrs


def test_snapshot_merge_tags_process_and_fires_listeners(tracer):
    worker = SpanTracer()
    worker.enable("run-shared")
    with worker.span("sim.execute_spec", benchmark="BFS"):
        pass
    shipped = worker.snapshot()
    # Snapshots survive a JSON round trip (process boundary).
    shipped = json.loads(json.dumps(shipped))

    tracer.enable("run-shared")
    seen = []
    tracer.add_listener(seen.append)
    merged = tracer.merge(shipped, process="worker-1234")
    assert merged == 1
    (record,) = seen
    assert isinstance(record, SpanRecord)
    assert record.process == "worker-1234"
    assert record.attrs["run_id"] == "run-shared"
    # Worker spans reach the listeners only, never this tracer's buffer.
    assert tracer.records() == []
    assert tracer.mark()[0] == {
        "workers.sim.execute_spec": (1, record.duration)}
    assert tracer.merge(None, process="x") == 0
    assert tracer.merge({"spans": []}, process="x") == 0


def test_tracer_merge_labels_worker_totals(tracer):
    tracer.enable()
    with tracer.span("pool.execute_runs"):
        pass
    tracer.bump("runs_simulated")
    tracer.merge({
        "totals": {"sim.dynaspam": [2, 2.5],
                   "workers.sim.trace_generation": [1, 1.0]},
        "counters": {"runs_simulated": 3},
    }, process="worker-1")
    totals, counters = tracer.mark()
    # Worker compute seconds are prefixed so they can never be misread
    # as the parent's wall clock; already-prefixed names stay single.
    assert totals["workers.sim.dynaspam"] == (2, 2.5)
    assert totals["workers.sim.trace_generation"] == (1, 1.0)
    assert "sim.dynaspam" not in totals
    assert totals["pool.execute_runs"][0] == 1
    # Counters merge flat: a cache hit is a hit in any process.
    assert counters == {"runs_simulated": 4}


def test_profile_counts_since_a_mark(tracer):
    tracer.enable()
    with tracer.span("sim.baseline"):
        pass
    tracer.bump("parallel_runs_completed", 2)
    mark = tracer.mark()
    with tracer.span("sim.dynaspam"):
        pass
    tracer.bump("runs_simulated")
    profile = tracer.profile(since=mark)
    assert set(profile["sections_seconds"]) == {"sim.dynaspam"}
    assert profile["counters"] == {"runs_simulated": 1}
    assert set(tracer.profile()["sections_seconds"]) == {
        "sim.baseline", "sim.dynaspam"}


def test_counters_count_while_disabled(tracer):
    with tracer.span("sim.baseline"):
        pass
    tracer.bump("runs_simulated")
    assert tracer.counters() == {"runs_simulated": 1}
    assert tracer.mark()[0] == {}


def test_span_buffer_is_bounded(tracer):
    tracer.enable()
    import repro.obs.runtime as runtime

    original = runtime.MAX_BUFFERED_SPANS
    runtime.MAX_BUFFERED_SPANS = 4
    try:
        for _ in range(6):
            with tracer.span("cache.get"):
                pass
            tracer.bump("parallel_runs_completed")
    finally:
        runtime.MAX_BUFFERED_SPANS = original
    assert len(tracer.records()) == 4
    assert tracer.dropped == 2
    assert tracer.snapshot()["dropped"] == 2
    # Totals and counters live apart from the buffer and keep counting.
    totals, counters = tracer.mark()
    assert totals["cache.get"][0] == 6
    assert counters["parallel_runs_completed"] == 6


def test_worker_handoff_reenables_with_parent_run_id(global_tracer):
    with global_tracer.span("pool.execute_runs"):
        pass
    telemetry = worker_telemetry()
    assert telemetry == {"enabled": True, "run_id": "run-test"}
    # Simulate the forked child: inherited spans, totals, counters and
    # listeners must be shed.
    global_tracer.add_listener(lambda record: None)
    global_tracer.bump("runs_simulated")
    begin_worker(telemetry)
    assert global_tracer.enabled
    assert global_tracer.run_id == "run-test"
    assert global_tracer.records() == []
    assert global_tracer.mark() == ({}, {})
    assert global_tracer._listeners == []

    begin_worker({"enabled": False, "run_id": None})
    assert not global_tracer.enabled


def test_init_runtime_telemetry_is_off_without_any_knob(monkeypatch):
    monkeypatch.delenv("REPRO_LOG", raising=False)
    was_enabled = TRACER.enabled
    assert init_runtime_telemetry("run") is None
    assert TRACER.enabled == was_enabled


def test_init_runtime_telemetry_writes_jsonl(tmp_path, monkeypatch):
    log_path = tmp_path / "runs.jsonl"
    monkeypatch.setenv("REPRO_LOG", str(log_path))
    run_id = init_runtime_telemetry(
        "run", argv=["run", "KM", "--scale", "0.05"]
    )
    try:
        assert run_id and run_id.startswith("run-")
        with TRACER.span("sim.execute_spec", benchmark="KM"):
            pass
    finally:
        shutdown_runtime_telemetry()
        TRACER.disable()
        TRACER.reset()
        TRACER.run_id = None
        TRACER._listeners.clear()
    lines = [json.loads(line) for line in log_path.read_text().splitlines()]
    assert [rec["kind"] for rec in lines] == ["start", "span"]
    start, span = lines
    assert start["run_id"] == run_id
    assert start["command"] == "run"
    assert start["argv"] == ["run", "KM", "--scale", "0.05"]
    assert span["name"] == "sim.execute_spec"
    assert span["attrs"]["run_id"] == run_id
    assert span["attrs"]["benchmark"] == "KM"
    assert span["duration"] >= 0
    # Shutdown detached the log listener from the tracer.
    assert TRACER._listeners == []


def test_attach_detach_log_is_idempotent(tmp_path, tracer):
    tracer.enable()
    log = open_log(str(tmp_path / "l.jsonl"))
    try:
        attach_log(tracer, log)
        attach_log(tracer, log)
        assert len(tracer._listeners) == 1
        detach_log(tracer, log)
        detach_log(tracer, log)
        assert tracer._listeners == []
    finally:
        close_log()
