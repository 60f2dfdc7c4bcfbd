"""Tests for the latency ring buffer and metrics snapshots."""

from repro.service.metrics import LatencyRing, ServiceMetrics
from repro.service.queue import JobQueue


def test_empty_ring_summary_is_zeroes():
    summary = LatencyRing().summary()
    assert summary == {"count": 0, "p50": 0.0, "p90": 0.0,
                       "p99": 0.0, "max": 0.0}


def test_nearest_rank_percentiles():
    ring = LatencyRing()
    for value in range(1, 101):  # 1..100
        ring.observe(float(value))
    summary = ring.summary()
    assert summary["count"] == 100
    assert summary["p50"] == 50.0
    assert summary["p90"] == 90.0
    assert summary["p99"] == 99.0
    assert summary["max"] == 100.0


def test_ring_is_bounded():
    ring = LatencyRing(capacity=4)
    for value in range(100):
        ring.observe(float(value))
    summary = ring.summary()
    assert summary["count"] == 4
    assert summary["max"] == 99.0
    assert summary["p50"] == 97.0  # only the last four samples remain


def test_retry_after_scales_with_backlog():
    metrics = ServiceMetrics()
    assert metrics.retry_after_hint(open_jobs=4, workers=2) == 1
    for _ in range(10):
        metrics.observe_latency(3.0)
    assert metrics.retry_after_hint(open_jobs=4, workers=2) == 6
    assert metrics.retry_after_hint(open_jobs=1, workers=4) >= 1


def test_snapshot_shape_includes_queue_and_cache():
    metrics = ServiceMetrics()
    metrics.bump("submitted", 3)
    metrics.bump("completed", 2)
    metrics.observe_latency(0.5)
    queue = JobQueue(depth=7)
    snapshot = metrics.snapshot(queue=queue)
    # The blocks hostbench, `repro loadtest` and the Prometheus renderer
    # read; every one describes the service, none a simulated run.
    assert set(snapshot) == {
        "uptime_seconds", "jobs", "latency_seconds", "latency_histogram",
        "queue_wait_seconds", "spans", "cache", "workers", "queue",
    }
    assert snapshot["jobs"]["submitted"] == 3
    assert snapshot["jobs"]["completed"] == 2
    assert snapshot["queue"]["capacity"] == 7
    assert snapshot["latency_seconds"]["count"] == 1
    assert set(snapshot["cache"]) == {"runs_simulated", "disk"}
    assert snapshot["uptime_seconds"] >= 0
    # Each number once: job totals live in the jobs block, and the open
    # flights are the busy workers.
    assert set(snapshot["queue"]) == {
        "capacity", "queued", "running", "open", "retained",
        "evicted_total", "draining",
    }
    assert set(snapshot["workers"]) == {
        "kind", "total", "busy", "batch_seconds",
    }


def test_snapshot_workers_block_zero_filled_without_scheduler():
    snapshot = ServiceMetrics().snapshot()
    workers = snapshot["workers"]
    assert workers["total"] == 0
    assert workers["busy"] == 0
    assert workers["batch_seconds"]["count"] == 0


def test_snapshot_workers_block_comes_from_scheduler():
    class FakeScheduler:
        def worker_stats(self):
            return {"kind": "process", "total": 3, "busy": 1,
                    "batch_seconds": {"buckets": [], "sum": 1.0, "count": 5}}

    snapshot = ServiceMetrics().snapshot(scheduler=FakeScheduler())
    assert snapshot["workers"]["kind"] == "process"
    assert snapshot["workers"]["total"] == 3
    assert snapshot["workers"]["busy"] == 1


def test_snapshot_tolerates_scheduler_without_worker_stats():
    class BareScheduler:
        pass

    snapshot = ServiceMetrics().snapshot(scheduler=BareScheduler())
    assert snapshot["workers"]["total"] == 0


def test_poll_intervals_backoff_grows_and_caps():
    from repro.service.client import poll_intervals

    # rng pinned to 1.0 => each yield is 1.5x the deterministic base.
    intervals = poll_intervals(0.05, rng=lambda: 1.0)
    values = [next(intervals) for _ in range(16)]
    assert values[0] == 0.05 * 1.5
    # Exponential growth until the cap.
    for earlier, later in zip(values, values[1:]):
        assert later >= earlier
    assert values[-1] == 2.0  # capped
    assert all(value <= 2.0 for value in values)
    # Jitter keeps retries from synchronizing: rng low vs high differ.
    low = next(poll_intervals(0.05, rng=lambda: 0.0))
    high = next(poll_intervals(0.05, rng=lambda: 1.0))
    assert low == 0.05 * 0.5
    assert high == 3 * low
