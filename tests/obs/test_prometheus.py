"""Prometheus text exposition rendering."""

from repro.obs.prometheus import CONTENT_TYPE, render_prometheus
from repro.service.metrics import LatencyHistogram, ServiceMetrics

SNAPSHOT = {
    "uptime_seconds": 12.5,
    "jobs": {"submitted": 7, "rejected": 1, "completed": 5,
             "failed": 1, "coalesced": 2},
    "queue": {"capacity": 64, "queued": 2, "running": 3, "open": 5,
              "retained": 9, "draining": False},
    "latency_seconds": {"count": 5, "p50": 0.2, "p90": 0.9,
                        "p99": 1.5, "max": 1.5},
    "latency_histogram": {
        "buckets": [[0.1, 2], [1.0, 2], [None, 1]],
        "sum": 3.3,
        "count": 5,
    },
    "cache": {"runs_simulated": 4,
              "disk": {"runs": {"hits": 6, "misses": 4}}},
}


def test_renders_counters_gauges_and_histogram():
    text = render_prometheus(SNAPSHOT)
    assert text.endswith("\n")
    assert 'repro_jobs_total{outcome="completed"} 5' in text
    assert 'repro_jobs_total{outcome="coalesced"} 2' in text
    assert "repro_uptime_seconds 12.5" in text
    assert 'repro_queue_jobs{state="queued"} 2' in text
    assert "repro_queue_capacity 64" in text
    assert "repro_queue_draining 0" in text
    assert 'repro_cache_hits_total{layer="disk"} 6' in text
    assert 'layer="memory"' not in text
    assert "repro_runs_simulated_total 4" in text


def test_histogram_buckets_are_cumulative_and_end_at_inf():
    text = render_prometheus(SNAPSHOT)
    assert 'repro_job_latency_seconds_bucket{le="0.1"} 2' in text
    assert 'repro_job_latency_seconds_bucket{le="1.0"} 4' in text
    assert 'repro_job_latency_seconds_bucket{le="+Inf"} 5' in text
    assert "repro_job_latency_seconds_sum 3.3" in text
    assert "repro_job_latency_seconds_count 5" in text


def test_families_are_typed_and_helped():
    text = render_prometheus(SNAPSHOT)
    for family, kind in (
        ("repro_jobs_total", "counter"),
        ("repro_queue_jobs", "gauge"),
        ("repro_job_latency_seconds", "histogram"),
    ):
        assert f"# TYPE {family} {kind}" in text
        assert f"# HELP {family} " in text


def test_content_type_is_version_0_0_4():
    assert CONTENT_TYPE == "text/plain; version=0.0.4; charset=utf-8"


def test_empty_snapshot_renders_zeroes():
    text = render_prometheus({})
    assert 'repro_jobs_total{outcome="submitted"} 0' in text
    assert "repro_job_latency_seconds_bucket" not in text


def test_latency_histogram_observe_buckets():
    histogram = LatencyHistogram(buckets=(0.1, 1.0, None))
    for value in (0.05, 0.5, 0.7, 5.0):
        histogram.observe(value)
    summary = histogram.summary()
    assert summary["buckets"] == [[0.1, 1], [1.0, 2], [None, 1]]
    assert summary["count"] == 4
    assert summary["sum"] == 0.05 + 0.5 + 0.7 + 5.0


def test_worker_pool_gauges_render():
    histogram = LatencyHistogram()
    histogram.observe(0.2)
    histogram.observe(3.0)
    snapshot = dict(SNAPSHOT)
    snapshot["workers"] = {
        "kind": "process", "total": 4, "busy": 2,
        "batch_seconds": histogram.summary(),
    }
    text = render_prometheus(snapshot)
    assert "# TYPE repro_workers_total gauge" in text
    assert "repro_workers_total 4" in text
    assert "repro_workers_busy 2" in text
    assert "# TYPE repro_worker_batch_seconds histogram" in text
    assert "repro_worker_batch_seconds_count 2" in text
    assert 'repro_worker_batch_seconds_bucket{le="+Inf"} 2' in text


def test_worker_pool_gauges_zero_filled_when_idle():
    text = render_prometheus(ServiceMetrics().snapshot())
    assert "repro_workers_total 0" in text
    assert "repro_workers_busy 0" in text
    assert "repro_worker_batch_seconds_count 0" in text
    assert 'repro_worker_batch_seconds_bucket{le="+Inf"} 0' in text
