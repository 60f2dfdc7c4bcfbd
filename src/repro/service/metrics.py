"""Service counters and latency percentiles from a bounded ring buffer.

Latency samples live in a fixed-size ``deque`` — the service never keeps
an unbounded history — and percentiles use the nearest-rank method over
a sorted copy, which is exact for the ring's window.  Cache hit/miss
numbers are read straight from the harness (the tracer's
``runs_simulated`` counter and the disk cache's per-namespace stats) so
the service reports the same counters ``repro bench`` does.

Every number here describes the service: jobs, queue, workers, host
seconds and caches.  A job's simulated numbers (cycles, trace fates,
fabric occupancy) stay in its own report.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque


class LatencyRing:
    """Fixed-capacity ring of latency samples with exact window percentiles."""

    def __init__(self, capacity: int = 2048) -> None:
        self._samples: deque[float] = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        with self._lock:
            self._samples.append(float(seconds))

    def __len__(self) -> int:
        return len(self._samples)

    @staticmethod
    def _nearest_rank(ordered: list[float], pct: float) -> float:
        rank = math.ceil(pct / 100.0 * len(ordered))
        return ordered[max(0, min(len(ordered) - 1, rank - 1))]

    def summary(self) -> dict:
        with self._lock:
            ordered = sorted(self._samples)
        if not ordered:
            return {"count": 0, "p50": 0.0, "p90": 0.0, "p99": 0.0, "max": 0.0}
        return {
            "count": len(ordered),
            "p50": self._nearest_rank(ordered, 50),
            "p90": self._nearest_rank(ordered, 90),
            "p99": self._nearest_rank(ordered, 99),
            "max": ordered[-1],
        }


class LatencyHistogram:
    """Cumulative-bucket latency histogram (Prometheus exposition shape).

    Unlike the ring, the histogram never forgets: buckets are monotonic
    counters, which is what Prometheus ``rate()``/``histogram_quantile()``
    need across scrapes.
    """

    #: Upper bounds in seconds; ``None`` is the +Inf bucket.
    DEFAULT_BUCKETS = (
        0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
        10.0, 30.0, 60.0, 120.0, None,
    )

    def __init__(self, buckets: tuple = DEFAULT_BUCKETS) -> None:
        if buckets[-1] is not None:
            buckets = tuple(buckets) + (None,)
        self.buckets = tuple(buckets)
        self._counts = [0] * len(self.buckets)
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        seconds = float(seconds)
        with self._lock:
            self._sum += seconds
            self._count += 1
            for index, upper in enumerate(self.buckets):
                if upper is None or seconds <= upper:
                    self._counts[index] += 1
                    break

    def summary(self) -> dict:
        """Per-bucket (non-cumulative) counts; the renderer cumulates."""
        with self._lock:
            return {
                "buckets": [
                    [upper, count]
                    for upper, count in zip(self.buckets, self._counts)
                ],
                "sum": self._sum,
                "count": self._count,
            }


class ServiceMetrics:
    """Monotonic counters + latency ring; snapshots merge harness stats."""

    #: Cardinality guard for per-span histograms.  Span names are a
    #: small fixed taxonomy; anything past the cap (a bug, or a hostile
    #: caller) aggregates under ``other``.
    MAX_SPAN_FAMILIES = 64

    def __init__(self, latency_capacity: int = 2048) -> None:
        #: Epoch stamp, for display only.  Durations (uptime, latencies)
        #: come from the monotonic clock — ``time.time()`` deltas jump
        #: with NTP corrections.
        self.started_at = time.time()
        self.started_mono = time.monotonic()
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self.latency = LatencyRing(latency_capacity)
        self.latency_histogram = LatencyHistogram()
        self.queue_wait = LatencyRing(latency_capacity)
        self._span_histograms: dict[str, LatencyHistogram] = {}

    def bump(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def observe_latency(self, seconds: float) -> None:
        self.latency.observe(seconds)
        self.latency_histogram.observe(seconds)

    def observe_queue_wait(self, seconds: float) -> None:
        self.queue_wait.observe(seconds)

    def observe_span(self, name: str, seconds: float) -> None:
        """Feed one finished wall-clock span into its duration histogram
        (the family behind ``repro_span_duration_seconds``)."""
        with self._lock:
            histogram = self._span_histograms.get(name)
            if histogram is None:
                if len(self._span_histograms) >= self.MAX_SPAN_FAMILIES:
                    name = "other"
                histogram = self._span_histograms.setdefault(
                    name, LatencyHistogram()
                )
        histogram.observe(seconds)

    def span_listener(self):
        """A ``SpanTracer`` listener feeding :meth:`observe_span`."""

        def listener(record) -> None:
            self.observe_span(record.name, record.duration)

        return listener

    def retry_after_hint(self, open_jobs: int, workers: int) -> int:
        """Seconds a rejected client should back off before retrying."""
        p50 = self.latency.summary()["p50"]
        if p50 <= 0:
            return 1
        backlog_rounds = max(1, open_jobs) / max(1, workers)
        return max(1, int(p50 * backlog_rounds + 0.5))

    @staticmethod
    def cache_stats() -> dict:
        import repro.harness.diskcache as diskcache
        from repro.obs.runtime import TRACER

        counters = TRACER.counters()
        return {
            "runs_simulated": counters.get("runs_simulated", 0),
            "disk": diskcache.shared_stats(),
        }

    def snapshot(self, queue=None, scheduler=None) -> dict:
        with self._lock:
            counters = dict(self._counters)
            span_histograms = dict(self._span_histograms)
        doc = {
            "uptime_seconds": time.monotonic() - self.started_mono,
            "jobs": {
                "submitted": counters.get("submitted", 0),
                "rejected": counters.get("rejected", 0),
                "completed": counters.get("completed", 0),
                "failed": counters.get("failed", 0),
                "coalesced": counters.get("coalesced", 0),
            },
            "latency_seconds": self.latency.summary(),
            "latency_histogram": self.latency_histogram.summary(),
            "queue_wait_seconds": self.queue_wait.summary(),
            "spans": {
                name: histogram.summary()
                for name, histogram in sorted(span_histograms.items())
            },
            "cache": self.cache_stats(),
        }
        # Worker-pool gauges ride every snapshot, zero-filled when no
        # scheduler (or a stats-less stub) is attached, so the
        # `repro_workers_*` families never disappear between scrapes.
        from repro.service.workers import idle_worker_stats

        stats_fn = getattr(scheduler, "worker_stats", None)
        doc["workers"] = stats_fn() if stats_fn else idle_worker_stats()
        if queue is not None:
            doc["queue"] = queue.stats()
        if scheduler is not None:
            doc["flights_in_flight"] = scheduler.in_flight()
        return doc
