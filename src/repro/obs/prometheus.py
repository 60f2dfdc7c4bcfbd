"""Prometheus text exposition (format 0.0.4) for the service snapshot.

Pure renderer: takes the JSON snapshot dict ``ServiceMetrics.snapshot``
already produces and lays it out as ``# HELP``/``# TYPE``-annotated
families.  Keeping it here (not in ``repro.service``) means anything that
has a snapshot-shaped dict — tests, offline tooling — can render it
without a running server.

Exposed families::

    repro_uptime_seconds                  gauge
    repro_jobs_total{outcome=...}         counter
    repro_queue_jobs{state=...}           gauge
    repro_queue_capacity                  gauge
    repro_queue_draining                  gauge (0/1)
    repro_workers_total                   gauge (pool size)
    repro_workers_busy                    gauge (open flights)
    repro_worker_batch_seconds            histogram (+ _sum, _count)
    repro_job_latency_seconds             histogram (+ _sum, _count)
    repro_job_latency_window_seconds{q=}  gauge (ring percentiles)
    repro_queue_wait_window_seconds{q=}   gauge (submit-to-start wait)
    repro_span_duration_seconds{span=}    histogram (host wall-clock spans)
    repro_cache_hits_total{layer=...}     counter
    repro_runs_simulated_total            counter

Every family describes the service itself.  Simulated numbers (cycles,
trace fates, fabric occupancy) stay in each job's report, where one
run's counts are never summed with another's.
"""

from __future__ import annotations

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _fmt(value) -> str:
    if value is None:
        return "0"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        if value != value:  # NaN
            return "NaN"
        if value in (float("inf"), float("-inf")):
            return "+Inf" if value > 0 else "-Inf"
        return repr(value)
    return str(value)


class _Writer:
    def __init__(self) -> None:
        self.lines: list[str] = []

    def family(self, name: str, kind: str, help_text: str) -> None:
        self.lines.append(f"# HELP {name} {help_text}")
        self.lines.append(f"# TYPE {name} {kind}")

    def sample(self, name: str, value, labels: dict | None = None) -> None:
        label_str = ""
        if labels:
            inner = ",".join(
                f'{key}="{_escape(str(val))}"'
                for key, val in labels.items()
            )
            label_str = "{" + inner + "}"
        self.lines.append(f"{name}{label_str} {_fmt(value)}")

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def render_prometheus(snapshot: dict) -> str:
    """Render a ``ServiceMetrics.snapshot`` dict as text exposition 0.0.4."""
    w = _Writer()

    w.family("repro_uptime_seconds", "gauge",
             "Seconds since the service started.")
    w.sample("repro_uptime_seconds", snapshot.get("uptime_seconds", 0.0))

    jobs = snapshot.get("jobs", {})
    w.family("repro_jobs_total", "counter",
             "Jobs by terminal/admission outcome.")
    for outcome in ("submitted", "rejected", "completed", "failed",
                    "coalesced"):
        w.sample("repro_jobs_total", jobs.get(outcome, 0),
                 {"outcome": outcome})

    queue = snapshot.get("queue", {})
    w.family("repro_queue_jobs", "gauge", "Jobs by queue state.")
    for state in ("queued", "running", "open", "retained"):
        w.sample("repro_queue_jobs", queue.get(state, 0), {"state": state})
    w.family("repro_queue_capacity", "gauge",
             "Admission limit on open (queued + running) jobs.")
    w.sample("repro_queue_capacity", queue.get("capacity", 0))
    w.family("repro_queue_draining", "gauge",
             "1 while the queue refuses new jobs during shutdown.")
    w.sample("repro_queue_draining", queue.get("draining", False))

    workers = snapshot.get("workers", {})
    w.family("repro_workers_total", "gauge",
             "Configured simulation workers in the pool.")
    w.sample("repro_workers_total", workers.get("total", 0))
    w.family("repro_workers_busy", "gauge",
             "Workers executing a flight: the open flights, at most "
             "one per worker.")
    w.sample("repro_workers_busy", workers.get("busy", 0))
    batch_hist = workers.get("batch_seconds") or {}
    w.family("repro_worker_batch_seconds", "histogram",
             "Wall-clock seconds each flight executed in a worker, "
             "queue wait excluded (zero-filled while the pool is idle).")
    cumulative = 0
    for upper, count in batch_hist.get("buckets", []):
        cumulative += count
        le = "+Inf" if upper is None else _fmt(float(upper))
        w.sample("repro_worker_batch_seconds_bucket", cumulative, {"le": le})
    if not batch_hist.get("buckets"):
        w.sample("repro_worker_batch_seconds_bucket", 0, {"le": "+Inf"})
    w.sample("repro_worker_batch_seconds_sum", batch_hist.get("sum", 0.0))
    w.sample("repro_worker_batch_seconds_count", batch_hist.get("count", 0))

    histogram = snapshot.get("latency_histogram")
    if histogram:
        w.family("repro_job_latency_seconds", "histogram",
                 "Submit-to-completion job latency.")
        cumulative = 0
        for upper, count in histogram.get("buckets", []):
            cumulative += count
            le = "+Inf" if upper is None else _fmt(float(upper))
            w.sample("repro_job_latency_seconds_bucket", cumulative,
                     {"le": le})
        w.sample("repro_job_latency_seconds_sum", histogram.get("sum", 0.0))
        w.sample("repro_job_latency_seconds_count",
                 histogram.get("count", 0))

    window = snapshot.get("latency_seconds", {})
    w.family("repro_job_latency_window_seconds", "gauge",
             "Exact percentiles over the bounded latency ring.")
    for quantile in ("p50", "p90", "p99", "max"):
        w.sample("repro_job_latency_window_seconds",
                 window.get(quantile, 0.0), {"q": quantile})

    wait = snapshot.get("queue_wait_seconds", {})
    w.family("repro_queue_wait_window_seconds", "gauge",
             "Exact submit-to-start wait percentiles (monotonic clock) "
             "over the bounded ring.")
    for quantile in ("p50", "p90", "p99", "max"):
        w.sample("repro_queue_wait_window_seconds",
                 wait.get(quantile, 0.0), {"q": quantile})

    spans = snapshot.get("spans", {})
    if spans:
        w.family("repro_span_duration_seconds", "histogram",
                 "Host-runtime wall-clock span durations by span name "
                 "(repro.obs.runtime taxonomy).")
        for name in sorted(spans):
            histogram = spans[name] or {}
            cumulative = 0
            for upper, count in histogram.get("buckets", []):
                cumulative += count
                le = "+Inf" if upper is None else _fmt(float(upper))
                w.sample("repro_span_duration_seconds_bucket", cumulative,
                         {"span": name, "le": le})
            w.sample("repro_span_duration_seconds_sum",
                     histogram.get("sum", 0.0), {"span": name})
            w.sample("repro_span_duration_seconds_count",
                     histogram.get("count", 0), {"span": name})

    cache = snapshot.get("cache", {})
    w.family("repro_cache_hits_total", "counter",
             "Run-cache hits by layer (the content-addressed disk cache).")
    disk_hits = sum(
        ns.get("hits", 0) for ns in cache.get("disk", {}).values()
    )
    w.sample("repro_cache_hits_total", disk_hits, {"layer": "disk"})
    w.family("repro_runs_simulated_total", "counter",
             "Runs resolved by fresh simulation (cache misses).")
    w.sample("repro_runs_simulated_total", cache.get("runs_simulated", 0))

    return w.render()
