"""End-to-end tests: real sockets, real simulations, real signals."""

import json
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro.harness.diskcache as diskcache
from repro.harness.runner import simulation_report
from repro.obs.runtime import TRACER
from repro.service import ServiceClient, ThreadedServer
from repro.service.client import ServerBusy
from repro.service.errors import InvalidJob, UnknownJob
from repro.workloads.suite import clear_trace_cache

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def tmp_disk_cache(tmp_path):
    """Fresh disk cache root and no kept trace, restored afterwards."""
    diskcache.configure(enabled=True, root=str(tmp_path / "cache"))
    clear_trace_cache()
    yield
    diskcache.configure()
    clear_trace_cache()


@pytest.fixture
def no_disk_cache():
    """Cold everything: every admitted spec must really simulate."""
    diskcache.configure(enabled=False)
    clear_trace_cache()
    yield
    diskcache.configure()
    clear_trace_cache()


def test_submit_poll_metrics_roundtrip(tmp_disk_cache):
    with ThreadedServer(workers=1, queue_depth=4) as server:
        client = ServiceClient(port=server.port)
        assert client.health()["status"] == "ok"

        job = client.submit("KM", scale=0.05)
        assert job["state"] in ("queued", "running")
        done = client.wait(job["id"], timeout=180)
        report = done["result"]
        assert report["benchmark"] == "KM"
        assert report["speedup"] > 0
        assert set(report["coverage"]) == {"host", "mapping", "fabric"}

        # The service answer is the same document the CLI path builds —
        # same caches, same report builder.
        assert report == simulation_report("KM", 0.05)

        listed = client.jobs()
        assert any(item["id"] == job["id"] for item in listed)

        metrics = client.metrics()
        assert metrics["queue"]["capacity"] == 4
        assert metrics["queue"]["open"] == 0
        assert metrics["jobs"]["submitted"] >= 1
        assert metrics["jobs"]["completed"] >= 1
        assert metrics["latency_seconds"]["count"] >= 1
        assert metrics["latency_seconds"]["p99"] >= metrics[
            "latency_seconds"]["p50"] >= 0
        assert "runs_simulated" in metrics["cache"]
        assert metrics["latency_histogram"]["count"] >= 1
        assert metrics["lifecycle"]["fabric_invocations"] == \
            report["fabric_invocations"]

        # Content negotiation: Accept: text/plain flips the same endpoint
        # to Prometheus text exposition; the JSON default is untouched.
        text = client.metrics_text()
        assert "# TYPE repro_jobs_total counter" in text
        assert 'repro_jobs_total{outcome="completed"} 1' in text
        assert 'repro_job_latency_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_queue_capacity 4" in text

        with pytest.raises(UnknownJob):
            client.job("job-does-not-exist")
        with pytest.raises(InvalidJob):
            client.submit("NOPE")
        with pytest.raises(InvalidJob):
            client.submit("KM", scale=-3)


def test_duplicate_burst_coalesces_and_backpressures(no_disk_cache):
    before = TRACER.counters().get("runs_simulated", 0)
    # workers=1 and a multi-second job: the burst lands while the first
    # submission is still simulating.
    with ThreadedServer(workers=1, queue_depth=3) as server:
        client = ServiceClient(port=server.port)
        admitted, busy = [], []
        for _ in range(10):
            try:
                admitted.append(client.submit("SRAD", scale=1.0))
            except ServerBusy as exc:
                busy.append(exc)
        # Admission control: exactly `depth` open jobs, the rest 429.
        assert len(admitted) == 3
        assert len(busy) == 7
        assert all(exc.retry_after >= 1 for exc in busy)

        docs = [client.wait(job["id"], timeout=600) for job in admitted]
        results = [doc["result"] for doc in docs]
        assert results[0] == results[1] == results[2]
        assert sum(doc["coalesced"] for doc in docs) == 2

        metrics = client.metrics()
        assert metrics["jobs"]["coalesced"] == 2
        assert metrics["jobs"]["rejected"] == 7
        assert metrics["jobs"]["completed"] == 3
    # Single-flight: one baseline + one DynaSpAM simulation, total.
    simulated = TRACER.counters().get("runs_simulated", 0) - before
    assert simulated == 2


def test_progress_endpoint_tracks_job_lifecycle(no_disk_cache):
    """The progress endpoint reflects queued -> running -> done, with
    heartbeats while running and monotonic queue-wait/run durations."""
    with ThreadedServer(workers=1, queue_depth=4) as server:
        client = ServiceClient(port=server.port)
        job = client.submit("KM", scale=0.05)

        states, heartbeats = [], []

        def on_progress(doc):
            states.append(doc["state"])
            if doc.get("heartbeat"):
                heartbeats.append(doc["heartbeat"])

        final = client.watch(job["id"], timeout=180,
                             poll_interval=0.01, on_progress=on_progress)
        assert final["state"] == "done"
        assert final["terminal"] is True
        assert final["id"] == job["id"]
        assert final["coalesced"] is False
        assert final["error"] is None
        # The lifecycle arrived in order (polling may skip states but
        # must never see them regress).
        order = {"queued": 0, "running": 1, "done": 2}
        ranks = [order[s] for s in states]
        assert ranks == sorted(ranks)
        assert states[-1] == "done"

        # The terminal heartbeat carries the job's progress and phase.
        beat = final["heartbeat"]
        assert beat["phase"] == "done"
        assert beat["label"] == "job"
        assert beat["done"] == beat["total"] == 1
        assert beat["detail"] == "KM"
        assert any(b.get("phase") in ("dispatched", "done")
                   for b in heartbeats)

        # Monotonic duration math: both waits are present, non-negative,
        # and also live on the full job document.
        assert final["queue_wait_seconds"] >= 0.0
        assert final["run_seconds"] >= 0.0
        doc = client.job(job["id"])
        assert doc["queue_wait_seconds"] == final["queue_wait_seconds"]
        assert doc["run_seconds"] == final["run_seconds"]

        # Span histograms reached /metrics (JSON and Prometheus text).
        metrics = client.metrics()
        spans = metrics["spans"]
        assert spans["service.execute_request"]["count"] >= 1
        assert spans["sim.execute_spec"]["count"] >= 1
        text = client.metrics_text()
        assert ('repro_span_duration_seconds_count'
                '{span="service.execute_request"}') in text
        assert "repro_queue_wait_window_seconds" in text

        with pytest.raises(UnknownJob):
            client.progress("job-does-not-exist")


def test_threaded_stop_drains_inflight_jobs(tmp_disk_cache):
    server = ThreadedServer(workers=1, queue_depth=4)
    server.start()
    try:
        client = ServiceClient(port=server.port)
        client.submit("KM", scale=0.25)
    finally:
        server.stop()  # must block until the admitted job completes
    stats = server.server.queue.stats()
    assert stats["draining"] is True
    assert stats["open"] == 0
    assert stats["done_total"] == 1
    assert stats["failed_total"] == 0


def test_sigterm_drains_and_exits_zero(tmp_path):
    import os

    env = dict(
        os.environ,
        PYTHONPATH=str(REPO_ROOT / "src"),
        REPRO_CACHE_DIR=str(tmp_path / "cache"),
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "1", "--queue-depth", "8"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    try:
        banner = proc.stdout.readline()
        match = re.search(r"http://127\.0\.0\.1:(\d+)", banner)
        assert match, f"no listen banner, got: {banner!r}"
        port = int(match.group(1))

        client = ServiceClient(port=port)
        job = client.submit("KM", scale=0.25)
        assert job["state"] in ("queued", "running")

        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=180)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=30)
    assert proc.returncode == 0, out
    assert "draining" in out
    assert "drained (done=1 failed=0)" in out
