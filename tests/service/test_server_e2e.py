"""End-to-end tests: real sockets, real simulations, real signals."""

import http.client
import json
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro.harness.diskcache as diskcache
from repro.__main__ import main
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


def test_wait_reports_job_lifecycle(no_disk_cache):
    """``wait(on_change=...)`` sees queued -> running -> done in order,
    once per state, with monotonic queue-wait/run durations."""
    with ThreadedServer(workers=1, queue_depth=4) as server:
        client = ServiceClient(port=server.port)
        job = client.submit("KM", scale=0.05)

        states = []
        final = client.wait(
            job["id"], timeout=180, poll_interval=0.01,
            on_change=lambda doc: states.append(doc["state"]),
        )
        assert final["state"] == "done"
        assert final["id"] == job["id"]
        assert final["coalesced"] is False
        assert final["error"] is None
        assert final["result"]["benchmark"] == "KM"
        # The lifecycle arrived in order (polling may skip states but
        # must never see them regress), one callback per state.
        order = {"queued": 0, "running": 1, "done": 2}
        ranks = [order[s] for s in states]
        assert ranks == sorted(ranks)
        assert len(set(states)) == len(states)
        assert states[-1] == "done"

        # Monotonic duration math: both waits are present, non-negative.
        assert final["queue_wait_seconds"] >= 0.0
        assert final["run_seconds"] >= 0.0

        # Span histograms reached /metrics (JSON and Prometheus text).
        metrics = client.metrics()
        spans = metrics["spans"]
        assert spans["service.execute_request"]["count"] >= 1
        assert spans["sim.execute_spec"]["count"] >= 1
        text = client.metrics_text()
        assert ('repro_span_duration_seconds_count'
                '{span="service.execute_request"}') in text
        assert "repro_queue_wait_window_seconds" in text


def test_progress_path_is_not_an_endpoint():
    with ThreadedServer(workers=1, queue_depth=4) as server:
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=30)
        try:
            conn.request("GET", "/v1/jobs/job-x/progress")
            response = conn.getresponse()
            body = json.loads(response.read())
        finally:
            conn.close()
    assert response.status == 404
    assert body["error"]["message"].startswith("no such endpoint")


def test_watch_prints_state_lines_and_the_final_document(
        tmp_disk_cache, capsys):
    with ThreadedServer(workers=1, queue_depth=4) as server:
        port = str(server.port)
        job = ServiceClient(port=server.port).submit("KM", scale=0.05)
        assert main(["watch", job["id"], "--port", port,
                     "--interval", "0.01"]) == 0
        out, err = capsys.readouterr()
        assert main(["watch", "job-nope", "--port", port]) == 2
    doc = json.loads(out)
    assert doc["id"] == job["id"]
    assert doc["state"] == "done"
    assert doc["result"]["benchmark"] == "KM"
    lines = [line.split() for line in err.splitlines()]
    order = {"queued": 0, "running": 1, "done": 2}
    assert all(benchmark == "KM" for _, benchmark in lines)
    ranks = [order[state] for state, _ in lines]
    assert ranks == sorted(ranks) and lines[-1][0] == "done"


def test_server_keeps_no_worker_span_records(no_disk_cache):
    """Worker spans feed the span listeners (``/metrics``, the JSONL
    log) but never pile up in the server's own record buffer."""
    with ThreadedServer(workers=1, queue_depth=4) as server:
        client = ServiceClient(port=server.port)
        jobs = [client.submit(name, scale=0.05) for name in ("KM", "BFS")]
        for job in jobs:
            client.wait(job["id"], timeout=180)
        spans = client.metrics()["spans"]
    assert spans["service.execute_request"]["count"] >= 2
    assert not [record for record in TRACER.records()
                if record.process.startswith("worker-")]


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
