"""Tests for the worker pools (process, injected) and their contract."""

import asyncio

import pytest

import repro.harness.diskcache as diskcache
from repro.obs.runtime import TRACER
from repro.service.jobs import JobRequest
from repro.service.server import ServiceServer
from repro.service.workers import (
    InjectedWorkerPool,
    ProcessWorkerPool,
    default_workers,
    idle_worker_stats,
)
from repro.workloads.suite import clear_trace_cache


def test_default_workers_caps_at_eight_and_honors_max_jobs(monkeypatch):
    monkeypatch.delenv("REPRO_MAX_JOBS", raising=False)
    assert 1 <= default_workers() <= 8
    monkeypatch.setenv("REPRO_MAX_JOBS", "1")
    assert default_workers() == 1
    monkeypatch.setenv("REPRO_MAX_JOBS", "999")
    assert default_workers() <= 8


def test_idle_worker_stats_zero_filled():
    stats = idle_worker_stats()
    assert stats["total"] == 0
    assert stats["busy"] == 0
    histogram = stats["batch_seconds"]
    assert histogram["count"] == 0
    assert histogram["sum"] == 0.0
    assert histogram["buckets"]  # full bucket array even while idle
    assert all(count == 0 for _, count in histogram["buckets"])


def test_server_rejects_pool_other_than_process():
    for pool in ("thread", "carrier-pigeon", None):
        with pytest.raises(ValueError, match="only pool is 'process'"):
            ServiceServer(port=0, pool=pool)


def test_injected_pool_runs_one_request():
    calls = []

    def fake_execute(request):
        calls.append(request)
        return "ok", {"fake": True}

    pool = InjectedWorkerPool(2, fake_execute)
    request = JobRequest(benchmark="KM", scale=0.05)

    try:
        outcome = asyncio.run(pool.run(request, "job-1"))
    finally:
        pool.shutdown()
    assert outcome == ("ok", {"fake": True})
    assert calls == [request]
    stats = pool.stats()
    assert stats["kind"] == "injected"
    assert stats["total"] == 2
    assert stats["batch_seconds"]["count"] == 1


def test_process_pool_executes_merges_and_reports(tmp_path):
    """A forked worker really simulates, and the parent gets everything
    back: the outcome, counters, disk stats."""
    diskcache.configure(enabled=True, root=str(tmp_path / "cache"))
    clear_trace_cache()
    before = TRACER.counters().get("runs_simulated", 0)
    pool = ProcessWorkerPool(1)
    request = JobRequest(benchmark="KM", scale=0.05)

    try:
        status, report = asyncio.run(pool.run(request, "job-1"))
        disk = diskcache.shared_stats()
    finally:
        pool.shutdown()
        diskcache.configure()
        clear_trace_cache()
    assert status == "ok"
    assert report["benchmark"] == "KM"
    assert report["speedup"] > 0
    # Worker counters merged back into the parent.
    simulated = TRACER.counters().get("runs_simulated", 0) - before
    assert simulated == 2  # baseline + dynaspam
    # The shared artifact store holds the worker's results.
    assert disk.get("runs", {}).get("writes", 0) >= 2
    stats = pool.stats()
    assert stats["kind"] == "process"
    assert stats["batch_seconds"]["count"] == 1
    assert stats["batch_seconds"]["sum"] > 0
