"""Tests for the worker-pool abstraction (thread, process, injected)."""

import asyncio

import pytest

import repro.harness.diskcache as diskcache
from repro.harness.runner import clear_run_cache
from repro.obs.runtime import TRACER
from repro.service.jobs import JobRequest
from repro.service.workers import (
    InjectedWorkerPool,
    ProcessWorkerPool,
    default_workers,
    idle_worker_stats,
    make_pool,
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
    assert stats["batches_total"] == 0
    histogram = stats["batch_seconds"]
    assert histogram["count"] == 0
    assert histogram["sum"] == 0.0
    assert histogram["buckets"]  # full bucket array even while idle
    assert all(count == 0 for _, count in histogram["buckets"])


def test_make_pool_rejects_unknown_kind():
    with pytest.raises(ValueError):
        make_pool("carrier-pigeon", 2)


def test_injected_pool_runs_legacy_two_arg_call():
    calls = []

    def fake_execute(requests, sim_jobs):
        calls.append((list(requests), sim_jobs))
        return {request.flight_key: ("ok", {"fake": True})
                for request in requests}

    pool = InjectedWorkerPool(2, fake_execute)
    request = JobRequest(benchmark="KM", scale=0.05)

    async def go():
        return await pool.run_batch([request], 3, {}, on_progress=None)

    try:
        outcomes = asyncio.run(go())
    finally:
        pool.shutdown()
    assert outcomes[request.flight_key] == ("ok", {"fake": True})
    assert calls == [([request], 3)]
    stats = pool.stats()
    assert stats["kind"] == "injected"
    assert stats["total"] == 2
    assert stats["busy"] == 0
    assert stats["batches_total"] == 1
    assert stats["batch_seconds"]["count"] == 1


def test_process_pool_executes_merges_and_reports(tmp_path):
    """A forked worker really simulates, and the parent gets everything
    back: outcomes, final heartbeats, counters, disk stats."""
    diskcache.configure(enabled=True, root=str(tmp_path / "cache"))
    clear_run_cache()
    clear_trace_cache()
    before = TRACER.counters().get("runs_simulated", 0)
    pool = ProcessWorkerPool(1)
    request = JobRequest(benchmark="KM", scale=0.05)
    beats = {}

    async def go():
        return await pool.run_batch(
            [request], 1, {request.flight_key: "job-1"},
            on_progress=lambda key, beat: beats.update({key: beat}),
        )

    try:
        outcomes = asyncio.run(go())
        disk = diskcache.shared_stats()
    finally:
        pool.shutdown()
        diskcache.configure()
        clear_run_cache()
        clear_trace_cache()
    status, report = outcomes[request.flight_key]
    assert status == "ok"
    assert report["benchmark"] == "KM"
    assert report["speedup"] > 0
    # Worker counters merged back into the parent.
    simulated = TRACER.counters().get("runs_simulated", 0) - before
    assert simulated == 2  # baseline + dynaspam
    # The worker's final heartbeat arrived with batch totals.
    beat = beats[request.flight_key]
    assert beat["label"] == "batch"
    assert beat["done"] == beat["total"] == 1
    assert beat["detail"] == "KM"
    # The shared artifact store holds the worker's results.
    assert disk.get("runs", {}).get("writes", 0) >= 2
    stats = pool.stats()
    assert stats["kind"] == "process"
    assert stats["busy"] == 0
    assert stats["batches_total"] == 1
    assert stats["batch_seconds"]["count"] == 1
    assert stats["batch_seconds"]["sum"] > 0
