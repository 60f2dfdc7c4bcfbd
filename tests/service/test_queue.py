"""Unit tests for the job model, admission control, and single-flight.

Everything here is socket-free: the queue and flight table are plain
state machines, and the scheduler runs against a stubbed executor so
coalescing and failure paths are exercised deterministically.
"""

import asyncio
import threading
import time

import pytest

from repro.service.errors import Draining, InvalidJob, QueueFull, UnknownJob
from repro.service.jobs import Job, JobRequest, JobState
from repro.service.metrics import ServiceMetrics
from repro.service.queue import JobQueue
from repro.service.scheduler import FlightTable, Scheduler


# ---------------------------------------------------------------------------
# JobRequest validation and identity
# ---------------------------------------------------------------------------
def test_request_canonicalizes_benchmark_case():
    assert JobRequest("km").benchmark == "KM"
    assert JobRequest(" bfs ").benchmark == "BFS"


def test_request_rejects_unknown_benchmark():
    with pytest.raises(InvalidJob, match="unknown benchmark"):
        JobRequest("NOPE")


@pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"),
                                   float("inf"), 17.0, "abc", None])
def test_request_rejects_bad_scale(scale):
    with pytest.raises(InvalidJob):
        JobRequest("KM", scale=scale)


def test_request_rejects_bad_knobs():
    with pytest.raises(InvalidJob, match="mode"):
        JobRequest("KM", mode="warp_speed")
    with pytest.raises(InvalidJob, match="mapper"):
        JobRequest("KM", mapper="psychic")
    with pytest.raises(InvalidJob, match="trace_length"):
        JobRequest("KM", trace_length=0)
    with pytest.raises(InvalidJob, match="fabrics"):
        JobRequest("KM", fabrics=9)
    with pytest.raises(InvalidJob, match="speculation"):
        JobRequest("KM", speculation="yes")


def test_from_payload_rejects_junk():
    with pytest.raises(InvalidJob, match="JSON object"):
        JobRequest.from_payload(["KM"])
    with pytest.raises(InvalidJob, match="missing required"):
        JobRequest.from_payload({"scale": 0.5})
    with pytest.raises(InvalidJob, match="unknown field"):
        JobRequest.from_payload({"benchmark": "KM", "frobnicate": 1})


def test_flight_key_is_cache_identity():
    a = JobRequest("km", scale=0.5)
    b = JobRequest("KM", scale=0.5)
    c = JobRequest("KM", scale=0.5, speculation=False)
    assert a.flight_key == b.flight_key
    assert a.flight_key != c.flight_key
    assert a.flight_key != JobRequest("BFS", scale=0.5).flight_key
    # A decisions run carries an extra report block; it must not share a
    # flight with (or be served from) a plain run's execution.
    assert a.flight_key != JobRequest("km", scale=0.5,
                                      decisions=True).flight_key


def test_decisions_field_is_validated_and_passed_through():
    assert JobRequest("KM").decisions is False
    request = JobRequest.from_payload({"benchmark": "KM", "decisions": True})
    assert request.decisions is True
    assert request.as_dict()["decisions"] is True
    with pytest.raises(InvalidJob, match="decisions"):
        JobRequest("KM", decisions="yes")


# ---------------------------------------------------------------------------
# Queue admission control and transitions
# ---------------------------------------------------------------------------
def _request() -> JobRequest:
    return JobRequest("KM", scale=0.05)


def test_admission_counts_open_jobs():
    queue = JobQueue(depth=2)
    queue.submit(_request())
    queue.submit(_request())
    with pytest.raises(QueueFull):
        queue.submit(_request())

    # Moving jobs to running does NOT free capacity: depth bounds
    # queued + running, the real backpressure contract.
    first, second = queue.next_job(), queue.next_job()
    assert first is not None and second is not None
    assert queue.next_job() is None
    assert queue.queued_count() == 0
    with pytest.raises(QueueFull):
        queue.submit(_request())

    queue.finish(first.id, {"ok": True})
    queue.submit(_request())  # capacity freed by completion


def test_lifecycle_transitions():
    queue = JobQueue(depth=4)
    job = queue.submit(_request())
    assert job.state == JobState.QUEUED
    assert job.started_at is None

    running = queue.next_job()
    assert running is job
    assert job.state == JobState.RUNNING
    assert job.started_at is not None

    queue.finish(job.id, {"speedup": 2.0})
    assert job.state == JobState.DONE
    assert job.result == {"speedup": 2.0}
    assert job.finished_at is not None

    failed = queue.submit(_request())
    queue.next_job()
    queue.fail(failed.id, "boom")
    assert failed.state == JobState.FAILED
    assert failed.error == "boom"


def test_invalid_transitions_and_unknown_ids():
    queue = JobQueue(depth=4)
    job = queue.submit(_request())
    with pytest.raises(ValueError, match="cannot move"):
        queue.finish(job.id, {})  # still queued, never ran
    with pytest.raises(UnknownJob):
        queue.get("job-missing")
    with pytest.raises(UnknownJob):
        queue.finish("job-missing", {})


def test_retention_evicts_oldest_finished():
    queue = JobQueue(depth=8, retention=2)
    finished = []
    for _ in range(4):
        job = queue.submit(_request())
        queue.next_job()
        queue.finish(job.id, {})
        finished.append(job.id)
    assert queue.evicted_total == 2
    for evicted in finished[:2]:
        with pytest.raises(UnknownJob):
            queue.get(evicted)
    for kept in finished[2:]:
        assert queue.get(kept).state == JobState.DONE


def test_closed_queue_drains_but_rejects():
    queue = JobQueue(depth=4)
    job = queue.submit(_request())
    queue.close()
    with pytest.raises(Draining):
        queue.submit(_request())
    # Already-admitted work still drains normally.
    queue.next_job()
    queue.finish(job.id, {})
    assert queue.open_count() == 0


# ---------------------------------------------------------------------------
# Single-flight
# ---------------------------------------------------------------------------
def test_flight_table_lease_and_land():
    table = FlightTable()
    flight, leader = table.lease(("k",))
    assert leader and len(table) == 1
    again, second_leader = table.lease(("k",))
    assert again is flight and not second_leader
    table.land(("k",))
    assert ("k",) not in table
    _, fresh_leader = table.lease(("k",))
    assert fresh_leader


def _drive(coro):
    asyncio.run(coro)


async def _wait_until(predicate, timeout=10.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(0.02)


def test_scheduler_coalesces_identical_inflight_specs():
    async def scenario():
        queue = JobQueue(depth=8)
        metrics = ServiceMetrics()
        release = threading.Event()
        calls = []

        def fake_execute(request):
            calls.append(request)
            release.wait(timeout=10)
            return "ok", {"benchmark": request.benchmark}

        scheduler = Scheduler(queue, metrics, workers=1,
                              execute_fn=fake_execute)
        scheduler.start()
        jobs = [queue.submit(_request()) for _ in range(3)]
        scheduler.wake()

        # All three jobs attach to ONE flight while the executor blocks.
        await _wait_until(lambda: queue.stats()["running"] == 3)
        assert scheduler.worker_stats()["busy"] == 1
        release.set()
        await _wait_until(lambda: queue.open_count() == 0)

        assert len(calls) == 1
        docs = [queue.get(job.id) for job in jobs]
        assert all(doc.state == JobState.DONE for doc in docs)
        assert sum(doc.coalesced for doc in docs) == 2
        assert metrics.counter("coalesced") == 2
        assert metrics.counter("completed") == 3
        assert len(metrics.latency) == 3
        await scheduler.drain()

    _drive(scenario())


def test_scheduler_duplicates_attach_to_an_open_flight():
    """Duplicates that arrive after their leader was dispatched join its
    flight: the scheduler pulls one job at a time, so this is the case
    every coalesced job takes."""
    async def scenario():
        queue = JobQueue(depth=8)
        metrics = ServiceMetrics()
        release = threading.Event()
        calls = []

        def fake_execute(request):
            calls.append(request)
            release.wait(timeout=10)
            return "ok", {"benchmark": request.benchmark}

        scheduler = Scheduler(queue, metrics, workers=1,
                              execute_fn=fake_execute)
        scheduler.start()
        leader = queue.submit(_request())
        scheduler.wake()
        await _wait_until(lambda: len(calls) == 1)
        duplicates = [queue.submit(_request()) for _ in range(2)]
        scheduler.wake()
        await _wait_until(lambda: queue.stats()["running"] == 3)
        assert scheduler.worker_stats()["busy"] == 1
        assert metrics.counter("coalesced") == 2
        release.set()
        await _wait_until(lambda: queue.open_count() == 0)

        assert len(calls) == 1
        assert [queue.get(job.id).coalesced for job in duplicates] == [
            True, True]
        assert not queue.get(leader.id).coalesced
        assert all(queue.get(job.id).state == JobState.DONE
                   for job in [leader, *duplicates])
        await scheduler.drain()

    _drive(scenario())


def test_scheduler_distinct_specs_do_not_coalesce():
    async def scenario():
        queue = JobQueue(depth=8)
        metrics = ServiceMetrics()

        def fake_execute(request):
            return "ok", {"scale": request.scale}

        scheduler = Scheduler(queue, metrics, workers=2,
                              execute_fn=fake_execute)
        scheduler.start()
        a = queue.submit(JobRequest("KM", scale=0.05))
        b = queue.submit(JobRequest("KM", scale=0.10))
        scheduler.wake()
        await _wait_until(lambda: queue.open_count() == 0)
        assert queue.get(a.id).result == {"scale": 0.05}
        assert queue.get(b.id).result == {"scale": 0.10}
        assert metrics.counter("coalesced") == 0
        await scheduler.drain()

    _drive(scenario())


def test_scheduler_failure_marks_jobs_failed_without_crashing():
    async def scenario():
        queue = JobQueue(depth=8)
        metrics = ServiceMetrics()

        def fake_execute(request):
            return "error", "simulated explosion"

        scheduler = Scheduler(queue, metrics, workers=1,
                              execute_fn=fake_execute)
        scheduler.start()
        job = queue.submit(_request())
        scheduler.wake()
        await _wait_until(lambda: queue.open_count() == 0)
        doc = queue.get(job.id)
        assert doc.state == JobState.FAILED
        assert "simulated explosion" in doc.error
        assert metrics.counter("failed") == 1
        await scheduler.drain()

    _drive(scenario())


def test_scheduler_drain_finishes_queued_work():
    async def scenario():
        queue = JobQueue(depth=8)
        metrics = ServiceMetrics()

        def fake_execute(request):
            return "ok", {}

        scheduler = Scheduler(queue, metrics, workers=1,
                              execute_fn=fake_execute)
        scheduler.start()
        jobs = [queue.submit(JobRequest("KM", scale=s))
                for s in (0.05, 0.10, 0.15)]
        queue.close()
        await scheduler.drain()
        assert queue.open_count() == 0
        assert all(queue.get(job.id).state == JobState.DONE for job in jobs)

    _drive(scenario())


def test_scheduler_times_flights_where_they_execute():
    """Only an executing flight is busy and timed: with one worker, two
    0.2 s flights add up to ~0.4 s of batch time, and at most one is
    busy at a time."""
    async def scenario():
        queue = JobQueue(depth=8)
        metrics = ServiceMetrics()

        def fake_execute(request):
            time.sleep(0.2)
            return "ok", {}

        scheduler = Scheduler(queue, metrics, workers=1,
                              execute_fn=fake_execute)
        scheduler.start()
        queue.submit(JobRequest("KM", scale=0.05))
        queue.submit(JobRequest("KM", scale=0.10))
        scheduler.wake()
        await _wait_until(lambda: scheduler.worker_stats()["busy"] == 1)
        busy = []
        while queue.open_count():
            busy.append(scheduler.worker_stats()["busy"])
            await asyncio.sleep(0.01)
        stats = scheduler.worker_stats()
        await scheduler.drain()
        assert busy and max(busy) == 1
        assert stats["busy"] == 0
        assert stats["batch_seconds"]["count"] == 2
        assert 0.39 <= stats["batch_seconds"]["sum"] < 0.55

    _drive(scenario())


def test_scheduler_starts_a_job_only_when_a_worker_is_free():
    """One worker, six distinct 50 ms jobs at once: each waits queued
    for the worker, so its run_seconds is its execution alone and at
    most one job is running at a time."""
    async def scenario():
        queue = JobQueue(depth=8)
        metrics = ServiceMetrics()

        def fake_execute(request):
            time.sleep(0.05)
            return "ok", {}

        scheduler = Scheduler(queue, metrics, workers=1,
                              execute_fn=fake_execute)
        scheduler.start()
        jobs = [queue.submit(JobRequest("KM", scale=0.05 * (i + 1)))
                for i in range(6)]
        scheduler.wake()
        running = []
        while queue.open_count():
            running.append(queue.stats()["running"])
            await asyncio.sleep(0.005)
        await scheduler.drain()
        assert max(running) == 1
        docs = [queue.get(job.id) for job in jobs]
        assert all(doc.state == JobState.DONE for doc in docs)
        for doc in docs:
            assert abs(doc.run_seconds - 0.05) < 0.025, doc.run_seconds
        # The wait for the worker is queue wait: the last job waited
        # for the five before it.
        assert docs[-1].queue_wait_seconds >= 5 * 0.05

    _drive(scenario())


def test_jobs_lists_in_submission_order():
    """``jobs()`` keeps submission order even when the epoch clock steps
    backwards between two submits."""
    queue = JobQueue(depth=4)
    first = queue.submit(_request())
    second = queue.submit(_request())
    second.created_at = first.created_at - 60.0
    assert [job.id for job in queue.jobs()] == [first.id, second.id]


def test_job_doc_shape():
    job = Job(request=_request())
    doc = job.to_doc()
    assert doc["id"].startswith("job-")
    assert doc["state"] == "queued"
    assert doc["request"]["benchmark"] == "KM"
    assert doc["result"] is None
    assert "result" not in job.to_doc(include_result=False)
