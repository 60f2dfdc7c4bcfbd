"""Dispatch scheduler: queue -> single-flight dedup -> worker pool.

The dispatch loop pulls one queued job at a time.  A job whose
``flight_key`` matches an open flight attaches to it at once
(single-flight: the duplicate never simulates).  Any other job opens a
new flight, which goes to the :class:`repro.service.workers.WorkerPool`
as its own task, but only while fewer flights are open than the pool
has workers; until one lands, it stays queued.  So every open flight
has a worker: a job is ``running`` only while a worker runs it, its
``run_seconds`` are execution time, its wait for a free worker is in
``queue_wait_seconds``, and ``busy`` is the number of open flights.
The scheduler batches nothing; batching bought nothing either, since
under the loadtest mixes and hostbench's service traffic each pull
found exactly one queued job.  Each flight carries its own outcome, so
one failed request never touches another.

Repeat requests short-circuit in the worker: the shared on-disk run
cache serves them without re-simulating (with it off, a repeat that
did not coalesce simulates again).

Everything that mutates queue/flight state runs on the event loop
thread; pool workers only execute pure simulation code.  That keeps
the state machine race-free without fine-grained locking.
"""

from __future__ import annotations

import asyncio
import time

from repro.service.jobs import Job
from repro.service.metrics import ServiceMetrics
from repro.service.queue import JobQueue
from repro.service.workers import (
    InjectedWorkerPool,
    ProcessWorkerPool,
    WorkerPool,
    default_workers,
)


class Flight:
    """One in-flight execution shared by every job with the same key."""

    def __init__(self, key: tuple) -> None:
        self.key = key
        self.jobs: list[Job] = []


class FlightTable:
    """Single-flight registry keyed by ``JobRequest.flight_key``."""

    def __init__(self) -> None:
        self._flights: dict[tuple, Flight] = {}

    def lease(self, key: tuple) -> tuple[Flight, bool]:
        """The flight for ``key`` plus whether the caller is its leader."""
        flight = self._flights.get(key)
        if flight is not None:
            return flight, False
        flight = Flight(key)
        self._flights[key] = flight
        return flight, True

    def land(self, key: tuple) -> None:
        self._flights.pop(key, None)

    def __len__(self) -> int:
        return len(self._flights)

    def __contains__(self, key: tuple) -> bool:
        return key in self._flights


class Scheduler:
    """Owns the dispatch loop, the flight table, and the worker pool."""

    def __init__(
        self,
        queue: JobQueue,
        metrics: ServiceMetrics,
        *,
        workers: int | None = None,
        execute_fn=None,
    ) -> None:
        self.queue = queue
        self.metrics = metrics
        self.workers = max(1, workers) if workers else default_workers()
        #: ``execute_fn`` (tests) stands in for ``execute_request`` on a
        #: thread pool; otherwise flights run in forked workers.
        if execute_fn is not None:
            self.pool: WorkerPool = InjectedWorkerPool(
                self.workers, execute_fn
            )
        else:
            self.pool = ProcessWorkerPool(self.workers)
        self.flights = FlightTable()
        self._wakeup = asyncio.Event()
        self._tasks: set[asyncio.Task] = set()
        self._draining = False
        self._loop_task: asyncio.Task | None = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._loop_task = asyncio.get_running_loop().create_task(self._run())

    def wake(self) -> None:
        self._wakeup.set()

    def worker_stats(self) -> dict:
        """Pool gauges for ``/metrics`` (kind, busy/total, flight times);
        each open flight has a worker, so they are the busy count."""
        return {**self.pool.stats(), "busy": len(self.flights)}

    async def drain(self) -> None:
        """Stop dispatching new work once the queue and flights are empty."""
        self._draining = True
        self.wake()
        if self._loop_task is not None:
            await self._loop_task
        self.pool.shutdown(wait=True)

    # ------------------------------------------------------------------
    async def _run(self) -> None:
        while True:
            job = self.queue.next_job(self._admits)
            if job is not None:
                self._dispatch(job)
                continue
            if self._draining and self.queue.queued_count() == 0:
                if self._tasks:
                    await asyncio.wait(set(self._tasks))
                    continue
                break
            self._wakeup.clear()
            try:
                await asyncio.wait_for(self._wakeup.wait(), timeout=0.1)
            except asyncio.TimeoutError:
                pass

    def _admits(self, job: Job) -> bool:
        """Whether ``job`` can start now: it joins an open flight, or a
        worker is free for a new one."""
        return (len(self.flights) < self.workers
                or job.request.flight_key in self.flights)

    def _dispatch(self, job: Job) -> None:
        flight, leader = self.flights.lease(job.request.flight_key)
        flight.jobs.append(job)
        if not leader:
            job.coalesced = True
            self.metrics.bump("coalesced")
            return
        task = asyncio.get_running_loop().create_task(self._run_flight(flight))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _run_flight(self, flight: Flight) -> None:
        leader = flight.jobs[0]
        try:
            status, value = await self.pool.run(leader.request, leader.id)
        except Exception as exc:  # pool broken / executor-level failure
            status, value = "error", f"{type(exc).__name__}: {exc}"
        # Land before completing so a post-completion duplicate starts a
        # fresh flight (and is then served by the caches).
        self.flights.land(flight.key)
        now = time.monotonic()
        for job in flight.jobs:
            if status == "ok":
                self.queue.finish(job.id, value)
                self.metrics.bump("completed")
            else:
                self.queue.fail(job.id, str(value))
                self.metrics.bump("failed")
            # Monotonic end-to-end latency: wall-clock deltas would
            # absorb any clock step between submit and finish.
            self.metrics.observe_latency(now - job.created_mono)
            wait = job.queue_wait_seconds
            if wait is not None:
                self.metrics.observe_queue_wait(wait)
        self.wake()
