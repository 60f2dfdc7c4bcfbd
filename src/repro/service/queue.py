"""Bounded job queue with admission control and finished-job retention.

The queue is the service's only growth point, so every dimension is
capped: ``depth`` bounds *open* jobs (queued + running — real
backpressure, not just a waiting-room limit) and ``retention`` bounds
how many terminal jobs stay queryable before the oldest are evicted.
Memory is therefore O(depth + retention) no matter how hard clients
hammer the server.

The class is a plain synchronized state machine — no sockets, no
asyncio — so the admission/transition logic is unit-testable on its
own; the server wraps it with an event loop and wakes the scheduler
after each successful submit.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.service.errors import Draining, QueueFull, UnknownJob
from repro.service.jobs import Job, JobRequest, JobState


class JobQueue:
    """Admission-controlled FIFO of jobs with bounded retention."""

    def __init__(self, depth: int = 64, retention: int = 256) -> None:
        if depth < 1:
            raise ValueError("queue depth must be >= 1")
        if retention < 1:
            raise ValueError("retention must be >= 1")
        self.depth = depth
        self.retention = retention
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._pending: deque[str] = deque()
        self._running: set[str] = set()
        self._finished: deque[str] = deque()
        self._closed = False
        #: Finished jobs dropped past ``retention`` (a monotonic total).
        self.evicted_total = 0

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(self, request: JobRequest) -> Job:
        """Admit a new job or raise :class:`QueueFull`/:class:`Draining`."""
        with self._lock:
            if self._closed:
                raise Draining("server is draining; not accepting new jobs")
            open_jobs = len(self._pending) + len(self._running)
            if open_jobs >= self.depth:
                raise QueueFull(
                    f"queue full: {open_jobs} open jobs (depth {self.depth})"
                )
            job = Job(request=request)
            self._jobs[job.id] = job
            self._pending.append(job.id)
            return job

    def close(self) -> None:
        """Stop admitting; already-open jobs keep draining."""
        with self._lock:
            self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # Scheduler side
    # ------------------------------------------------------------------
    def next_job(self, admit=None) -> Job | None:
        """Pop the oldest queued job that ``admit(job)`` accepts (any job
        without ``admit``), transitioning it to running."""
        with self._lock:
            for job_id in self._pending:
                job = self._jobs[job_id]
                if admit is None or admit(job):
                    break
            else:
                return None
            self._pending.remove(job_id)
            job.state = JobState.RUNNING
            job.started_at = time.time()
            job.started_mono = time.monotonic()
            self._running.add(job.id)
        return job

    def finish(self, job_id: str, result: dict) -> Job:
        return self._complete(job_id, JobState.DONE, result=result)

    def fail(self, job_id: str, error: str) -> Job:
        return self._complete(job_id, JobState.FAILED, error=error)

    def _complete(self, job_id: str, state: str, result: dict | None = None,
                  error: str | None = None) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise UnknownJob(f"no such job: {job_id}")
            if job.state != JobState.RUNNING:
                raise ValueError(
                    f"job {job_id} is {job.state}, cannot move to {state}"
                )
            self._running.discard(job_id)
            job.state = state
            job.result = result
            job.error = error
            job.finished_at = time.time()
            job.finished_mono = time.monotonic()
            self._finished.append(job_id)
            while len(self._finished) > self.retention:
                evicted = self._finished.popleft()
                self._jobs.pop(evicted, None)
                self.evicted_total += 1
            return job

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJob(f"no such job: {job_id}")
        return job

    def jobs(self) -> list[Job]:
        """All retained jobs in submission order (the dict's insertion
        order; an epoch ``created_at`` can step backwards)."""
        with self._lock:
            return list(self._jobs.values())

    def queued_count(self) -> int:
        with self._lock:
            return len(self._pending)

    def open_count(self) -> int:
        with self._lock:
            return len(self._pending) + len(self._running)

    def stats(self) -> dict:
        with self._lock:
            return {
                "capacity": self.depth,
                "queued": len(self._pending),
                "running": len(self._running),
                "open": len(self._pending) + len(self._running),
                "retained": len(self._jobs),
                "evicted_total": self.evicted_total,
                "draining": self._closed,
            }
