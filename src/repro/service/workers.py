"""Worker pools: how a scheduler batch turns into simulated cycles.

The scheduler is policy (batching, single-flight dedup, completion
bookkeeping); a :class:`WorkerPool` is mechanism — it owns the executor
that actually runs ``execute_batch`` and reports busy/total gauges plus
a batch-duration histogram for ``/metrics``.

Three pools implement the same ``run_batch`` contract:

* :class:`ProcessWorkerPool` (the default) forks one process per worker
  — the paper-scale answer to the GIL.  Each batch runs inside the
  telemetry envelope ``repro.harness.parallel`` uses for sweep fan-out
  (``run_worker_batch`` / ``absorb``): the parent gets back the
  worker's spans, span totals, counters and disk-cache stats, plus the
  final progress heartbeats.  The
  content-addressed disk cache (``REPRO_CACHE_DIR``) is the shared
  artifact store: a result simulated by any worker is a disk hit for
  every other worker — and for every other replica pointed at the same
  root.
* :class:`ThreadWorkerPool` keeps the original in-process thread
  executor (zero fork overhead, live mid-batch heartbeats; throughput
  capped by the GIL).
* :class:`InjectedWorkerPool` wraps a test-supplied ``execute_batch_fn``
  with the legacy two-argument call signature.

``default_workers()`` is ``min(cpu, 8)`` capped by ``REPRO_MAX_JOBS`` —
the same env contract the harness pool honors.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import repro.harness.diskcache as diskcache
from repro.harness.parallel import absorb, max_jobs, run_worker_batch
from repro.obs.runtime import worker_telemetry
from repro.service.metrics import LatencyHistogram

#: Hard ceiling on the process-pool default; wider pools thrash the
#: small queue depths the service runs with.
MAX_DEFAULT_WORKERS = 8

POOL_KINDS = ("process", "thread")


def default_workers() -> int:
    """Default pool width: ``min(cpu, 8)``, capped by ``REPRO_MAX_JOBS``."""
    workers = min(os.cpu_count() or 1, MAX_DEFAULT_WORKERS)
    cap = max_jobs()
    if cap is not None:
        workers = min(workers, cap)
    return max(1, workers)


def idle_worker_stats(kind: str = "none") -> dict:
    """The zero-filled stats shape (gauges must exist while idle)."""
    return {
        "kind": kind,
        "total": 0,
        "busy": 0,
        "batches_total": 0,
        "batch_seconds": LatencyHistogram().summary(),
    }


def _process_batch(
    requests: list,
    sim_jobs: int,
    job_ids: dict,
    cache_enabled: bool,
    cache_root: str | None,
    telemetry: dict | None,
) -> tuple[tuple[dict, dict], dict]:
    """One scheduler batch inside a forked worker process.

    Returns ``((outcomes, heartbeats), telemetry)`` from the shared
    worker envelope.  Heartbeats cannot stream across the process
    boundary mid-batch, so the worker records the last beat per flight
    and the parent applies them at completion.
    """
    from repro.service.scheduler import execute_batch

    def batch() -> tuple[dict, dict]:
        beats: dict = {}
        outcomes = execute_batch(
            requests, sim_jobs, progress_cb=beats.__setitem__,
            job_ids=job_ids,
        )
        return outcomes, beats

    return run_worker_batch(batch, cache_enabled, cache_root, telemetry)


class WorkerPool:
    """Common gauges + batch accounting; subclasses supply the executor."""

    kind = "base"

    def __init__(self, workers: int) -> None:
        self.workers = max(1, int(workers))
        self._lock = threading.Lock()
        self._busy = 0
        self._batches_total = 0
        self._batch_seconds = LatencyHistogram()

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def _track(self):
        with self._lock:
            self._busy += 1
        started = time.monotonic()
        try:
            yield
        finally:
            elapsed = time.monotonic() - started
            with self._lock:
                self._busy -= 1
                self._batches_total += 1
            self._batch_seconds.observe(elapsed)

    def stats(self) -> dict:
        with self._lock:
            busy = self._busy
            batches = self._batches_total
        return {
            "kind": self.kind,
            "total": self.workers,
            "busy": busy,
            "batches_total": batches,
            "batch_seconds": self._batch_seconds.summary(),
        }

    # ------------------------------------------------------------------
    async def run_batch(
        self, requests: list, sim_jobs: int, job_ids: dict, on_progress=None
    ) -> dict:
        """Execute one deduplicated batch; returns the outcome map."""
        raise NotImplementedError

    def shutdown(self, wait: bool = True) -> None:
        raise NotImplementedError


class ThreadWorkerPool(WorkerPool):
    """The original in-process executor (GIL-bound, live heartbeats)."""

    kind = "thread"

    def __init__(self, workers: int) -> None:
        super().__init__(workers)
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-sim"
        )

    async def run_batch(
        self, requests, sim_jobs, job_ids, on_progress=None
    ) -> dict:
        from repro.service.scheduler import execute_batch

        call = functools.partial(
            execute_batch, requests, sim_jobs,
            progress_cb=on_progress, job_ids=job_ids,
        )
        loop = asyncio.get_running_loop()
        with self._track():
            return await loop.run_in_executor(self._executor, call)

    def shutdown(self, wait: bool = True) -> None:
        self._executor.shutdown(wait=wait)


class InjectedWorkerPool(WorkerPool):
    """Test seam: a thread executor around ``execute_batch_fn`` with the
    legacy two-argument call (no progress/correlation plumbing)."""

    kind = "injected"

    def __init__(self, workers: int, execute_batch_fn) -> None:
        super().__init__(workers)
        self._fn = execute_batch_fn
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-sim"
        )

    async def run_batch(
        self, requests, sim_jobs, job_ids, on_progress=None
    ) -> dict:
        call = functools.partial(self._fn, requests, sim_jobs)
        loop = asyncio.get_running_loop()
        with self._track():
            return await loop.run_in_executor(self._executor, call)

    def shutdown(self, wait: bool = True) -> None:
        self._executor.shutdown(wait=wait)


class ProcessWorkerPool(WorkerPool):
    """Forked workers: one core of simulation per worker, no GIL cap."""

    kind = "process"

    def __init__(self, workers: int) -> None:
        super().__init__(workers)
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            self._context = multiprocessing.get_context()
        self._executor = self._make_executor()
        self._warm_fork()

    def _make_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers, mp_context=self._context
        )

    def _warm_fork(self) -> None:
        # Fork the worker processes now, while the calling thread owns
        # no harness locks, instead of lazily mid-request.
        try:
            futures = [
                self._executor.submit(os.getpid) for _ in range(self.workers)
            ]
            for future in futures:
                future.result(timeout=60)
        except Exception:  # pragma: no cover - warmup is best-effort
            pass

    async def run_batch(
        self, requests, sim_jobs, job_ids, on_progress=None
    ) -> dict:
        call = functools.partial(
            _process_batch, requests, sim_jobs, job_ids,
            diskcache.is_enabled(), diskcache.configured_root(),
            worker_telemetry(),
        )
        loop = asyncio.get_running_loop()
        with self._track():
            try:
                (outcomes, beats), shipped = await loop.run_in_executor(
                    self._executor, call
                )
            except BrokenProcessPool:
                # A dead worker (OOM, segfault) poisons the whole
                # executor; rebuild so the next batch gets a live pool,
                # then let the scheduler fail this batch's flights.
                self._executor.shutdown(wait=False)
                self._executor = self._make_executor()
                raise
        absorb(shipped)
        if on_progress is not None:
            for key, beat in beats.items():
                on_progress(key, beat)
        return outcomes

    def shutdown(self, wait: bool = True) -> None:
        self._executor.shutdown(wait=wait)


def make_pool(kind: str, workers: int) -> WorkerPool:
    """Build a pool by name (the ``repro serve --pool`` values)."""
    if kind == "process":
        return ProcessWorkerPool(workers)
    if kind == "thread":
        return ThreadWorkerPool(workers)
    raise ValueError(
        f"unknown worker pool kind {kind!r}; expected one of {POOL_KINDS}"
    )
