"""Worker pools: how one dispatched flight turns into simulated cycles.

The scheduler is policy (single-flight dedup, completion bookkeeping,
and at most one open flight per worker); a :class:`WorkerPool` is
mechanism — it owns the executor that runs :func:`execute_request` and
reports its size plus a histogram of each flight's execution time for
``/metrics``.  The contract is one request in, one outcome out:
``("ok", report)`` or ``("error", message)``; ``run`` raises only when
the pool itself is broken.

Two pools implement it:

* :class:`ProcessWorkerPool` (the service's pool) forks one process per
  worker — the paper-scale answer to the GIL.  Each request runs inside
  the telemetry envelope ``repro.harness.parallel`` uses for sweep
  fan-out (``run_worker_batch`` / ``absorb``): the parent gets back the
  worker's spans, span totals, counters and disk-cache stats.  The
  content-addressed disk cache (``REPRO_CACHE_DIR``) is the shared
  artifact store: a result simulated by any worker is a disk hit for
  every other worker, and for every other server pointed at the same
  root.
* :class:`InjectedWorkerPool` is the test seam: a thread executor around
  a test-supplied stand-in for :func:`execute_request`.

``default_workers()`` is ``min(cpu, 8)`` capped by ``REPRO_MAX_JOBS`` —
the same env contract the harness pool honors.
"""

from __future__ import annotations

import asyncio
import functools
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import repro.harness.diskcache as diskcache
from repro.harness.parallel import absorb, max_jobs, run_worker_batch
from repro.obs.runtime import TRACER, worker_telemetry
from repro.service.metrics import LatencyHistogram

#: Hard ceiling on the process-pool default; wider pools thrash the
#: small queue depths the service runs with.
MAX_DEFAULT_WORKERS = 8


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
        "batch_seconds": LatencyHistogram().summary(),
    }


def execute_request(request, job_id: str | None = None) -> tuple[str, object]:
    """Resolve one request: ``("ok", report)`` or ``("error", message)``.

    Every span recorded inside carries ``job_id``/``run_key``
    correlation attrs.  A failure is returned, not raised, so a forked
    worker still ships its telemetry home.
    """
    with TRACER.bind(job_id=job_id, run_key=request.run_key):
        with TRACER.span("service.execute_request",
                         benchmark=request.benchmark):
            try:
                return "ok", request.execute()
            except Exception as exc:  # noqa: BLE001 — the job reports it
                return "error", f"{type(exc).__name__}: {exc}"


class WorkerPool:
    """Common gauges around one executor.

    A flight's ``batch_seconds`` are timed where it executes.  The
    scheduler never hands the pool more flights than it has workers, so
    its executor never queues one; how many workers are busy is the
    scheduler's count of open flights.
    """

    kind = "base"

    def __init__(self, workers: int) -> None:
        self.workers = max(1, int(workers))
        self._batch_seconds = LatencyHistogram()
        self._executor = None

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """``/metrics`` gauges; ``batch_seconds`` holds one sample per
        flight."""
        return {
            "kind": self.kind,
            "total": self.workers,
            "batch_seconds": self._batch_seconds.summary(),
        }

    # ------------------------------------------------------------------
    async def run(self, request, job_id: str | None = None):
        """Execute one request; returns its ``(status, value)`` outcome."""
        raise NotImplementedError

    def shutdown(self, wait: bool = True) -> None:
        self._executor.shutdown(wait=wait)


class InjectedWorkerPool(WorkerPool):
    """Test seam: a thread executor around ``execute_fn(request)``."""

    kind = "injected"

    def __init__(self, workers: int, execute_fn) -> None:
        super().__init__(workers)
        self._fn = execute_fn
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-sim"
        )

    def _timed(self, request) -> tuple:
        started = time.monotonic()
        outcome = self._fn(request)
        return outcome, time.monotonic() - started

    async def run(self, request, job_id: str | None = None):
        loop = asyncio.get_running_loop()
        outcome, seconds = await loop.run_in_executor(
            self._executor, self._timed, request
        )
        self._batch_seconds.observe(seconds)
        return outcome


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

    async def run(self, request, job_id: str | None = None):
        call = functools.partial(
            run_worker_batch,
            functools.partial(execute_request, request, job_id),
            diskcache.is_enabled(), diskcache.configured_root(),
            worker_telemetry(),
        )
        loop = asyncio.get_running_loop()
        try:
            outcome, shipped = await loop.run_in_executor(
                self._executor, call
            )
        except BrokenProcessPool:
            # A dead worker (OOM, segfault) poisons the whole executor;
            # rebuild so the next dispatch gets a live pool, then let
            # the scheduler fail this flight.
            self._executor.shutdown(wait=False)
            self._executor = self._make_executor()
            raise
        absorb(shipped)
        self._batch_seconds.observe(shipped["seconds"])
        return outcome
