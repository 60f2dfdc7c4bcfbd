"""Simulation-as-a-service: an async HTTP job layer over the harness.

The service turns the harness's compute substrate
(``repro.harness.runner``'s layered caches and the forked-worker
telemetry envelope of ``repro.harness.parallel``) into a long-lived
server that many clients can share:

* ``jobs``      — the validated job request/record model,
* ``queue``     — bounded admission-controlled job queue (429 on overload),
* ``scheduler`` — pulls queued jobs one at a time, single-flights
  duplicates, and hands each new flight to the worker pool,
* ``workers``   — the forked-process pool (the content-addressed disk
  cache is the shared artifact store),
* ``metrics``   — counters, latency rings, and worker-pool gauges,
* ``server``    — the asyncio HTTP/1.1 front end (stdlib only),
* ``client``    — a small blocking Python client (backoff polling),
* ``loadtest``  — the open-loop arrival-rate generator behind
  ``repro loadtest`` and the CI SLO gate.

Start one with ``python -m repro serve --workers N`` — one event loop
and one flight table in front of N forked workers, the service's one way
to run simulations concurrently — and talk to it with
``python -m repro submit`` or :class:`repro.service.client.ServiceClient`.
"""

from repro.service.errors import (
    Draining,
    InvalidJob,
    QueueFull,
    ServiceError,
    UnknownJob,
)
from repro.service.jobs import Job, JobRequest, JobState
from repro.service.queue import JobQueue
from repro.service.client import JobFailed, ServerBusy, ServiceClient
from repro.service.loadtest import run_loadtest
from repro.service.server import ServiceServer, ThreadedServer
from repro.service.workers import (
    ProcessWorkerPool,
    WorkerPool,
    default_workers,
)

__all__ = [
    "Draining",
    "InvalidJob",
    "Job",
    "JobFailed",
    "JobQueue",
    "JobRequest",
    "JobState",
    "ProcessWorkerPool",
    "QueueFull",
    "ServerBusy",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "ThreadedServer",
    "UnknownJob",
    "WorkerPool",
    "default_workers",
    "run_loadtest",
]
