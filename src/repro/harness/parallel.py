"""Sweep execution: resolve a set of runs, fanning misses out over processes.

Every experiment sweep is embarrassingly parallel across ``RunSpec``s.
``execute_runs`` is the one entry point for a set of specs: it probes the
disk cache once per unique spec, groups the remaining work by
``(benchmark, scale)``, and runs the groups in-process or over a
``ProcessPoolExecutor``, writing each simulated result to the disk cache.
Either way a kernel's runs execute back to back, so the one trace
``repro.workloads.generate_trace`` keeps is generated once per group.
Traces never cross the process boundary: trace generation is
deterministic, so a worker regenerates exactly the trace the parent
would.  Serial and parallel execution produce bit-identical results: a
run never depends on any other run.

Both fork pools — this sweep fan-out and the service's
``ProcessWorkerPool`` — carry worker telemetry home through one
envelope: :func:`run_worker_batch` in the child, :func:`absorb` in the
parent.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Any, Callable, Iterable

import repro.harness.diskcache as diskcache
# Called through the module, so that a wrapper installed on
# ``runner.execute_spec`` (hostbench's traced mode) times every simulation.
import repro.harness.runner as runner
from repro.harness.runner import RunKey, RunSpec
from repro.obs import progress
from repro.obs.runtime import TRACER, begin_worker, worker_telemetry


#: Hard cap on worker processes (overrides the CI clamp and the CLI).
ENV_MAX_JOBS = "REPRO_MAX_JOBS"

#: Small CI runners advertise many cores but can't feed them; fanning a
#: process pool that wide just thrashes.  Clamp the *default* there.
CI_JOBS_CLAMP = 8


def max_jobs() -> int | None:
    """The ``REPRO_MAX_JOBS`` cap, or ``None`` when unset/invalid."""
    raw = os.environ.get(ENV_MAX_JOBS)
    if not raw:
        return None
    try:
        return max(1, int(raw))
    except ValueError:
        return None


def default_jobs() -> int:
    """Worker-count default: cpu count, clamped to 8 in CI environments.

    ``REPRO_MAX_JOBS`` overrides both the cpu count and the CI clamp.
    """
    jobs = os.cpu_count() or 1
    if os.environ.get("CI"):
        jobs = min(jobs, CI_JOBS_CLAMP)
    cap = max_jobs()
    if cap is not None:
        jobs = min(jobs, cap)
    return jobs


def _instructions(result) -> int:
    """Committed instruction count of a run result (progress rate input)."""
    stats = getattr(result, "stats", None)
    return getattr(stats, "instructions", 0) if stats is not None else 0


def run_worker_batch(
    batch: Callable[[], Any],
    cache_enabled: bool,
    cache_root: str | None,
    telemetry: dict | None,
) -> tuple[Any, dict]:
    """Run ``batch()`` inside a forked pool worker; the child half of
    the telemetry envelope.

    Re-applies the parent's disk-cache config, re-arms the tracer (a
    fork inherits the parent's spans, totals and counters, which would
    otherwise come home twice), runs the batch, and returns ``(result,
    telemetry)``.  ``telemetry`` is one dict — pid, the seconds the
    worker spent on the call, spans, span totals, counters, drop count
    and disk-cache stats — for :func:`absorb`: without it a pooled
    report would show zero simulated runs and zero cache writes, and the
    span log a hole where the pool worked.
    """
    started = time.monotonic()
    diskcache.configure(enabled=cache_enabled, root=cache_root)
    begin_worker(telemetry)
    result = batch()
    return result, {
        "pid": os.getpid(),
        "seconds": time.monotonic() - started,
        **TRACER.snapshot(),
        "disk": diskcache.shared_stats(),
    }


def absorb(telemetry: dict) -> None:
    """Merge a worker's :func:`run_worker_batch` telemetry into this
    process: spans to the span listeners tagged ``worker-<pid>``, totals
    under ``workers.``, counters flat, disk-cache stats summed."""
    TRACER.merge(telemetry, process=f"worker-{telemetry['pid']}")
    diskcache.merge_stats(telemetry["disk"])


def _worker_batch(
    specs: list[RunSpec],
    cache_enabled: bool,
    cache_root: str | None,
    telemetry: dict | None = None,
) -> tuple[list[tuple[RunKey, Any]], dict]:
    """Run one batch of specs inside a worker process."""

    def batch() -> list[tuple[RunKey, Any]]:
        with TRACER.span("pool.worker_batch", specs=len(specs)):
            return [(spec.key, runner.execute_spec(spec)) for spec in specs]

    return run_worker_batch(batch, cache_enabled, cache_root, telemetry)


def execute_runs(
    specs: Iterable[RunSpec], jobs: int | None = None
) -> dict[RunKey, Any]:
    """Resolve every spec, fanning cache misses out over ``jobs`` processes.

    ``jobs`` of ``None``/0/1 runs serially in-process, as does a sweep
    whose misses are all one ``(benchmark, scale)``.  Returns a dict
    keyed by ``RunKey``; simulated results are also written to the disk
    cache, which is all that outlives the call.
    """
    unique: dict[RunKey, RunSpec] = {}
    for spec in specs:
        unique.setdefault(spec.key, spec)

    results: dict[RunKey, Any] = {}
    # One batch per (benchmark, scale): a kernel's runs stay adjacent, so
    # the executing process generates its trace once.
    groups: dict[tuple[str, float], list[RunSpec]] = defaultdict(list)
    for key, spec in unique.items():
        cached = runner.peek_cached(key)
        if cached is not None:
            results[key] = cached
        else:
            groups[(spec.abbrev, spec.scale)].append(spec)
    if results:
        progress.advance_active(
            len(results),
            sum(_instructions(r) for r in results.values()),
            detail="cache",
        )
    batches = list(groups.values())

    jobs = jobs or 1
    cap = max_jobs()
    if cap is not None:
        jobs = min(jobs, cap)
    if jobs <= 1 or len(batches) <= 1:
        for batch in batches:
            for spec in batch:
                result = runner.execute_spec(spec)
                results[spec.key] = result
                progress.advance_active(
                    1, _instructions(result), detail=spec.abbrev
                )
        return results

    cache_enabled = diskcache.is_enabled()
    cache_root = diskcache.configured_root()
    workers = min(jobs, len(batches))
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        context = multiprocessing.get_context()
    telemetry = worker_telemetry()
    pending = sum(len(batch) for batch in batches)
    with TRACER.span("pool.execute_runs", pending=pending,
                     batches=len(batches), workers=workers):
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=context
        ) as pool:
            futures = [
                pool.submit(_worker_batch, batch, cache_enabled,
                            cache_root, telemetry)
                for batch in batches
            ]
            for future in as_completed(futures):
                pairs, shipped = future.result()
                instructions = 0
                for key, result in pairs:
                    results[key] = result
                    TRACER.bump("parallel_runs_completed")
                    instructions += _instructions(result)
                absorb(shipped)
                progress.advance_active(
                    len(pairs), instructions,
                    detail=pairs[0][0].abbrev if pairs else None,
                )
    return results
