"""Parallel sweep execution: fan independent runs out over processes.

Every experiment sweep is embarrassingly parallel across ``RunSpec``s.
``execute_runs`` resolves what it can from the local caches, groups the
remaining work by ``(benchmark, scale)`` so each worker generates a trace
once, fans the groups out over a ``ProcessPoolExecutor``, and merges
worker results back into the parent's in-memory and on-disk run caches.
Traces never cross the process boundary: trace generation is
deterministic, so a worker regenerates exactly the trace the parent
would.  Serial and parallel execution produce bit-identical results: a
run never depends on any other run.
"""

from __future__ import annotations

import multiprocessing
import os
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Any, Iterable

import repro.harness.diskcache as diskcache
from repro.harness.profiling import PROFILER
from repro.harness.runner import (
    RunKey,
    RunSpec,
    execute_spec,
    peek_cached,
    seed_run_cache,
)
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


def _worker_batch(
    specs: list[RunSpec],
    cache_enabled: bool,
    cache_root: str | None,
    telemetry: dict | None = None,
) -> tuple[list[tuple[RunKey, Any]], dict, dict, dict]:
    """Run one batch of specs inside a worker process.

    Returns the results plus the worker's profiler snapshot, disk cache
    counters, and wall-clock span buffer, which the parent folds back
    in — otherwise a parallel ``--profile``/``bench`` report would show
    zero simulation time and zero cache writes, and the span timeline
    would have a hole where the pool did all the work.
    """
    diskcache.configure(enabled=cache_enabled, root=cache_root)
    PROFILER.reset()  # forked workers inherit the parent's totals
    begin_worker(telemetry)
    with TRACER.span("pool.worker_batch", specs=len(specs)):
        pairs = [(spec.key, execute_spec(spec)) for spec in specs]
    spans = {"pid": os.getpid(), **TRACER.snapshot()}
    return pairs, PROFILER.snapshot(), diskcache.shared_stats(), spans


def execute_runs(
    specs: Iterable[RunSpec], jobs: int | None = None
) -> dict[RunKey, Any]:
    """Resolve every spec, fanning cache misses out over ``jobs`` processes.

    ``jobs`` of ``None``/0/1 runs serially in-process.  Returns a dict
    keyed by ``RunKey``; the parent's caches are seeded either way, so
    subsequent ``run_baseline``/``run_dynaspam`` calls are memory hits.
    """
    unique: dict[RunKey, RunSpec] = {}
    for spec in specs:
        unique.setdefault(spec.key, spec)

    results: dict[RunKey, Any] = {}
    for key, spec in unique.items():
        cached = peek_cached(key)
        if cached is not None:
            results[key] = cached
    pending = [spec for key, spec in unique.items() if key not in results]
    if results:
        progress.advance_active(
            len(results),
            sum(_instructions(r) for r in results.values()),
            detail="cache",
        )

    jobs = jobs or 1
    cap = max_jobs()
    if cap is not None:
        jobs = min(jobs, cap)
    if jobs <= 1 or len(pending) <= 1:
        for spec in pending:
            results[spec.key] = execute_spec(spec)
            progress.advance_active(
                1, _instructions(results[spec.key]), detail=spec.abbrev
            )
        return results

    # One batch per (benchmark, scale): the worker's in-process trace
    # cache then amortizes trace generation across the batch's runs.
    groups: dict[tuple[str, float], list[RunSpec]] = defaultdict(list)
    for spec in pending:
        groups[(spec.abbrev, spec.scale)].append(spec)
    batches = list(groups.values())

    cache_enabled = diskcache.is_enabled()
    cache_root = diskcache.configured_root()
    workers = min(jobs, len(batches))
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        context = multiprocessing.get_context()
    telemetry = worker_telemetry()
    with TRACER.span("pool.execute_runs", pending=len(pending),
                     batches=len(batches), workers=workers):
        with PROFILER.section("parallel_execution"):
            with ProcessPoolExecutor(
                max_workers=workers, mp_context=context
            ) as pool:
                futures = [
                    pool.submit(_worker_batch, batch, cache_enabled,
                                cache_root, telemetry)
                    for batch in batches
                ]
                for future in as_completed(futures):
                    pairs, worker_profile, worker_disk, spans = (
                        future.result()
                    )
                    instructions = 0
                    for key, result in pairs:
                        seed_run_cache(key, result)
                        results[key] = result
                        PROFILER.bump("parallel_runs_completed")
                        instructions += _instructions(result)
                    PROFILER.merge_snapshot(worker_profile)
                    diskcache.merge_stats(worker_disk)
                    TRACER.merge(
                        spans, process=f"worker-{spans.get('pid', '?')}"
                    )
                    progress.advance_active(
                        len(pairs), instructions,
                        detail=pairs[0][0].abbrev if pairs else None,
                    )
    return results


def warm_cache(specs: Iterable[RunSpec], jobs: int | None = None) -> None:
    """Prefetch runs into the caches ahead of a serial driver loop.

    With ``jobs`` unset this is a no-op — the driver's own lazy calls do
    the work serially, exactly as before the parallel engine existed —
    unless a progress tracker is active, in which case the serial work
    routes through ``execute_runs`` anyway (identical execution, but
    each resolved run emits a heartbeat instead of staying dark).
    """
    if jobs and jobs > 1:
        execute_runs(specs, jobs)
    elif progress.current() is not None:
        execute_runs(specs, jobs)
