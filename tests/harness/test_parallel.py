"""Determinism and merging tests for the parallel sweep engine."""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

import repro.harness.diskcache as diskcache
from repro.harness.parallel import (
    absorb,
    default_jobs,
    execute_runs,
    run_worker_batch,
)
from repro.harness.runner import dynaspam_spec, execute_spec
from repro.obs import progress
from repro.obs.runtime import TRACER, worker_telemetry
from repro.workloads import ALL_ABBREVS

SCALE = 0.05


@pytest.fixture
def no_disk():
    """Force real simulation in both serial and parallel paths."""
    diskcache.configure(enabled=False)
    yield
    diskcache.configure()


def _fingerprint(result) -> dict:
    return {
        "cycles": result.cycles,
        "coverage": result.coverage,
        "squashes": result.squashes,
        "mapped": result.mapped_traces,
        "offloaded": result.offloaded_traces,
        "stats": result.stats.as_dict(),
    }


def test_parallel_matches_serial_for_all_benchmarks(no_disk):
    specs = [dynaspam_spec(abbrev, SCALE) for abbrev in ALL_ABBREVS]
    assert len(specs) == 11

    serial = {
        spec.key: _fingerprint(execute_spec(spec)) for spec in specs
    }

    parallel = {
        key: _fingerprint(result)
        for key, result in execute_runs(specs, jobs=4).items()
    }

    assert set(parallel) == set(serial)
    for key in serial:
        assert parallel[key] == serial[key], key.abbrev


def test_duplicate_specs_collapse(no_disk):
    specs = [dynaspam_spec("KM", SCALE)] * 3
    results = execute_runs(specs, jobs=2)
    assert len(results) == 1


def test_jobs_one_runs_serially(no_disk):
    specs = [dynaspam_spec("KM", SCALE)]
    results = execute_runs(specs, jobs=1)
    assert specs[0].key in results


def test_worker_profiles_and_spans_merge_into_parent(no_disk, monkeypatch):
    """Regression: child-process span totals, counters and spans all
    come home through the pool fan-out, tagged per worker process.
    Worker spans reach the span listeners; the parent's record buffer
    keeps only its own."""
    monkeypatch.delenv("REPRO_MAX_JOBS", raising=False)
    TRACER.reset()
    TRACER.enable("run-pool")
    records = []
    listener = records.append
    TRACER.add_listener(listener)
    tracker = progress.ProgressTracker(2, label="test")
    progress.activate(tracker)
    try:
        specs = [dynaspam_spec("KM", SCALE), dynaspam_spec("BFS", SCALE)]
        results = execute_runs(specs, jobs=2)
        assert set(results) == {spec.key for spec in specs}
    finally:
        progress.deactivate()
        TRACER.remove_listener(listener)
        TRACER.disable()
        buffered = TRACER.records()
        totals = TRACER.mark()[0]
        counters = TRACER.counters()
        TRACER.reset()
        TRACER.run_id = None
    assert buffered == [r for r in records if r.process == "main"]

    # One mechanism: each name's total is exactly its records' summed
    # durations — bare for this process, under workers.* for the pool.
    summed: dict[str, list] = {}
    for record in records:
        name = (record.name if record.process == "main"
                else f"workers.{record.name}")
        entry = summed.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += record.duration
    assert set(totals) == set(summed)
    for name, (count, seconds) in totals.items():
        assert count == summed[name][0], name
        assert seconds == pytest.approx(summed[name][1], abs=1e-9), name
    assert "pool.execute_runs" in totals
    assert "workers.sim.dynaspam" in totals
    assert "sim.dynaspam" not in totals
    # Worker counters merge flat; the parent counted completions.
    assert counters["runs_simulated"] == 2
    assert counters["parallel_runs_completed"] == 2

    # Worker spans are merged with a worker-<pid> process tag and the
    # parent's run id; the parent recorded the fan-out span itself.
    names = {record.name for record in records}
    assert "pool.execute_runs" in names
    assert "pool.worker_batch" in names
    assert "sim.execute_spec" in names
    processes = {record.process for record in records}
    assert "main" in processes
    assert any(p.startswith("worker-") for p in processes)
    worker_records = [r for r in records if r.process != "main"]
    assert worker_records
    assert all(r.attrs.get("run_id") == "run-pool" for r in records)

    # The progress tracker saw every unique spec exactly once.
    assert tracker.done == 2
    assert tracker.instructions > 0


def _envelope_batch() -> str:
    TRACER.bump("runs_simulated", 2)
    with TRACER.span("pool.worker_batch"):
        diskcache.shared_cache("runs").put(("envelope",), "worker")
    return "done"


def test_envelope_brings_worker_telemetry_home_once(tmp_path):
    """A forked worker's counters, spans and disk stats each arrive
    exactly once; none of the state the fork inherited comes back."""
    root = str(tmp_path / "cache")
    diskcache.configure(enabled=True, root=root)
    TRACER.reset()
    TRACER.enable("run-envelope")
    records = []
    listener = records.append
    TRACER.add_listener(listener)
    try:
        # Parent state the fork inherits.
        TRACER.bump("runs_simulated", 5)
        with TRACER.span("pool.execute_runs"):
            pass
        diskcache.shared_cache("runs").put(("envelope",), "parent")
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(1, mp_context=context) as pool:
            result, shipped = pool.submit(
                run_worker_batch, _envelope_batch, True, root,
                worker_telemetry(),
            ).result()
        absorb(shipped)
        buffered = TRACER.records()
        totals, counters = TRACER.mark()
        disk = diskcache.shared_stats()
    finally:
        TRACER.remove_listener(listener)
        TRACER.disable()
        TRACER.reset()
        TRACER.run_id = None
        diskcache.configure()
    assert result == "done"
    assert counters == {"runs_simulated": 7}
    assert sorted(r.name for r in records if r.process != "main") == [
        "cache.put", "pool.worker_batch"]
    assert [r.name for r in buffered] == ["pool.execute_runs", "cache.put"]
    assert shipped["seconds"] > 0
    assert {name: count for name, (count, _) in totals.items()} == {
        "pool.execute_runs": 1, "cache.put": 1,
        "workers.pool.worker_batch": 1, "workers.cache.put": 1}
    assert disk["runs"]["writes"] == 2


def test_serial_sweep_probes_the_disk_once_per_spec(tmp_path):
    diskcache.configure(enabled=True, root=str(tmp_path))
    try:
        specs = [dynaspam_spec("KM", SCALE),
                 dynaspam_spec("KM", SCALE, speculation=False)]
        first = execute_runs(specs, jobs=1)
        runs = diskcache.shared_cache("runs")
        assert (runs.misses, runs.writes, runs.hits) == (2, 2, 0)
        again = execute_runs(specs, jobs=1)
        assert (runs.misses, runs.writes, runs.hits) == (2, 2, 2)
    finally:
        diskcache.configure()
    for spec in specs:
        assert again[spec.key].stats.as_dict() == \
            first[spec.key].stats.as_dict()


def test_serial_runs_advance_progress(no_disk, capsys):
    tracker = progress.ProgressTracker(1, label="test")
    progress.activate(tracker)
    try:
        execute_runs([dynaspam_spec("KM", SCALE)], jobs=1)
    finally:
        progress.deactivate()
    assert tracker.done == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines and lines[-1].startswith("[1/1] test 100%")


def test_default_jobs_positive():
    assert default_jobs() >= 1


def test_default_jobs_ci_clamp(monkeypatch):
    import os

    from repro.harness.parallel import CI_JOBS_CLAMP

    monkeypatch.delenv("REPRO_MAX_JOBS", raising=False)
    monkeypatch.setenv("CI", "true")
    assert default_jobs() == min(os.cpu_count() or 1, CI_JOBS_CLAMP)
    monkeypatch.delenv("CI")
    assert default_jobs() == (os.cpu_count() or 1)


def test_repro_max_jobs_caps_default(monkeypatch):
    monkeypatch.delenv("CI", raising=False)
    monkeypatch.setenv("REPRO_MAX_JOBS", "1")
    assert default_jobs() == 1
    monkeypatch.setenv("REPRO_MAX_JOBS", "0")   # floor at 1
    assert default_jobs() == 1
    monkeypatch.setenv("REPRO_MAX_JOBS", "totally-bogus")  # ignored
    assert default_jobs() >= 1


def test_repro_max_jobs_caps_explicit_fanout(no_disk, monkeypatch):
    # With the cap at 1, an explicit jobs=8 sweep must run serially —
    # identical results, no process pool on an oversubscribed runner.
    monkeypatch.setenv("REPRO_MAX_JOBS", "1")
    specs = [dynaspam_spec("KM", SCALE), dynaspam_spec("BFS", SCALE)]
    results = execute_runs(specs, jobs=8)
    assert set(results) == {spec.key for spec in specs}
