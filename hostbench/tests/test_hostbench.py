"""Self-tests of the benchmark.

Run from the root of a checkout::

    python3 -m pytest hostbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HOSTBENCH = Path(__file__).resolve().parents[1]
ROOT = HOSTBENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HOSTBENCH))

import checks  # noqa: E402
import layers  # noqa: E402
import refclock  # noqa: E402
import workloads as wl  # noqa: E402


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------
def test_self_time_of_nested_wrappers(monkeypatch):
    clock = [0]
    monkeypatch.setattr(layers.time, "perf_counter_ns", lambda: clock[0])
    timer = layers.LayerTimer(
        [("outer", None, "run", None), ("inner", None, "step", None)])

    def step():
        clock[0] += 30

    def run():
        clock[0] += 10
        step()
        clock[0] += 5
        step()

    step = timer.wrap(step, "inner", "step")
    run = timer.wrap(run, "outer", "run")
    run()
    snap = timer.snapshot()
    timer.close()
    assert snap["outer.ns"] == 15
    assert snap["inner.ns"] == 60
    assert snap["outer.run.calls"] == 1
    assert snap["inner.step.calls"] == 2


def test_same_layer_nesting_and_miss_predicate(monkeypatch):
    clock = [0]
    monkeypatch.setattr(layers.time, "perf_counter_ns", lambda: clock[0])
    timer = layers.LayerTimer([("a", None, "f", None)])

    def f(depth, counted=True):
        clock[0] += 7
        if depth:
            f(depth - 1, counted=counted)

    f = timer.wrap(f, "a", "f", miss=lambda args, kw: kw.get("counted", True))
    f(2)
    f(1, counted=False)  # uncounted calls leave their time to the caller
    snap = timer.snapshot()
    timer.close()
    assert snap["a.ns"] == 21
    assert snap["a.f.calls"] == 3


def test_install_restores_every_entry_point():
    timer = layers.LayerTimer.for_program()
    originals = [owner.__dict__[attr] for _, owner, attr, _ in timer.targets]
    with timer.installed():
        wrapped = [owner.__dict__[attr] for _, owner, attr, _ in timer.targets]
    restored = [owner.__dict__[attr] for _, owner, attr, _ in timer.targets]
    timer.close()
    assert all(w.__wrapped__ is o for w, o in zip(wrapped, originals))
    assert restored == originals


# ---------------------------------------------------------------------------
# Reference clock
# ---------------------------------------------------------------------------
def test_reference_clock_scales_wall_time_by_probed_speed():
    clock = refclock.RefClock()
    clock.record(10.0, 0.0, 0.0)      # a probe starts: the clock stands
    clock.record(10.001, 0.0, 0.5)    # the CPU ran at half speed
    clock.record(10.101, 0.05, 0.0)
    clock.record(10.102, 0.05, 2.0)   # then at twice the speed
    try:
        assert clock.at(10.0005) == 0.0
        assert clock.at(10.051) == pytest.approx(0.025)
        assert clock.at(10.1015) == pytest.approx(0.05)
        assert clock.at(10.202) == pytest.approx(0.25)
        assert clock.speeds() == [0.5, 2.0]
    finally:
        clock.close()


def test_forked_process_is_pinned_and_samples_the_clock():
    cpus = {sorted(os.sched_getaffinity(0))[-1]}
    clock = refclock.RefClock()
    try:
        with refclock.next_fork(cpus, clock):
            pid = os.fork()
            if pid == 0:
                deadline = time.monotonic() + 0.2
                while time.monotonic() < deadline:
                    refclock.probe(100)
                os._exit(0 if os.sched_getaffinity(0) == cpus else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert clock.points >= 4
        assert 0 < clock.at(time.monotonic()) < 10
    finally:
        clock.close()


# ---------------------------------------------------------------------------
# Digest check
# ---------------------------------------------------------------------------
def _fake_run(**changes):
    from repro.ooo.stats import PipelineStats

    stats = PipelineStats(cycles=1000, instructions=800, loads=120)
    for name, value in changes.items():
        setattr(stats, name, value)
    return SimpleNamespace(cycles=stats.cycles, stats=stats)


def test_digest_rejects_one_perturbed_counter():
    reference = {"KM/spec": checks.run_digest(_fake_run())}
    outcome = wl.Outcome()
    wl.check_runs(outcome, {"KM/spec": _fake_run(loads=121)}, reference, "t")
    assert (outcome.attempted, outcome.failed) == (1, 1)
    outcome = wl.Outcome()
    wl.check_runs(outcome, {"KM/spec": _fake_run()}, reference, "t")
    assert (outcome.attempted, outcome.failed) == (1, 0)


def test_digest_ignores_engine_bookkeeping_only():
    plain = checks.run_digest(_fake_run())
    assert checks.run_digest(_fake_run(invocation_memo_hits=9)) == plain
    assert checks.run_digest(_fake_run(fabric_squashes=1)) != plain


def test_report_digest_ignores_fingerprint_not_results():
    report = {"code_fingerprint": "a", "dynaspam_cycles": 10,
              "stats": {"loads": 3, "predict_memo_hits": 1},
              "baseline_stats": {"loads": 3}, "by_stripe": {1: 2, 10: 3}}
    digest = checks.report_digest(report)
    wire = json.loads(json.dumps(dict(report, code_fingerprint="b")))
    assert checks.report_digest(wire) == digest
    wire["stats"]["predict_memo_hits"] = 5
    assert checks.report_digest(wire) == digest
    wire["baseline_stats"]["loads"] = 4
    assert checks.report_digest(wire) != digest


# ---------------------------------------------------------------------------
# Statistics and the environment check
# ---------------------------------------------------------------------------
def test_nearest_rank_percentile():
    samples = [50, 15, 40, 35, 20]
    assert checks.percentile(samples, 30) == 20
    assert checks.percentile(samples, 40) == 20
    assert checks.percentile(samples, 50) == 35
    assert checks.percentile(samples, 100) == 50
    hundred = list(range(1, 101))
    assert checks.percentile(hundred, 90) == 90
    assert checks.beyond(hundred, 90) == 10
    with pytest.raises(ValueError):
        checks.percentile([], 50)


def test_overrides_are_refused():
    env = {"PATH": "/bin", "REPRO_MEMO": "0", "REPRO_LOG": "x.jsonl"}
    assert checks.refuse_overrides(env) == ["REPRO_LOG", "REPRO_MEMO"]
    assert checks.refuse_overrides({"PATH": "/bin"}) == []


# ---------------------------------------------------------------------------
# Smoke runs at tiny scale
# ---------------------------------------------------------------------------
@pytest.fixture
def work(tmp_path):
    yield tmp_path / "work"
    shutil.rmtree(tmp_path / "work", ignore_errors=True)


def test_fig8_cold_smoke(work):
    sweep = wl.fig8_pass(0.02, work)
    reference = {"fig8_cold": {
        "runs": {name: checks.run_digest(r) for name, r in sweep.runs.items()},
        "geomeans": sweep.geomeans,
    }}
    started = time.perf_counter()
    outcome = wl.fig8_cold(ROOT / "src", work, 0, reference, scale=0.02,
                           setup=False)
    assert time.perf_counter() - started < 30
    assert (outcome.attempted, outcome.failed, outcome.problems) == (44, 0, [])
    assert outcome.metrics["sweep_s"][0] > 0


def test_accel_steady_traced_smoke(work):
    steady = wl.accel_pass(wl.accel_traces(work, 0.05))
    reference = {"accel_steady": {
        "runs": {name: checks.run_digest(r)
                 for name, r in steady.runs.items()}}}
    timer = layers.LayerTimer.for_program()
    try:
        outcome, seen = wl.accel_traced(work, 0, reference, timer,
                                        scale=0.05)
        metrics = layers.layer_metrics(timer.snapshot(), seen["passes"],
                                       seen["stats"])
    finally:
        timer.close()
    assert (outcome.attempted, outcome.failed, outcome.problems) == (10, 0, [])
    assert metrics["ooo.process_calls"][0] > 0
    assert metrics["offload.invocations"][0] > 0
    assert metrics["framework.self_s"][0] > 0
    assert seen["overhead"] > -1.0


def test_service_mixed_smoke(work):
    reference = checks.load_reference()
    started = time.perf_counter()
    outcome = wl.service_mixed(work, 1, reference, seed=3, setup=False)
    assert time.perf_counter() - started < 30
    assert outcome.attempted == round(wl.SERVICE_RATE)
    assert (outcome.failed, outcome.problems) == (0, [])
    assert outcome.metrics["jobs_per_s"][0] > 0


def test_cli_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(HOSTBENCH, tmp_path / "hostbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", "fig8_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
