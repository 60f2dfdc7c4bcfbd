"""The three workloads: a cold Figure 8 sweep, steady-state offload, and
mixed service traffic.

Every workload returns a :class:`Outcome`: operations attempted and
failed, the problems found by the output check, its metrics, and lines
for the human summary.  ``seconds`` bounds the measured part of a run;
a pass that starts inside the budget finishes, so a run measures at
least one pass.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from checks import (
    beyond,
    payload_key,
    percentile,
    report_digest,
    run_digest,
)
from refclock import RefClock, next_fork

HERE = Path(__file__).resolve().parent

#: Figure 8 sweep scale.  One cold pass takes 2 to 3.5 s of wall time,
#: about 2 reference seconds, on a 2-core 2.1 GHz Xeon VM, so a 30 s run
#: takes the median of 10 to 14.
FIG8_SCALE = 0.1
#: The loop kernels whose one configuration lives for more than 1,000
#: invocations at scale 1.0 (EXPERIMENTS.md Table 5).
ACCEL_KERNELS = ("HS", "KM", "KNN", "NW", "PF")
ACCEL_SCALE = 1.0
#: ``repro loadtest``'s default job scale; its KM/NW/BFS jobs are small.
SERVICE_SCALE = 0.05
#: Offered load, below the one-worker saturation rate.
SERVICE_RATE = 8.0
SERVICE_JOB_TIMEOUT = 30.0
POLL_SECONDS = 0.005
#: Set-ups per run, reported as their median; fewer where one is slow.
FIG8_SETUPS, ACCEL_SETUPS, SERVICE_SETUPS = 5, 3, 41

#: The paper's Figure 8 geomeans.  ``mapping`` is a bound: the paper
#: reports a mapping-only slowdown below 3%.
PAPER_GEOMEANS = {"mapping": 0.97, "no_spec": 1.23, "spec": 1.42}

#: The ``repro.service`` layer metrics and their units.
SERVICE_UNITS = {
    "service.submit_s_p50": "s",
    "service.queue_wait_s_p50": "s",
    "service.queue_wait_s_p90": "s",
    "service.run_s_p50": "s",
    "service.worker_utilization": "ratio",
    "service.coalesce_ratio": "ratio",
    "service.runs_simulated": "count",
}


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def fresh_dir(work: Path, name: str) -> Path:
    path = work / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def timed_setup(src: Path, work: Path, body: str,
                repeats: int) -> list[float]:
    """Seconds of fresh interpreters that import the program and run
    ``body`` (its set-up), one per repeat.

    Each interpreter times ``body`` on its own reference clock; the rest
    of its life (start-up and exit, tens of milliseconds) counts at
    wall time.
    """
    samples = []
    for index in range(repeats):
        root = fresh_dir(work, f"setup-{index}")
        code = (f"import sys; sys.path[:0] = [{str(src)!r}, {str(HERE)!r}]\n"
                f"ROOT = {str(root)!r}\n"
                "import time\nfrom refclock import RefClock\n"
                "CLOCK = RefClock().start()\n"
                "WALL, REF = time.monotonic(), CLOCK.now()\n"
                f"{body}\n"
                "WALL, REF = time.monotonic() - WALL, CLOCK.now() - REF\n"
                "CLOCK.stop()\n"
                "print(WALL, REF)\n")
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code], check=True,
                              cwd=work, timeout=120, stdout=subprocess.PIPE,
                              text=True)
        wall = time.perf_counter() - start
        body_wall, body_ref = map(float, done.stdout.split()[-2:])
        samples.append(wall - body_wall + body_ref)
        shutil.rmtree(root)
    return samples


# ---------------------------------------------------------------------------
# Passes over simulated runs (fig8_cold, accel_steady)
# ---------------------------------------------------------------------------
@dataclass
class Pass:
    """One pass: its wall and reference seconds, each operation's latency
    in reference seconds, each run."""

    wall: float
    ref: float
    latencies: list[float]
    runs: dict
    geomeans: dict | None = None
    error: str | None = None


def describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def stamp(clock: RefClock | None) -> tuple[float, float]:
    """Wall and reference seconds now; without a clock both are wall."""
    wall = time.monotonic()
    return wall, clock.at(wall) if clock is not None else wall


def since(start: tuple[float, float],
          clock: RefClock | None) -> tuple[float, float]:
    end = stamp(clock)
    return end[0] - start[0], end[1] - start[1]


def check_runs(outcome: Outcome, runs: dict, reference: dict,
               label: str) -> dict[str, str]:
    """Digest every run, fail the ones that differ from the reference."""
    digests = {}
    for name, result in runs.items():
        outcome.attempted += 1
        digest = run_digest(result) if result is not None else None
        digests[name] = digest
        if digest != reference.get(name):
            outcome.fail(1, f"{label}: {name} digest {digest} != "
                            f"reference {reference.get(name)}")
    return digests


def check_pass(outcome: Outcome, one: Pass, reference: dict,
               label: str) -> dict[str, str]:
    digests = check_runs(outcome, one.runs, reference["runs"], label)
    if one.error is not None:
        outcome.problems.append(f"{label}: {one.error}")
    for series, value in (one.geomeans or {}).items():
        if value != reference["geomeans"][series]:
            outcome.problems.append(
                f"{label}: geomean {series} {value!r} != reference "
                f"{reference['geomeans'][series]!r}")
    return digests


def run_passes(outcome: Outcome, seconds: float, make_pass,
               reference: dict) -> list[Pass]:
    """Checked untraced passes, timed on a reference clock, until
    ``seconds`` have elapsed."""
    passes = []
    clock = RefClock()
    try:
        with clock.running():
            started = time.perf_counter()
            while not passes or time.perf_counter() - started < seconds:
                passes.append(make_pass(clock=clock))
                check_pass(outcome, passes[-1], reference,
                           f"pass {len(passes)}")
        outcome.notes.append(speed_note(clock))
    finally:
        clock.close()
    return passes


def speed_note(clock: RefClock) -> str:
    speeds = clock.speeds()
    slow = sum(1 for speed in speeds if speed < 0.8) / len(speeds)
    return (f"host speed: median {statistics.median(speeds):.3f} of the "
            f"reference over {len(speeds)} samples, {slow:.0%} below 0.8")


def pass_metrics(setup_samples: list[float],
                 passes: list[Pass]) -> dict[str, tuple[float, str]]:
    latencies = [x for one in passes for x in one.latencies]
    median = statistics.median
    return {
        "setup_s": (median(setup_samples), "s"),
        "sweep_s": (median(one.ref for one in passes), "s"),
        "sim_instr_per_s": (median(
            sum(r.stats.instructions for r in one.runs.values()
                if r is not None)
            / one.ref for one in passes), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "jobs_per_s": (median(len(one.runs) / one.ref for one in passes),
                       "1/s"),
        "job_latency_p50_s": (percentile(latencies, 50), "s"),
        "job_latency_p90_s": (percentile(latencies, 90), "s"),
    }


def pass_notes(passes: list[Pass]) -> list[str]:
    latencies = [x for one in passes for x in one.latencies]
    return [
        f"{len(passes)} passes of {len(passes[0].runs)} runs, "
        "wall/reference seconds "
        + ", ".join(f"{one.wall:.3f}/{one.ref:.3f}" for one in passes),
        f"latency samples {len(latencies)} "
        f"({beyond(latencies, 90)} beyond p90)",
    ]


def traced_pairs(outcome: Outcome, seconds: float, make_pass,
                 reference: dict, timer) -> dict:
    """Alternate untraced and traced passes until ``seconds`` elapse.

    Returns what the per-layer metrics are built from: traced pass count,
    the stats of every traced run, and the tracing overhead.
    """
    untraced, traced, stats = [], [], []
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        plain = make_pass()
        digests = check_pass(outcome, plain, reference, "untraced")
        one = make_pass(timer=timer)
        if check_pass(outcome, one, reference, "traced") != digests:
            outcome.problems.append("traced digests differ from untraced")
        untraced.append(plain.wall)
        traced.append(one.wall)
        stats += [r.stats.as_dict() for r in one.runs.values()
                  if r is not None]
    outcome.notes.append(
        f"{len(traced)} untraced/traced pass pairs, walls "
        + ", ".join(f"{u:.3f}/{t:.3f}" for u, t in zip(untraced, traced)))
    return {"passes": len(traced), "stats": stats,
            "overhead": sum(traced) / sum(untraced) - 1.0}


# ---------------------------------------------------------------------------
# fig8_cold
# ---------------------------------------------------------------------------
FIG8_SETUP = """
import repro.harness.diskcache as diskcache
from repro.harness.experiments import figure8_performance
diskcache.configure(root=ROOT)
diskcache.shared_cache("runs")
diskcache.shared_cache("traces")
"""


def series_of(spec) -> str:
    if spec.kind == "baseline":
        return "baseline"
    if spec.ds_config.mode == "mapping_only":
        return "mapping"
    return "spec" if spec.ds_config.speculation else "no_spec"


def fig8_pass(scale: float, work: Path, timer=None, clock=None) -> Pass:
    """One cold sweep: empty disk cache, cleared in-process caches."""
    import repro.harness.diskcache as diskcache
    from repro.harness.experiments import figure8_performance, figure8_specs
    from repro.harness.runner import clear_run_cache, peek_cached
    from repro.workloads.suite import clear_trace_cache

    root = fresh_dir(work, "fig8-cache")
    diskcache.configure(root=str(root))
    clear_run_cache()
    clear_trace_cache()
    result = error = None
    start = stamp(clock)
    try:
        with timer.installed() if timer is not None else nullcontext():
            result = figure8_performance(scale, jobs=1)
    except Exception as exc:  # noqa: BLE001 - fails the pass's runs
        error = describe(exc)
    wall, ref = since(start, clock)
    runs = {
        f"{spec.abbrev}/{series_of(spec)}":
            peek_cached(spec.key) if result is not None else None
        for spec in figure8_specs(scale)
    }
    clear_run_cache()
    clear_trace_cache()
    shutil.rmtree(root)
    geomeans = None if result is None else {
        series: result.series_geomean(series)
        for series in ("mapping", "no_spec", "spec")
    }
    # A serial sweep hands every run's result back when the sweep
    # returns, so each run's latency is the pass's time.
    return Pass(wall, ref, [ref] * len(runs), runs, geomeans, error)


def paper_lines(geomeans: dict) -> list[str]:
    lines = ["Figure 8 geomeans vs the paper (model checked for shape only, "
             "DESIGN.md sections 2 and 7; reported, not gated):"]
    names = {"mapping": "mapping_only", "no_spec": "accel w/o spec",
             "spec": "accel w/ spec"}
    for series, paper in PAPER_GEOMEANS.items():
        value = geomeans[series]
        claim = ("<3% slowdown, i.e. >0.97x" if series == "mapping"
                 else f"{paper:.2f}x")
        lines.append(f"  {names[series]:15s} {value:.3f}x  paper {claim}  "
                     f"signed error {(value - paper) / paper:+.1%}")
    return lines


def fig8_cold(src: Path, work: Path, seconds: float, reference: dict,
              scale: float = FIG8_SCALE, setup: bool = True) -> Outcome:
    outcome = Outcome()
    samples = (timed_setup(src, work, FIG8_SETUP, FIG8_SETUPS)
               if setup else [0.0])
    passes = run_passes(outcome, seconds,
                        lambda **kw: fig8_pass(scale, work, **kw),
                        reference["fig8_cold"])
    outcome.metrics = pass_metrics(samples, passes)
    outcome.notes += [f"scale {scale}, cold passes", *pass_notes(passes)]
    if passes[-1].geomeans:
        outcome.notes += paper_lines(passes[-1].geomeans)
    return outcome


def fig8_traced(work: Path, seconds: float, reference: dict, timer,
                scale: float = FIG8_SCALE) -> tuple[Outcome, dict]:
    outcome = Outcome()
    seen = traced_pairs(outcome, seconds,
                        lambda **kw: fig8_pass(scale, work, **kw),
                        reference["fig8_cold"], timer)
    return outcome, seen


# ---------------------------------------------------------------------------
# accel_steady
# ---------------------------------------------------------------------------
ACCEL_SETUP = f"""
import repro.harness.diskcache as diskcache
from repro.core import DynaSpAM
from repro.workloads import generate_trace
diskcache.configure(root=ROOT)
for abbrev in {ACCEL_KERNELS!r}:
    generate_trace(abbrev, {ACCEL_SCALE!r})
"""


def accel_traces(work: Path, scale: float) -> dict:
    """The set-up the timed interpreters repeat, done once in-process."""
    import repro.harness.diskcache as diskcache
    from repro.workloads import generate_trace

    root = fresh_dir(work, "accel-cache")
    diskcache.configure(root=str(root))
    traces = {abbrev: generate_trace(abbrev, scale)
              for abbrev in ACCEL_KERNELS}
    shutil.rmtree(root)
    return traces


def accel_pass(traces: dict, timer=None, clock=None) -> Pass:
    """Each kernel once through ``DynaSpAM(...).run``, no run cache."""
    from repro.core import DynaSpAM, DynaSpAMConfig

    walls, refs, runs, error = [], [], {}, None
    with timer.installed() if timer is not None else nullcontext():
        for abbrev, run in traces.items():
            start = stamp(clock)
            try:
                machine = DynaSpAM(ds_config=DynaSpAMConfig(
                    mode="accelerate", speculation=True))
                runs[abbrev] = machine.run(run.trace, run.program)
            except Exception as exc:  # noqa: BLE001 - fails this run
                runs[abbrev], error = None, f"{abbrev}: {describe(exc)}"
            wall, ref = since(start, clock)
            walls.append(wall)
            refs.append(ref)
    return Pass(sum(walls), sum(refs), refs, runs, error=error)


def accel_steady(src: Path, work: Path, seconds: float, reference: dict,
                 scale: float = ACCEL_SCALE, setup: bool = True) -> Outcome:
    outcome = Outcome()
    samples = (timed_setup(src, work, ACCEL_SETUP, ACCEL_SETUPS)
               if setup else [0.0])
    traces = accel_traces(work, scale)
    passes = run_passes(outcome, seconds,
                        lambda **kw: accel_pass(traces, **kw),
                        reference["accel_steady"])
    outcome.metrics = pass_metrics(samples, passes)
    outcome.notes += [f"scale {scale}, kernels {', '.join(traces)}",
                      *pass_notes(passes)]
    return outcome


def accel_traced(work: Path, seconds: float, reference: dict, timer,
                 scale: float = ACCEL_SCALE) -> tuple[Outcome, dict]:
    outcome = Outcome()
    traces = accel_traces(work, scale)
    seen = traced_pairs(outcome, seconds,
                        lambda **kw: accel_pass(traces, **kw),
                        reference["accel_steady"], timer)
    return outcome, seen


# ---------------------------------------------------------------------------
# service_mixed
# ---------------------------------------------------------------------------
@dataclass
class JobRecord:
    index: int
    payload: dict
    due: float
    lateness: float | None = None
    submit_s: float | None = None
    outcome: str = "unsent"
    latency: float | None = None
    doc: dict | None = None


class OpenLoop:
    """Bounded open-loop load generator: one submitter thread keeps the
    schedule, one poller thread watches the submitted jobs.

    Job ``i`` is due ``i / rate`` seconds after the start and is timed
    from its due time, so a stalled submitter still charges the wait to
    the jobs it delays.
    """

    def __init__(self, client, payloads: list[dict], rate: float,
                 timeout: float = SERVICE_JOB_TIMEOUT,
                 poll: float = POLL_SECONDS) -> None:
        self.client = client
        self.rate = rate
        self.timeout = timeout
        self.poll = poll
        self.start = 0.0
        self.records = [JobRecord(i, p, 0.0) for i, p in enumerate(payloads)]
        self._pending: dict[str, JobRecord] = {}
        self._lock = threading.Lock()
        self._all_sent = threading.Event()

    def run(self) -> list[JobRecord]:
        self.start = time.monotonic() + 0.05
        for record in self.records:
            record.due = self.start + record.index / self.rate
        threads = [
            threading.Thread(target=self._submit, name="hostbench-submit"),
            threading.Thread(target=self._watch, name="hostbench-poll"),
        ]
        for thread in threads:
            thread.start()
        deadline = (len(self.records) / self.rate + self.timeout + 30.0)
        for thread in threads:
            thread.join(timeout=deadline)
            if thread.is_alive():
                raise RuntimeError(f"{thread.name} did not finish")
        return self.records

    def _submit(self) -> None:
        from repro.service.client import ServerBusy
        from repro.service.errors import ServiceError

        try:
            for record in self.records:
                delay = record.due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                sent = time.monotonic()
                record.lateness = sent - record.due
                try:
                    job = self.client.submit(**record.payload)
                except ServerBusy:
                    record.outcome = "rejected"
                    continue
                except ServiceError as exc:
                    record.outcome = f"error: {exc}"
                    continue
                record.submit_s = time.monotonic() - sent
                record.outcome = "pending"
                with self._lock:
                    self._pending[job["id"]] = record
        finally:
            self._all_sent.set()

    def _watch(self) -> None:
        from repro.service.errors import ServiceError

        while True:
            with self._lock:
                pending = list(self._pending.items())
            if not pending and self._all_sent.is_set():
                return
            for job_id, record in pending:
                try:
                    doc = self.client.job(job_id)
                except ServiceError as exc:
                    doc, record.outcome = None, f"error: {exc}"
                now = time.monotonic()
                if doc is not None and doc["state"] in ("done", "failed"):
                    record.latency = now - record.due
                    record.outcome, record.doc = doc["state"], doc
                elif doc is not None and now - record.due > self.timeout:
                    record.outcome = "timeout"
                elif doc is not None:
                    continue
                with self._lock:
                    del self._pending[job_id]
            time.sleep(self.poll)


def start_server():
    """Server start, worker fork and the first ``/healthz``."""
    from repro.service.client import ServiceClient
    from repro.service.server import ThreadedServer

    server = ThreadedServer(workers=1, pool="process").start()
    client = ServiceClient(server.host, server.port, timeout=30.0)
    client.health()
    return server, client


@contextmanager
def pinned(cpus):
    """The calling thread, and the threads it starts, run only on
    ``cpus`` inside the block."""
    previous = os.sched_getaffinity(0)
    if cpus:
        os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, previous)


def split_cpus() -> tuple[set[int] | None, set[int] | None]:
    """One CPU for the service worker, the others for the server and the
    load generator; no split on a single CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[-1]}, set(cpus[:-1])


def service_setups(repeats: int) -> list[float]:
    """Reference seconds of ``repeats`` server starts, each stopped."""
    samples = []
    clock = RefClock()
    try:
        with clock.running():
            for _ in range(repeats):
                start = stamp(clock)
                server, _ = start_server()
                samples.append(since(start, clock)[1])
                server.stop()
    finally:
        clock.close()
    return samples


def _delta(after: dict, before: dict, *path) -> float:
    for key in path:
        after, before = after.get(key, {}), before.get(key, {})
    return (after or 0) - (before or 0)


def service_schedule(work: Path, seed: int, seconds: float, reference: dict,
                     timer=None, setup: bool = True) -> tuple[Outcome, dict]:
    """One open-loop schedule against a fresh one-worker server.

    The worker runs on a CPU of its own, apart from the server and the
    load generator.  With ``timer``, its wrappers are installed before
    the worker forks, so the worker's simulation layers are timed too.
    Without it, the worker samples its CPU on a reference clock, and each
    job's latency is also read off that clock: the worker's simulation is
    most of a cold job's latency.
    """
    import repro.harness.diskcache as diskcache
    from repro.harness.runner import clear_run_cache
    from repro.service.loadtest import build_schedule
    from repro.workloads.suite import clear_trace_cache

    outcome = Outcome()
    worker_cpus, benchmark_cpus = split_cpus()
    total = max(1, round(SERVICE_RATE * seconds))
    payloads = build_schedule("mixed", total, scale=SERVICE_SCALE, seed=seed)
    root = fresh_dir(work, "service-cache")
    diskcache.configure(root=str(root))
    # The worker forks from this process: it must inherit empty caches.
    clear_run_cache()
    clear_trace_cache()
    setups = service_setups(SERVICE_SETUPS) if setup else [0.0]
    clock = RefClock() if timer is None else None
    try:
        with (timer.installed() if timer is not None else nullcontext(),
              next_fork(worker_cpus, clock), pinned(benchmark_cpus)):
            server, client = start_server()
            try:
                before = client.metrics()
                records = OpenLoop(client, payloads, SERVICE_RATE).run()
                after = client.metrics()
            finally:
                server.stop()
        ref_latencies = [
            clock.at(r.due + r.latency) - clock.at(r.due)
            if clock is not None else r.latency
            for r in records if r.outcome == "done"]
        if clock is not None:
            outcome.notes.append("worker " + speed_note(clock))
    finally:
        if clock is not None:
            clock.close()
    shutil.rmtree(root, ignore_errors=True)

    done = [r for r in records if r.outcome == "done"]
    for record in records:
        outcome.attempted += 1
        if record.outcome != "done":
            outcome.fail(1, f"job {record.index} {record.payload}: "
                            f"{record.outcome}")
            continue
        key = payload_key(record.payload)
        digest = report_digest(record.doc["result"])
        if digest != reference.get(key):
            outcome.fail(1, f"job {record.index} {key}: digest {digest} != "
                            f"reference {reference.get(key)}")
    submitted = _delta(after, before, "jobs", "submitted")
    finished = (_delta(after, before, "jobs", "completed")
                + _delta(after, before, "jobs", "failed"))
    if submitted != finished:
        outcome.fail(max(1, abs(submitted - finished)),
                     f"/metrics: submitted {submitted} != completed + "
                     f"failed {finished}")
    wall = (max(r.due + r.latency for r in done) - records[0].due
            if done else 0.0)
    distinct = {payload_key(r.payload): r.doc["result"] for r in done}
    latencies = [r.latency for r in done]
    lateness = [r.lateness for r in records if r.lateness is not None]
    busy = _delta(after, before, "workers", "batch_seconds", "sum")
    observed = {
        "wall": wall, "done": done, "latencies": ref_latencies,
        "setups": setups, "busy": busy, "before": before, "after": after,
        "reports": distinct,
        "instructions": sum(
            report["stats"]["instructions"]
            + report["baseline_stats"]["instructions"]
            for report in distinct.values()),
    }
    outcome.notes += [
        f"seed {seed}: {total} jobs at {SERVICE_RATE:g} jobs/s "
        f"({len(distinct)} distinct payloads), one process worker",
        f"latency samples {len(latencies)} "
        f"({beyond(latencies, 90) if latencies else 0} beyond p90), "
        f"wall p50 {percentile(latencies or [0.0], 50):.4f} s, "
        f"p90 {percentile(latencies or [0.0], 90):.4f} s",
        f"submitter lateness p50 {percentile(lateness, 50) * 1e3:.2f} ms, "
        f"max {max(lateness) * 1e3:.2f} ms",
    ]
    return outcome, observed


def service_mixed(work: Path, seconds: float, reference: dict, seed: int,
                  setup: bool = True) -> Outcome:
    outcome, seen = service_schedule(work, seed, seconds,
                                     reference["service_mixed"]["jobs"],
                                     setup=setup)
    latencies = seen["latencies"] or [0.0]
    wall = seen["wall"] or 1.0
    outcome.metrics = {
        "setup_s": (statistics.median(seen["setups"]), "s"),
        "sweep_s": (wall, "s"),
        "sim_instr_per_s": (seen["instructions"] / wall, "1/s"),
        # The worker simulates; it is a waited-for child once stopped.
        "peak_rss_mb": (peak_rss_mb(resource.RUSAGE_CHILDREN), "MB"),
        "jobs_per_s": (len(seen["done"]) / wall, "1/s"),
        "job_latency_p50_s": (percentile(latencies, 50), "s"),
        "job_latency_p90_s": (percentile(latencies, 90), "s"),
    }
    return outcome


def service_layer_metrics(seen: dict) -> dict[str, tuple[float, str]]:
    """``repro.service`` read from outside: client-timed submits, each
    job document's timings, and ``/metrics`` deltas."""
    docs = [r.doc for r in seen["done"]]
    submits = [r.submit_s for r in seen["done"]] or [0.0]
    waits = [d["queue_wait_seconds"] or 0.0 for d in docs] or [0.0]
    runs = [d["run_seconds"] or 0.0 for d in docs] or [0.0]
    before, after = seen["before"], seen["after"]
    workers = (after.get("workers") or {}).get("total", 1) or 1
    submitted = _delta(after, before, "jobs", "submitted")
    coalesced = _delta(after, before, "jobs", "coalesced")
    values = {
        "service.submit_s_p50": percentile(submits, 50),
        "service.queue_wait_s_p50": percentile(waits, 50),
        "service.queue_wait_s_p90": percentile(waits, 90),
        "service.run_s_p50": percentile(runs, 50),
        "service.worker_utilization": (
            seen["busy"] / (workers * seen["wall"]) if seen["wall"] else 0.0),
        "service.coalesce_ratio": coalesced / submitted if submitted else 0.0,
        "service.runs_simulated": _delta(after, before, "cache",
                                         "runs_simulated"),
    }
    return {name: (values[name], unit) for name, unit in SERVICE_UNITS.items()}


def service_traced(work: Path, seconds: float, reference: dict, seed: int,
                   timer) -> tuple[Outcome, dict]:
    jobs = reference["service_mixed"]["jobs"]
    outcome, plain = service_schedule(work, seed, seconds, jobs, setup=False)
    traced, seen = service_schedule(work, seed, seconds, jobs, timer=timer,
                                    setup=False)
    outcome.attempted += traced.attempted
    outcome.failed += traced.failed
    outcome.problems += traced.problems
    digests = {key: report_digest(r) for key, r in plain["reports"].items()}
    if digests != {k: report_digest(r) for k, r in seen["reports"].items()}:
        outcome.problems.append("traced reports differ from untraced")
    outcome.notes += traced.notes
    return outcome, {
        "passes": 1,
        "stats": [report["stats"] for report in seen["reports"].values()],
        "overhead": seen["busy"] / plain["busy"] - 1.0 if plain["busy"]
        else 0.0,
        "service": service_layer_metrics(plain),
    }
