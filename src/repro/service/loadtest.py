"""Open-loop load generator + SLO report for the simulation service.

``repro loadtest`` drives a running service (a single ``repro serve`` or
a ``repro route`` fleet — same wire protocol) with a Poisson-free,
deterministic open-loop schedule: job *i* is due at ``i / rate`` seconds
after start (a duplicate-heavy burst is due at once, at its first job's
time), and its latency is measured **from that due time**, not
from when the client thread got around to submitting it.  That is the
standard defense against coordinated omission — a closed-loop client
that waits for each response before sending the next one hides every
queueing delay the service caused.

Traffic mixes:

* ``cold-heavy``     — every job is a distinct ``RunKey`` (benchmark
  rotation x per-job scale jitter): measures raw simulation throughput,
  i.e. how many cores the worker pool really turns into jobs/sec.
* ``duplicate-heavy`` — bursts of identical payloads back-to-back:
  measures single-flight dedup (the coalesce ratio) and shared-cache
  reuse.
* ``mixed``          — alternating halves of each.

The JSON report carries client-side numbers (throughput, p50/p99 from
the due-time clock) and server-side deltas read from ``/metrics`` before
and after the run (coalesce ratio, worker utilization, and the
submitted == completed + failed conservation check).
``scripts/check_loadtest_slo.py`` gates CI on it the way
``check_perf_slo`` gates perfbench.
"""

from __future__ import annotations

import math
import random
import threading
import time

from repro.service.client import (
    JobFailed,
    ServerBusy,
    ServiceClient,
    ServiceUnreachable,
)

LOADTEST_SCHEMA_VERSION = 1

MIXES = ("cold-heavy", "duplicate-heavy", "mixed")

#: Consecutive identical submissions per duplicate-heavy burst.  A
#: burst's jobs share one due time, so its duplicates arrive while the
#: first one's flight is still open, which is what makes coalescing
#: observable.
BURST = 3

#: Benchmarks the generator rotates through — small Table 3 kernels so
#: a smoke-scale loadtest stays cheap.
BENCHMARK_ROTATION = ("KM", "NW", "BFS")


def _duplicate_bases(scale: float) -> list[dict]:
    return [
        {"benchmark": abbrev, "scale": round(scale * (1 + 0.5 * index), 6)}
        for index, abbrev in enumerate(BENCHMARK_ROTATION)
    ]


def build_schedule(
    mix: str, total: int, *, scale: float = 0.05, seed: int = 0
) -> list[dict]:
    """The deterministic payload sequence for a mix (``total`` entries)."""
    if mix not in MIXES:
        raise ValueError(f"unknown mix {mix!r}; expected one of {MIXES}")
    rng = random.Random(seed)
    payloads: list[dict] = []
    bases = _duplicate_bases(scale)
    cold_index = 0
    for index in range(total):
        if mix == "duplicate-heavy":
            base = bases[(index // BURST) % len(bases)]
            payloads.append(dict(base))
        elif mix == "cold-heavy":
            abbrev = BENCHMARK_ROTATION[
                cold_index % len(BENCHMARK_ROTATION)
            ]
            # Unique scale per job => unique RunKey => a real simulation
            # (modulo prior disk-cache state) instead of a dedup hit.
            jitter = 1.0 + 0.003 * cold_index + 0.0001 * rng.random()
            payloads.append(
                {"benchmark": abbrev, "scale": round(scale * jitter, 6)}
            )
            cold_index += 1
        else:  # mixed: even slots duplicate a base, odd slots are cold
            if index % 2 == 0:
                payloads.append(dict(bases[(index // 2) % len(bases)]))
            else:
                jitter = 1.0 + 0.003 * cold_index + 0.0001 * rng.random()
                payloads.append({
                    "benchmark": BENCHMARK_ROTATION[
                        cold_index % len(BENCHMARK_ROTATION)
                    ],
                    "scale": round(scale * jitter, 6),
                })
                cold_index += 1
    return payloads


def _percentiles(samples: list[float]) -> dict:
    if not samples:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p90": 0.0,
                "p99": 0.0, "max": 0.0}
    ordered = sorted(samples)

    def rank(pct: float) -> float:
        position = math.ceil(pct / 100.0 * len(ordered))
        return ordered[max(0, min(len(ordered) - 1, position - 1))]

    return {
        "count": len(ordered),
        "mean": sum(ordered) / len(ordered),
        "p50": rank(50),
        "p90": rank(90),
        "p99": rank(99),
        "max": ordered[-1],
    }


def _delta(after: dict, before: dict, *path) -> float:
    node_a, node_b = after, before
    for key in path:
        node_a = (node_a or {}).get(key, 0)
        node_b = (node_b or {}).get(key, 0)
    try:
        return (node_a or 0) - (node_b or 0)
    except TypeError:
        return 0


def run_loadtest(
    host: str = "127.0.0.1",
    port: int = 8763,
    *,
    rate: float = 2.0,
    duration: float | None = 5.0,
    total: int | None = None,
    mix: str = "cold-heavy",
    scale: float = 0.05,
    seed: int = 0,
    timeout: float = 300.0,
    poll_interval: float = 0.02,
) -> dict:
    """Run one open-loop loadtest and return the report dict.

    ``total`` overrides ``ceil(rate * duration)``.  Raises
    :class:`ServiceUnreachable` if the target is down at the start.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if total is None:
        total = max(1, math.ceil(rate * (duration or 5.0)))
    payloads = build_schedule(mix, total, scale=scale, seed=seed)
    client = ServiceClient(host, port, timeout=min(timeout, 60.0))
    before = client.metrics()

    lock = threading.Lock()
    records: list[dict] = []
    start = time.monotonic()

    def drive(index: int, payload: dict) -> None:
        slot = index - index % BURST if mix == "duplicate-heavy" else index
        due = start + slot / rate
        delay = due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        record = {"index": index, "benchmark": payload["benchmark"],
                  "outcome": "error"}
        submit_t0 = time.monotonic()
        try:
            job = client.submit(**payload)
            record["submit_seconds"] = time.monotonic() - submit_t0
            final = client.wait(
                job["id"], timeout=timeout, poll_interval=poll_interval
            )
            record["outcome"] = "completed"
            record["coalesced"] = bool(final.get("coalesced"))
        except ServerBusy as exc:
            record["outcome"] = "rejected"
            record["retry_after"] = exc.retry_after
        except JobFailed as exc:
            record["outcome"] = "failed"
            record["error"] = str(exc)
        except (ServiceUnreachable, TimeoutError) as exc:
            record["outcome"] = "error"
            record["error"] = str(exc)
        # Latency from the *scheduled* arrival: includes any client-side
        # submit stall the server caused (coordinated-omission-safe).
        record["latency_seconds"] = time.monotonic() - due
        with lock:
            records.append(record)

    threads = [
        threading.Thread(
            target=drive, args=(index, payload),
            name=f"loadtest-{index}", daemon=True,
        )
        for index, payload in enumerate(payloads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.monotonic() - start
    after = client.metrics()

    outcomes = {"completed": 0, "failed": 0, "rejected": 0, "error": 0}
    for record in records:
        outcomes[record["outcome"]] = outcomes.get(record["outcome"], 0) + 1
    completed_latencies = [
        record["latency_seconds"] for record in records
        if record["outcome"] == "completed"
    ]
    submit_latencies = [
        record["submit_seconds"] for record in records
        if "submit_seconds" in record
    ]
    client_coalesced = sum(
        1 for record in records if record.get("coalesced")
    )

    submitted_delta = _delta(after, before, "jobs", "submitted")
    completed_delta = _delta(after, before, "jobs", "completed")
    failed_delta = _delta(after, before, "jobs", "failed")
    coalesced_delta = _delta(after, before, "jobs", "coalesced")
    workers_total = (after.get("workers") or {}).get("total", 0)
    busy_seconds = _delta(
        after, before, "workers", "batch_seconds", "sum"
    )
    utilization = (
        busy_seconds / (workers_total * wall)
        if workers_total and wall > 0 else 0.0
    )

    return {
        "experiment": "loadtest",
        "loadtest_schema_version": LOADTEST_SCHEMA_VERSION,
        "url": f"http://{host}:{port}",
        "mix": mix,
        "scale": scale,
        "seed": seed,
        "rate_target_jobs_per_sec": rate,
        "jobs_total": total,
        "wall_clock_seconds": wall,
        "client": {
            "attempted": len(records),
            "completed": outcomes["completed"],
            "failed": outcomes["failed"],
            "rejected": outcomes["rejected"],
            "errors": outcomes["error"],
            "coalesced_observed": client_coalesced,
        },
        "throughput_jobs_per_sec": (
            outcomes["completed"] / wall if wall > 0 else 0.0
        ),
        "latency_seconds": _percentiles(completed_latencies),
        "submit_latency_seconds": _percentiles(submit_latencies),
        "server": {
            "workers": {
                "kind": (after.get("workers") or {}).get("kind", "none"),
                "total": workers_total,
                "busy_seconds_delta": busy_seconds,
                "utilization": min(1.0, utilization),
            },
            "submitted_delta": submitted_delta,
            "completed_delta": completed_delta,
            "failed_delta": failed_delta,
            "coalesced_delta": coalesced_delta,
            "rejected_delta": _delta(after, before, "jobs", "rejected"),
            "coalesce_ratio": (
                coalesced_delta / submitted_delta if submitted_delta else 0.0
            ),
            "conserved": submitted_delta == completed_delta + failed_delta,
        },
    }


def summarize(report: dict) -> str:
    """One human line for the CLI (stdout stays the JSON document)."""
    latency = report["latency_seconds"]
    server = report["server"]
    conserved = "conserved" if server["conserved"] else "NOT CONSERVED"
    return (
        f"loadtest({report['mix']}): "
        f"{report['throughput_jobs_per_sec']:.2f} jobs/s | "
        f"p50 {latency['p50']:.3f}s p99 {latency['p99']:.3f}s | "
        f"coalesce {100 * server['coalesce_ratio']:.1f}% | "
        f"util {100 * server['workers']['utilization']:.1f}% | "
        f"{conserved}"
    )
