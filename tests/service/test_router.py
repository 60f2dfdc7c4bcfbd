"""Tests for the replica router: hash ring, snapshot merge, and e2e."""

import json
import urllib.request

import pytest

from repro.service.jobs import JobRequest
from repro.service.router import (
    HashRing,
    ReplicaRouter,
    RouterServer,
    merge_snapshots,
)
from repro.service.server import ThreadedServer


def _run_keys(count):
    """Realistic RunKey-shaped keys: the same derivation the router uses."""
    keys = []
    for index in range(count):
        request = JobRequest(
            benchmark="KM", scale=round(0.01 + index * 1e-4, 6)
        )
        keys.append(request.run_key)
    return keys


# ---------------------------------------------------------------------------
# Consistent hashing (satellite: distribution + remap properties)
# ---------------------------------------------------------------------------
def test_ring_spreads_run_keys_evenly_across_four_replicas():
    replicas = [f"127.0.0.1:{9000 + i}" for i in range(4)]
    ring = HashRing(replicas)
    keys = _run_keys(4000)
    counts = {name: 0 for name in replicas}
    for key in keys:
        counts[ring.owner(key)] += 1
    expected = len(keys) / len(replicas)
    for name, count in counts.items():
        assert abs(count - expected) <= 0.20 * expected, (
            f"{name} owns {count} keys; expected {expected} +/- 20%"
        )


def test_ring_removal_remaps_only_departed_replicas_keys():
    replicas = [f"127.0.0.1:{9000 + i}" for i in range(4)]
    ring = HashRing(replicas)
    keys = _run_keys(4000)
    before = {key: ring.owner(key) for key in keys}
    departed = replicas[1]
    ring.remove(departed)
    moved = 0
    for key in keys:
        owner = ring.owner(key)
        if owner != before[key]:
            # Only keys the departed replica owned may move, and every
            # one of its keys must move somewhere live.
            assert before[key] == departed
            moved += 1
        assert owner != departed
    fraction = moved / len(keys)
    assert 0.15 <= fraction <= 0.35, (
        f"removal remapped {fraction:.1%} of keys; expected ~1/4"
    )


def test_ring_readdition_restores_prior_ownership():
    replicas = [f"127.0.0.1:{9000 + i}" for i in range(3)]
    ring = HashRing(replicas)
    keys = _run_keys(500)
    before = {key: ring.owner(key) for key in keys}
    ring.remove(replicas[0])
    ring.add(replicas[0])
    assert {key: ring.owner(key) for key in keys} == before


def test_ring_owner_skips_and_empty():
    ring = HashRing(["a", "b"])
    assert ring.owner("some-key", skip={"a", "b"}) is None
    assert HashRing().owner("some-key") is None
    owner = ring.owner("some-key")
    other = ring.owner("some-key", skip={owner})
    assert other is not None and other != owner


# ---------------------------------------------------------------------------
# Snapshot aggregation
# ---------------------------------------------------------------------------
def test_merge_snapshots_sums_counters_and_histograms():
    part = {
        "uptime_seconds": 10.0,
        "flights_in_flight": 1,
        "jobs": {"submitted": 4, "completed": 3, "coalesced": 1},
        "queue": {"depth": 8, "size": 2},
        "cache": {"run_memo": {"hits": 5, "misses": 2}},
        "latency_seconds": {"count": 2, "p50": 0.2, "p90": 0.3,
                            "p99": 0.4, "max": 0.5},
        "latency_histogram": {
            "buckets": [[0.1, 1], [1.0, 1]], "sum": 0.6, "count": 2,
        },
        "workers": {
            "kind": "process", "total": 2, "busy": 1, "batches_total": 3,
            "batch_seconds": {"buckets": [[1.0, 3]], "sum": 1.5, "count": 3},
        },
        "fabric_utilization": {
            "invocations_observed": 10, "placed_pe_ratio": 0.5,
            "stripe_fill": 0.4,
        },
        "spans": {"sim.execute_spec": {"buckets": [[1.0, 2]],
                                       "sum": 0.4, "count": 2}},
    }
    other = json.loads(json.dumps(part))
    other["jobs"]["submitted"] = 6
    other["latency_seconds"] = {"count": 6, "p50": 0.6, "p90": 0.7,
                               "p99": 0.8, "max": 0.9}
    other["fabric_utilization"]["placed_pe_ratio"] = 0.9

    merged = merge_snapshots([part, other])
    assert merged["aggregated"] is True
    assert merged["replica_count"] == 2
    assert merged["jobs"]["submitted"] == 10
    assert merged["jobs"]["coalesced"] == 2
    assert merged["cache"]["run_memo"]["hits"] == 10
    assert merged["latency_histogram"]["count"] == 4
    assert merged["latency_histogram"]["sum"] == pytest.approx(1.2)
    assert merged["workers"]["total"] == 4
    assert merged["workers"]["busy"] == 2
    assert merged["workers"]["batch_seconds"]["count"] == 6
    # Count-weighted percentile merge: (0.2*2 + 0.6*6) / 8
    assert merged["latency_seconds"]["p50"] == pytest.approx(0.5)
    assert merged["latency_seconds"]["max"] == 0.9
    # Invocation-weighted fabric utilization: (0.5 + 0.9) / 2
    assert merged["fabric_utilization"]["placed_pe_ratio"] == (
        pytest.approx(0.7)
    )
    assert merged["spans"]["sim.execute_spec"]["count"] == 4


def test_merge_snapshots_empty_is_zero_filled():
    merged = merge_snapshots([])
    assert merged["replica_count"] == 0
    assert merged["jobs"] == {}
    assert merged["latency_seconds"]["count"] == 0
    assert merged["workers"]["total"] == 0


# ---------------------------------------------------------------------------
# End-to-end over live replicas
# ---------------------------------------------------------------------------
@pytest.fixture()
def fleet():
    replicas = [
        ThreadedServer(port=0, queue_depth=16, workers=2)
        for _ in range(2)
    ]
    for replica in replicas:
        replica.start()
    router = ReplicaRouter(
        [("127.0.0.1", replica.port) for replica in replicas]
    )
    server = RouterServer(("127.0.0.1", 0), router)
    import threading

    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, router, replicas
    finally:
        server.shutdown()
        server.server_close()
        router.close()
        for replica in replicas:
            replica.stop()


def _http(port, method, path, payload=None):
    body = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=body, method=method,
        headers={"Content-Type": "application/json"} if body else {},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read().decode())


def test_router_end_to_end_submit_poll_metrics(fleet):
    server, router, replicas = fleet
    port = server.port
    status, doc = _http(port, "GET", "/healthz")
    assert status == 200
    assert doc["status"] == "ok"
    assert len(doc["replicas"]) == 2

    status, doc = _http(port, "POST", "/v1/jobs",
                        {"benchmark": "KM", "scale": 0.05})
    assert status == 202
    job_id = doc["job"]["id"]

    # Duplicate payload must land on the same replica (same RunKey) so
    # the flight table can coalesce it.
    status, dup = _http(port, "POST", "/v1/jobs",
                        {"benchmark": "KM", "scale": 0.05})
    assert status == 202

    import time

    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        status, doc = _http(port, "GET", f"/v1/jobs/{job_id}")
        if doc["job"]["state"] in ("done", "failed"):
            break
        time.sleep(0.05)
    assert doc["job"]["state"] == "done"
    assert doc["job"]["result"]["benchmark"] == "KM"

    status, dup_doc = _http(port, "GET", f"/v1/jobs/{dup['job']['id']}")
    assert dup_doc["job"]["state"] in ("done", "running", "queued")

    status, listing = _http(port, "GET", "/v1/jobs")
    ids = {job["id"] for job in listing["jobs"]}
    assert {job_id, dup["job"]["id"]} <= ids

    status, metrics = _http(port, "GET", "/metrics")
    assert metrics["aggregated"] is True
    assert metrics["replica_count"] == 2
    assert metrics["jobs"]["submitted"] >= 2
    assert metrics["workers"]["total"] == 4  # 2 replicas x 2 workers
    assert metrics["routing"]["routed"] >= 2

    # Prometheus rendering works against the merged snapshot.
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/metrics",
        headers={"Accept": "text/plain"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        text = response.read().decode()
    assert 'repro_jobs_total{outcome="submitted"}' in text
    assert "repro_workers_total 4" in text


def test_router_health_check_evicts_draining_replica(fleet):
    server, router, replicas = fleet
    states = router.check_health_once()
    assert set(states.values()) == {"up"}
    assert len(router.ring) == 2

    # Ask one replica to drain; the next health pass must evict it.
    replicas[0].server.queue.close()
    states = router.check_health_once()
    name = f"127.0.0.1:{replicas[0].port}"
    assert states[name] == "draining"
    assert len(router.ring) == 1
    assert name not in router.ring.nodes()
    assert router.stats["evictions"] == 1
    assert router.health_doc()["status"] == "degraded"

    # Every submission now routes to the surviving replica.
    status, doc = _http(server.port, "POST", "/v1/jobs",
                        {"benchmark": "NW", "scale": 0.05})
    assert status == 202
    survivor = f"127.0.0.1:{replicas[1].port}"
    assert router._jobs[doc["job"]["id"]] == survivor
