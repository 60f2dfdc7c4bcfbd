"""Replica router: consistent-hash dispatch across N ``repro serve`` replicas.

One router process fronts a fleet of independent service replicas and
speaks the exact same wire protocol, so every existing client
(:class:`repro.service.client.ServiceClient`, ``repro submit``,
``repro loadtest``) works unchanged against it:

* ``POST /v1/jobs`` parses the payload just enough to compute its
  ``RunKey`` and forwards to the key's ring owner.  Consistent hashing
  is what keeps single-flight dedup working across replicas: every
  duplicate of a spec lands on the same replica, whose flight table
  coalesces it, and cold results land in the shared content-addressed
  disk cache (``REPRO_CACHE_DIR``) where every other replica reads them.
* ``GET /v1/jobs/{id}[...]`` proxies to the replica that admitted the
  job (the router remembers recent admissions; unknown ids fall back to
  asking every replica).
* ``GET /metrics`` aggregates every live replica's snapshot — counters
  and histograms sum bucket-wise, ring percentiles merge count-weighted
  — into the same shape ``ServiceMetrics.snapshot`` produces, so the
  Prometheus renderer and loadtest delta math apply unchanged.
* ``GET /healthz`` reports the fleet: ``ok`` / ``degraded`` / ``down``.

Health checking probes each replica's ``/healthz``; a draining replica
(graceful shutdown) or an unreachable one is evicted from the ring —
only its share of the keyspace remaps (consistent hashing's point) —
and re-added when it reports healthy again.

Everything is stdlib: ``http.server`` for the front end (one thread per
in-flight proxied request; the replicas do the heavy lifting) and
``http.client`` for the replica calls.
"""

from __future__ import annotations

import bisect
import hashlib
import http.client
import json
import signal
import subprocess
import sys
import threading
import time
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.service.errors import ServiceError
from repro.service.jobs import JobRequest

DEFAULT_ROUTER_PORT = 8764

#: Virtual nodes per replica.  128 points keeps the keyspace split
#: within a few percent of uniform for small fleets while the ring
#: stays tiny (N * 128 ints).
DEFAULT_VNODES = 128

#: Most-recent job-id -> replica admissions the router remembers.
JOB_MAP_CAPACITY = 8192


class NoHealthyReplicas(ServiceError):
    code = "no_healthy_replicas"
    http_status = 503


# ---------------------------------------------------------------------------
# Consistent hashing
# ---------------------------------------------------------------------------
class HashRing:
    """Consistent-hash ring with virtual nodes (stable SHA-256 points).

    Adding or removing a node only remaps the keys that hashed to that
    node's arcs — about ``1/len(nodes)`` of the keyspace — which is the
    property that preserves cross-replica single-flight dedup and cache
    locality through membership churn.
    """

    def __init__(self, nodes=(), vnodes: int = DEFAULT_VNODES) -> None:
        self.vnodes = max(1, int(vnodes))
        self._nodes: set[str] = set()
        self._points: list[int] = []
        self._owners: list[str] = []
        for node in nodes:
            self.add(node)

    @staticmethod
    def _point(label: str) -> int:
        return int(hashlib.sha256(label.encode()).hexdigest()[:16], 16)

    def add(self, node: str) -> None:
        if node in self._nodes:
            return
        self._nodes.add(node)
        for vnode in range(self.vnodes):
            point = self._point(f"{node}#{vnode}")
            index = bisect.bisect_left(self._points, point)
            self._points.insert(index, point)
            self._owners.insert(index, node)

    def remove(self, node: str) -> None:
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        keep = [
            (point, owner)
            for point, owner in zip(self._points, self._owners)
            if owner != node
        ]
        self._points = [point for point, _ in keep]
        self._owners = [owner for _, owner in keep]

    def nodes(self) -> list[str]:
        return sorted(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def owner(self, key: str, skip=()) -> str | None:
        """The node owning ``key``, walking past ``skip`` members."""
        if not self._points:
            return None
        index = bisect.bisect_right(self._points, self._point(key))
        for offset in range(len(self._points)):
            candidate = self._owners[(index + offset) % len(self._points)]
            if candidate not in skip:
                return candidate
        return None


# ---------------------------------------------------------------------------
# Metrics aggregation (pure functions over snapshot dicts)
# ---------------------------------------------------------------------------
def _merge_histogram(target: dict, part: dict) -> dict:
    """Sum two ``LatencyHistogram.summary()`` dicts bucket-wise."""
    if not target:
        return {
            "buckets": [list(pair) for pair in part.get("buckets", [])],
            "sum": part.get("sum", 0.0),
            "count": part.get("count", 0),
        }
    counts = {
        upper: count for upper, count in target.get("buckets", [])
    }
    for upper, count in part.get("buckets", []):
        counts[upper] = counts.get(upper, 0) + count
    return {
        "buckets": [[upper, counts[upper]] for upper in counts],
        "sum": target.get("sum", 0.0) + part.get("sum", 0.0),
        "count": target.get("count", 0) + part.get("count", 0),
    }


def _merge_ring_summary(parts: list[dict]) -> dict:
    """Merge latency-ring summaries: exact count/max, count-weighted
    percentiles (an approximation — exact merged quantiles would need
    the raw samples, which never leave a replica)."""
    total = sum(part.get("count", 0) for part in parts)
    if not total:
        return {"count": 0, "p50": 0.0, "p90": 0.0, "p99": 0.0, "max": 0.0}
    merged = {"count": total, "max": max(p.get("max", 0.0) for p in parts)}
    for quantile in ("p50", "p90", "p99"):
        merged[quantile] = sum(
            part.get(quantile, 0.0) * part.get("count", 0) for part in parts
        ) / total
    return merged


def _sum_counter_maps(parts: list[dict]) -> dict:
    out: dict = {}
    for part in parts:
        for key, value in (part or {}).items():
            if isinstance(value, bool):
                out[key] = out.get(key, False) or value
            elif isinstance(value, (int, float)):
                out[key] = out.get(key, 0) + value
            elif isinstance(value, dict):
                out[key] = _sum_counter_maps([out.get(key, {}), value])
    return out


def merge_snapshots(snapshots: list[dict]) -> dict:
    """Aggregate replica ``/metrics`` snapshots into one fleet snapshot.

    The result keeps the exact ``ServiceMetrics.snapshot`` shape, so
    ``render_prometheus`` and anything that reads per-field deltas
    (``repro loadtest``) work identically against a router.
    """
    snapshots = [snap for snap in snapshots if snap]
    doc: dict = {
        "aggregated": True,
        "replica_count": len(snapshots),
        "uptime_seconds": max(
            (snap.get("uptime_seconds", 0.0) for snap in snapshots),
            default=0.0,
        ),
        "flights_in_flight": sum(
            snap.get("flights_in_flight", 0) for snap in snapshots
        ),
        "latency_seconds": _merge_ring_summary(
            [snap.get("latency_seconds", {}) for snap in snapshots]
        ),
        "queue_wait_seconds": _merge_ring_summary(
            [snap.get("queue_wait_seconds", {}) for snap in snapshots]
        ),
    }
    for key in ("jobs", "lifecycle", "cycle_buckets", "trace_fates",
                "cache", "queue"):
        doc[key] = _sum_counter_maps(
            [snap.get(key, {}) for snap in snapshots]
        )
    histogram: dict = {}
    for snap in snapshots:
        histogram = _merge_histogram(
            histogram, snap.get("latency_histogram", {})
        )
    doc["latency_histogram"] = histogram
    spans: dict = {}
    for snap in snapshots:
        for name, part in (snap.get("spans") or {}).items():
            spans[name] = _merge_histogram(spans.get(name, {}), part or {})
    doc["spans"] = {name: spans[name] for name in sorted(spans)}
    workers: dict = {"kind": "fleet", "total": 0, "busy": 0,
                     "batches_total": 0, "batch_seconds": {}}
    for snap in snapshots:
        part = snap.get("workers") or {}
        workers["total"] += part.get("total", 0)
        workers["busy"] += part.get("busy", 0)
        workers["batches_total"] += part.get("batches_total", 0)
        workers["batch_seconds"] = _merge_histogram(
            workers["batch_seconds"], part.get("batch_seconds", {})
        )
    doc["workers"] = workers
    invocations = 0
    placed = 0.0
    fill = 0.0
    for snap in snapshots:
        util = snap.get("fabric_utilization") or {}
        weight = util.get("invocations_observed", 0)
        invocations += weight
        placed += util.get("placed_pe_ratio", 0.0) * weight
        fill += util.get("stripe_fill", 0.0) * weight
    doc["fabric_utilization"] = {
        "invocations_observed": invocations,
        "placed_pe_ratio": placed / invocations if invocations else 0.0,
        "stripe_fill": fill / invocations if invocations else 0.0,
    }
    return doc


# ---------------------------------------------------------------------------
# The router itself
# ---------------------------------------------------------------------------
class Replica:
    """One backend ``repro serve`` instance as the router sees it."""

    def __init__(self, host: str, port: int, proc=None) -> None:
        self.host = host
        self.port = port
        self.proc = proc  # subprocess handle when run_router spawned it
        self.state = "up"  # up | draining | down

    @property
    def name(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def healthy(self) -> bool:
        return self.state == "up"

    def describe(self) -> dict:
        return {"name": self.name, "state": self.state,
                "healthy": self.healthy}


class ReplicaRouter:
    """Routing + health state for a replica fleet (no sockets of its own;
    :class:`RouterServer` is the HTTP front end)."""

    def __init__(
        self,
        replicas=(),
        *,
        vnodes: int = DEFAULT_VNODES,
        health_interval: float | None = None,
        client_timeout: float = 30.0,
    ) -> None:
        self._lock = threading.Lock()
        self._replicas: dict[str, Replica] = {}
        self.ring = HashRing(vnodes=vnodes)
        self._jobs: OrderedDict[str, str] = OrderedDict()
        self.timeout = client_timeout
        self.stats: dict[str, int] = {
            "routed": 0, "rerouted": 0, "broadcast_lookups": 0,
            "evictions": 0, "recoveries": 0,
        }
        for host, port in replicas:
            self.add_replica(host, port)
        self._stop = threading.Event()
        self._health_thread: threading.Thread | None = None
        if health_interval:
            self._health_thread = threading.Thread(
                target=self._health_loop, args=(health_interval,),
                name="repro-router-health", daemon=True,
            )
            self._health_thread.start()

    # ------------------------------------------------------------------
    def add_replica(self, host: str, port: int, proc=None) -> Replica:
        replica = Replica(host, port, proc=proc)
        with self._lock:
            self._replicas[replica.name] = replica
            self.ring.add(replica.name)
        return replica

    def replicas(self) -> list[Replica]:
        with self._lock:
            return list(self._replicas.values())

    def close(self) -> None:
        self._stop.set()
        if self._health_thread is not None:
            self._health_thread.join(timeout=5)

    # ------------------------------------------------------------------
    def _call(
        self,
        replica: Replica,
        method: str,
        path: str,
        body: bytes | None = None,
        headers: dict | None = None,
    ) -> tuple[int, dict, bytes]:
        conn = http.client.HTTPConnection(
            replica.host, replica.port, timeout=self.timeout
        )
        try:
            conn.request(method, path, body=body, headers=headers or {})
            response = conn.getresponse()
            raw = response.read()
            return response.status, dict(response.getheaders()), raw
        finally:
            conn.close()

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def _health_loop(self, interval: float) -> None:
        while not self._stop.wait(interval):
            try:
                self.check_health_once()
            except Exception:  # noqa: BLE001 — health must never die
                pass

    def check_health_once(self) -> dict:
        """Probe every replica once; evict draining/unreachable members
        from the ring, re-admit recovered ones.  Returns states by name."""
        states: dict[str, str] = {}
        for replica in self.replicas():
            try:
                status, _, raw = self._call(replica, "GET", "/healthz")
                doc = json.loads(raw.decode() or "{}")
                health = doc.get("status") if status < 400 else "down"
            except (OSError, http.client.HTTPException,
                    json.JSONDecodeError):
                health = "down"
            new_state = {"ok": "up", "draining": "draining"}.get(
                health, "down"
            )
            with self._lock:
                old_state = replica.state
                replica.state = new_state
                if new_state == "up" and old_state != "up":
                    self.ring.add(replica.name)
                    self.stats["recoveries"] += 1
                elif new_state != "up" and old_state == "up":
                    self.ring.remove(replica.name)
                    self.stats["evictions"] += 1
            states[replica.name] = new_state
        return states

    def _mark_down(self, replica: Replica) -> None:
        with self._lock:
            if replica.state == "up":
                self.stats["evictions"] += 1
            replica.state = "down"
            self.ring.remove(replica.name)

    def health_doc(self) -> dict:
        replicas = self.replicas()
        healthy = sum(1 for replica in replicas if replica.healthy)
        if healthy == len(replicas) and replicas:
            status = "ok"
        elif healthy:
            status = "degraded"
        else:
            status = "down"
        return {
            "status": status,
            "router": True,
            "replicas": [replica.describe() for replica in replicas],
            "routing": dict(self.stats),
        }

    # ------------------------------------------------------------------
    # Request handling (each returns (status, headers, body-bytes))
    # ------------------------------------------------------------------
    @staticmethod
    def _error(status: int, code: str, message: str):
        body = json.dumps(
            {"error": {"code": code, "message": message}}
        ).encode()
        return status, {}, body

    def _remember_job(self, job_id: str, name: str) -> None:
        with self._lock:
            self._jobs[job_id] = name
            self._jobs.move_to_end(job_id)
            while len(self._jobs) > JOB_MAP_CAPACITY:
                self._jobs.popitem(last=False)

    def dispatch_job(self, body: bytes):
        """Route one job submission to its ``RunKey``'s ring owner.

        An unreachable owner is evicted and the next arc owner tried —
        the job still runs, on the replica that now owns the remapped
        key — so a single dead replica degrades capacity, not service.
        """
        try:
            payload = json.loads(body.decode() or "null")
        except (UnicodeDecodeError, json.JSONDecodeError):
            return self._error(400, "invalid_job",
                               "request body is not valid JSON")
        try:
            request = JobRequest.from_payload(payload)
        except ServiceError as exc:
            return exc.http_status, {}, json.dumps(exc.to_doc()).encode()
        tried: set[str] = set()
        attempts = 0
        while True:
            with self._lock:
                name = self.ring.owner(request.run_key, skip=tried)
                replica = self._replicas.get(name) if name else None
            if replica is None:
                return self._error(
                    503, NoHealthyReplicas.code,
                    "no healthy replicas to route to",
                )
            try:
                status, headers, raw = self._call(
                    replica, "POST", "/v1/jobs", body=body,
                    headers={"Content-Type": "application/json"},
                )
            except (OSError, http.client.HTTPException):
                self._mark_down(replica)
                tried.add(replica.name)
                attempts += 1
                self.stats["rerouted"] += 1
                continue
            self.stats["routed"] += 1
            if status == 202:
                try:
                    job_id = json.loads(raw.decode())["job"]["id"]
                    self._remember_job(job_id, replica.name)
                except (KeyError, TypeError, json.JSONDecodeError):
                    pass
            out_headers = {}
            if "Retry-After" in headers:
                out_headers["Retry-After"] = headers["Retry-After"]
            return status, out_headers, raw

    def proxy_job_get(self, path: str, job_id: str):
        """Proxy a job/progress read to the admitting replica, falling
        back to a fleet-wide lookup for ids the router never saw."""
        with self._lock:
            name = self._jobs.get(job_id)
            replica = self._replicas.get(name) if name else None
        candidates = [replica] if replica is not None else []
        if not candidates:
            self.stats["broadcast_lookups"] += 1
            candidates = self.replicas()
        last = self._error(404, "unknown_job", f"no such job: {job_id}")
        for candidate in candidates:
            try:
                status, _, raw = self._call(candidate, "GET", path)
            except (OSError, http.client.HTTPException):
                continue
            if status != 404:
                if job_id not in self._jobs:
                    self._remember_job(job_id, candidate.name)
                return status, {}, raw
            last = (status, {}, raw)
        return last

    def list_jobs(self):
        jobs: list = []
        for replica in self.replicas():
            if not replica.healthy:
                continue
            try:
                status, _, raw = self._call(replica, "GET", "/v1/jobs")
                if status < 400:
                    jobs.extend(json.loads(raw.decode()).get("jobs", []))
            except (OSError, http.client.HTTPException,
                    json.JSONDecodeError):
                continue
        jobs.sort(key=lambda job: job.get("created_at") or 0)
        return 200, {}, json.dumps({"jobs": jobs}).encode()

    def aggregated_metrics(self, accept: str = ""):
        snapshots = []
        for replica in self.replicas():
            if not replica.healthy:
                continue
            try:
                status, _, raw = self._call(replica, "GET", "/metrics")
                if status < 400:
                    snapshots.append(json.loads(raw.decode()))
            except (OSError, http.client.HTTPException,
                    json.JSONDecodeError):
                continue
        snapshot = merge_snapshots(snapshots)
        snapshot["replicas"] = [
            replica.describe() for replica in self.replicas()
        ]
        snapshot["routing"] = dict(self.stats)
        accept = (accept or "").lower()
        if "text/plain" in accept or "openmetrics" in accept:
            from repro.obs.prometheus import CONTENT_TYPE, render_prometheus

            return (200, {"Content-Type": CONTENT_TYPE},
                    render_prometheus(snapshot).encode())
        return 200, {}, json.dumps(snapshot).encode()


# ---------------------------------------------------------------------------
# HTTP front end
# ---------------------------------------------------------------------------
class _RouterHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, *args) -> None:  # quiet by default
        pass

    def _respond(self, result) -> None:
        status, headers, body = result
        self.send_response(status)
        self.send_header(
            "Content-Type", headers.get("Content-Type", "application/json")
        )
        for name, value in headers.items():
            if name != "Content-Type":
                self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        router: ReplicaRouter = self.server.router
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            doc = router.health_doc()
            self._respond((200, {}, json.dumps(doc).encode()))
        elif path == "/metrics":
            self._respond(
                router.aggregated_metrics(self.headers.get("Accept", ""))
            )
        elif path == "/v1/jobs":
            self._respond(router.list_jobs())
        elif path.startswith("/v1/jobs/") and path.endswith("/progress"):
            self._respond(router.proxy_job_get(path, path.split("/")[3]))
        elif path.startswith("/v1/jobs/") and path.count("/") == 3:
            self._respond(router.proxy_job_get(path, path.rsplit("/", 1)[1]))
        else:
            self._respond(ReplicaRouter._error(
                404, "http_error", f"no such endpoint: GET {path}"
            ))

    def do_POST(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        router: ReplicaRouter = self.server.router
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path != "/v1/jobs":
            self._respond(ReplicaRouter._error(
                404, "http_error", f"no such endpoint: POST {path}"
            ))
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = 0
        body = self.rfile.read(length) if length else b""
        self._respond(router.dispatch_job(body))


class RouterServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to a :class:`ReplicaRouter`."""

    daemon_threads = True

    def __init__(self, address, router: ReplicaRouter) -> None:
        super().__init__(address, _RouterHandler)
        self.router = router

    @property
    def port(self) -> int:
        return self.server_address[1]


# ---------------------------------------------------------------------------
# CLI entry point: spawn replicas, front them, drain on SIGTERM
# ---------------------------------------------------------------------------
def _spawn_replica(index: int, args: list[str]):
    """Start one ``repro serve --port 0`` child and parse its banner."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    banner = proc.stdout.readline() if proc.stdout else ""
    import re

    match = re.search(r"http://([0-9.]+):(\d+)", banner)
    if not match:
        proc.kill()
        raise RuntimeError(
            f"replica {index} printed no listen banner: {banner!r}"
        )
    host, port = match.group(1), int(match.group(2))

    def _pump() -> None:
        for line in proc.stdout:
            print(f"[replica-{index}] {line}", end="",
                  file=sys.stderr, flush=True)

    threading.Thread(
        target=_pump, name=f"replica-{index}-log", daemon=True
    ).start()
    return proc, host, port


def run_router(
    host: str = "127.0.0.1",
    port: int = DEFAULT_ROUTER_PORT,
    *,
    replicas: int = 2,
    workers: int | None = None,
    queue_depth: int = 64,
    vnodes: int = DEFAULT_VNODES,
    health_interval: float = 1.0,
) -> int:
    """``repro route`` body: spawn N replicas, route until SIGTERM, drain."""
    replica_args: list[str] = ["--queue-depth", str(queue_depth)]
    if workers:
        replica_args += ["--workers", str(workers)]

    router = ReplicaRouter(vnodes=vnodes, health_interval=health_interval)
    procs = []
    try:
        for index in range(max(1, replicas)):
            proc, replica_host, replica_port = _spawn_replica(
                index, replica_args
            )
            procs.append(proc)
            router.add_replica(replica_host, replica_port, proc=proc)
    except Exception:
        for proc in procs:
            proc.kill()
        router.close()
        raise

    server = RouterServer((host, port), router)
    print(
        f"repro.router listening on http://{host}:{server.port} "
        f"(replicas={len(procs)} "
        f"workers={workers or 'auto'} queue-depth={queue_depth})",
        flush=True,
    )

    def _shutdown(*_args) -> None:
        threading.Thread(target=server.shutdown, daemon=True).start()

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _shutdown)
    try:
        server.serve_forever()
    finally:
        print("repro.router draining replicas ...", flush=True)
        for proc in procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        drained = 0
        for proc in procs:
            try:
                proc.wait(timeout=180)
                drained += 1
            except subprocess.TimeoutExpired:
                proc.kill()
        router.close()
        server.server_close()
        print(f"repro.router drained (replicas={drained}/{len(procs)})",
              flush=True)
    return 0
