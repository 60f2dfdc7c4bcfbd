"""Small blocking client for the simulation service.

One fresh ``http.client`` connection per request (the server speaks
``Connection: close``), JSON in/out, typed exceptions::

    client = ServiceClient(port=8763)
    report = client.run("KM", scale=0.25)          # submit + wait
    job = client.submit("BFS", scale=0.5)          # fire and poll later
    doc = client.wait(job["id"], timeout=120)
"""

from __future__ import annotations

import http.client
import json
import random
import time

from repro.service.errors import (
    Draining,
    InvalidJob,
    ServiceError,
    UnknownJob,
)

DEFAULT_PORT = 8763

#: Poll-backoff ceiling: a long job is checked at most every ~2s.
POLL_CAP_SECONDS = 2.0
POLL_BACKOFF_FACTOR = 1.7


def poll_intervals(
    initial: float = 0.05,
    cap: float = POLL_CAP_SECONDS,
    factor: float = POLL_BACKOFF_FACTOR,
    rng=None,
):
    """Yield capped, exponentially growing poll delays with jitter.

    Each delay is the current base times a uniform 0.5–1.5 jitter,
    clamped to ``cap``.  The jitter decorrelates a fleet of waiting
    clients (a loadtest, N CI jobs) so their status polls don't arrive
    in lockstep; the cap bounds worst-case completion-detection lag.
    ``rng`` is an injection seam for deterministic tests (a callable
    returning uniform [0, 1) floats).
    """
    rng = rng if rng is not None else random.random
    base = max(0.001, float(initial))
    while True:
        yield min(cap, base * (0.5 + rng()))
        base = min(cap, base * factor)


class ServiceUnreachable(ServiceError):
    """The server could not be reached (connect/read failure)."""

    code = "unreachable"


class ServerBusy(ServiceError):
    """The server rejected the job with 429; honor ``retry_after``."""

    code = "queue_full"
    http_status = 429

    def __init__(self, message: str, retry_after: int = 1) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class JobFailed(ServiceError):
    """The job reached the ``failed`` state; ``job`` is its final doc."""

    code = "job_failed"

    def __init__(self, job: dict) -> None:
        super().__init__(job.get("error") or "job failed")
        self.job = job


class ServiceClient:
    """Blocking HTTP client; safe to share across threads (stateless)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        timeout: float = 30.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # ------------------------------------------------------------------
    def _request(self, method: str, path: str, payload: dict | None = None):
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            status = response.status
            retry_after = response.getheader("Retry-After")
        except (ConnectionError, OSError, http.client.HTTPException) as exc:
            raise ServiceUnreachable(
                f"cannot reach repro service at "
                f"{self.host}:{self.port}: {exc}"
            ) from exc
        finally:
            conn.close()
        try:
            doc = json.loads(raw.decode() or "null")
        except (UnicodeDecodeError, json.JSONDecodeError):
            doc = None
        if status < 400:
            return doc
        message = "unexpected error"
        if isinstance(doc, dict):
            message = doc.get("error", {}).get("message", message)
        if status == 429:
            raise ServerBusy(message, retry_after=int(retry_after or 1))
        if status == 400:
            raise InvalidJob(message)
        if status == 404:
            raise UnknownJob(message)
        if status == 503:
            raise Draining(message)
        error = ServiceError(message)
        error.http_status = status
        raise error

    # ------------------------------------------------------------------
    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics(self) -> dict:
        return self._request("GET", "/metrics")

    def metrics_text(self) -> str:
        """Prometheus text exposition from ``/metrics`` (Accept-negotiated)."""
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            conn.request("GET", "/metrics",
                         headers={"Accept": "text/plain"})
            response = conn.getresponse()
            raw = response.read()
            if response.status >= 400:
                raise ServiceError(
                    f"/metrics returned HTTP {response.status}"
                )
        except (ConnectionError, OSError, http.client.HTTPException) as exc:
            raise ServiceUnreachable(
                f"cannot reach repro service at "
                f"{self.host}:{self.port}: {exc}"
            ) from exc
        finally:
            conn.close()
        return raw.decode("utf-8")

    def jobs(self) -> list[dict]:
        return self._request("GET", "/v1/jobs")["jobs"]

    def submit(self, benchmark: str, **knobs) -> dict:
        """Submit a job; returns its (queued) document."""
        payload = {"benchmark": benchmark, **knobs}
        return self._request("POST", "/v1/jobs", payload)["job"]

    def job(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}")["job"]

    def wait(
        self,
        job_id: str,
        timeout: float = 600.0,
        poll_interval: float = 0.05,
        on_change=None,
    ) -> dict:
        """Poll until the job is terminal; returns the final document.

        ``on_change(doc)``, when given, is called with the job document
        once per newly seen ``state``; an exception it raises is
        swallowed, so a rendering error never aborts the wait.
        Raises :class:`JobFailed` on the ``failed`` state and
        :class:`TimeoutError` when the deadline passes first.
        Polling backs off exponentially with jitter from
        ``poll_interval`` up to ~2s per probe (see
        :func:`poll_intervals`).
        """
        deadline = time.monotonic() + timeout
        intervals = poll_intervals(poll_interval)
        last = None
        while True:
            doc = self.job(job_id)
            if on_change is not None and doc["state"] != last:
                last = doc["state"]
                try:
                    on_change(doc)
                except Exception:  # noqa: BLE001 — render errors don't abort
                    pass
            if doc["state"] == "done":
                return doc
            if doc["state"] == "failed":
                raise JobFailed(doc)
            now = time.monotonic()
            if now >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {doc['state']} after {timeout:g}s"
                )
            time.sleep(min(next(intervals), max(0.0, deadline - now)))

    def run(self, benchmark: str, *, timeout: float = 600.0, **knobs) -> dict:
        """Submit and wait; returns the simulation report itself."""
        job = self.submit(benchmark, **knobs)
        return self.wait(job["id"], timeout=timeout)["result"]
