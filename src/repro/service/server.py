"""Asyncio HTTP/1.1 front end for the simulation service (stdlib only).

The wire protocol is deliberately tiny: JSON request/response bodies,
``Connection: close`` per request, bounded header and body sizes.

Endpoints::

    GET  /healthz        -> {"status": "ok" | "draining"}
    GET  /metrics        -> counters, queue gauges, latency percentiles
                            (JSON by default; ``Accept: text/plain`` gets
                            Prometheus text exposition 0.0.4)
    POST /v1/jobs        -> 202 {"job": {...}} | 400 | 429 (+Retry-After) | 503
    GET  /v1/jobs        -> {"jobs": [...]} (retained jobs, no result bodies)
    GET  /v1/jobs/{id}   -> job document with result when done | 404

Graceful shutdown (``SIGTERM``/``SIGINT`` under ``repro serve``): the
listener closes, the queue stops admitting (503), and the scheduler
drains every already-admitted job before the process exits 0.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading

from repro.obs.runtime import TRACER
from repro.service.errors import ServiceError
from repro.service.jobs import JobRequest
from repro.service.metrics import ServiceMetrics
from repro.service.queue import JobQueue
from repro.service.scheduler import Scheduler

DEFAULT_PORT = 8763

MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 256 * 1024
READ_TIMEOUT = 30.0

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ServiceServer:
    """One service instance: queue + scheduler + metrics + listener."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        *,
        workers: int | None = None,
        queue_depth: int = 64,
        retention: int = 256,
        pool: str = "process",
    ) -> None:
        # Forked processes are the only pool; the keyword stays so that
        # embedders that name it keep working.
        if pool != "process":
            raise ValueError(
                f"unknown worker pool {pool!r}; the only pool is 'process'"
            )
        self.host = host
        self.port = port
        self.queue = JobQueue(depth=queue_depth, retention=retention)
        self.metrics = ServiceMetrics()
        self.scheduler = Scheduler(self.queue, self.metrics, workers=workers)
        self.workers = self.scheduler.workers
        self._server: asyncio.base_events.Server | None = None
        # Host-runtime telemetry: the service always traces (spans feed
        # the `repro_span_duration_seconds` histograms on /metrics; the
        # JSONL log additionally attaches when REPRO_LOG is set).  The
        # run_id spans every job of this server's lifetime; per-flight
        # job_id/run_key attrs come from the scheduler's bindings.
        self._tracer_was_enabled = TRACER.enabled
        self.run_id = TRACER.enable()
        self._span_listener = self.metrics.span_listener()
        TRACER.add_listener(self._span_listener)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.scheduler.start()

    async def stop(self) -> None:
        """Graceful shutdown: stop listening, stop admitting, drain."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.queue.close()
        await self.scheduler.drain()
        TRACER.remove_listener(self._span_listener)
        if not self._tracer_was_enabled:
            TRACER.disable()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            status, extra_headers, body = await self._handle_request(reader)
        except _HttpError as exc:
            status, extra_headers = exc.status, {}
            body = json.dumps(
                {"error": {"code": "http_error", "message": str(exc)}}
            ).encode()
        except Exception as exc:  # noqa: BLE001 — never kill the acceptor
            status, extra_headers = 500, {}
            body = json.dumps(
                {"error": {"code": "internal_error",
                           "message": f"{type(exc).__name__}: {exc}"}}
            ).encode()
        try:
            writer.write(self._render(status, extra_headers, body))
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    def _render(status: int, extra_headers: dict, body: bytes) -> bytes:
        reason = _REASONS.get(status, "Unknown")
        extra = dict(extra_headers)
        content_type = extra.pop("Content-Type", "application/json")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        lines += [f"{name}: {value}" for name, value in extra.items()]
        return ("\r\n".join(lines) + "\r\n\r\n").encode() + body

    async def _handle_request(self, reader):
        try:
            request_line = await asyncio.wait_for(
                reader.readline(), timeout=READ_TIMEOUT
            )
        except asyncio.TimeoutError:
            raise _HttpError(408, "timed out reading request") from None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise _HttpError(400, "malformed request line")
        method, target, _version = parts

        headers: dict[str, str] = {}
        total = 0
        while True:
            line = await asyncio.wait_for(
                reader.readline(), timeout=READ_TIMEOUT
            )
            total += len(line)
            if total > MAX_HEADER_BYTES:
                raise _HttpError(413, "headers too large")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()

        body = b""
        length = headers.get("content-length")
        if length is not None:
            try:
                length = int(length)
            except ValueError:
                raise _HttpError(400, "bad Content-Length") from None
            if length > MAX_BODY_BYTES:
                raise _HttpError(413, "request body too large")
            if length:
                body = await asyncio.wait_for(
                    reader.readexactly(length), timeout=READ_TIMEOUT
                )
        path = target.split("?", 1)[0].rstrip("/") or "/"
        return self._route(method.upper(), path, body, headers)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route(self, method: str, path: str, body: bytes,
               headers: dict | None = None):
        headers = headers or {}
        try:
            if path == "/healthz" and method == "GET":
                return self._get_health()
            if path == "/metrics" and method == "GET":
                return self._get_metrics(headers.get("accept", ""))
            if path == "/v1/jobs":
                if method == "POST":
                    return self._post_job(body)
                if method == "GET":
                    return self._list_jobs()
                raise _HttpError(405, f"{method} not allowed on {path}")
            if path.startswith("/v1/jobs/") and path.count("/") == 3:
                if method != "GET":
                    raise _HttpError(405, f"{method} not allowed on {path}")
                return self._get_job(path.rsplit("/", 1)[1])
            raise _HttpError(404, f"no such endpoint: {method} {path}")
        except ServiceError as exc:
            extra = {}
            if getattr(exc, "retry_after", None) is not None:
                extra["Retry-After"] = str(exc.retry_after)
            return exc.http_status, extra, json.dumps(exc.to_doc()).encode()

    @staticmethod
    def _ok(doc: dict, status: int = 200, extra: dict | None = None):
        return status, extra or {}, json.dumps(doc).encode()

    def _get_health(self):
        status = "draining" if self.queue.closed else "ok"
        return self._ok({"status": status})

    def _get_metrics(self, accept: str = ""):
        snapshot = self.metrics.snapshot(self.queue, self.scheduler)
        accept = accept.lower()
        if "text/plain" in accept or "openmetrics" in accept:
            from repro.obs.prometheus import CONTENT_TYPE, render_prometheus

            return (200, {"Content-Type": CONTENT_TYPE},
                    render_prometheus(snapshot).encode())
        return self._ok(snapshot)

    def _post_job(self, body: bytes):
        try:
            payload = json.loads(body.decode() or "null")
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise _HttpError(400, "request body is not valid JSON") from None
        request = JobRequest.from_payload(payload)
        try:
            job = self.queue.submit(request)
        except ServiceError as exc:
            if exc.http_status == 429:
                exc.retry_after = self.metrics.retry_after_hint(
                    self.queue.open_count(), self.workers
                )
                self.metrics.bump("rejected")
            raise
        self.metrics.bump("submitted")
        self.scheduler.wake()
        return self._ok({"job": job.to_doc(include_result=False)}, status=202)

    def _get_job(self, job_id: str):
        job = self.queue.get(job_id)
        return self._ok({"job": job.to_doc()})

    def _list_jobs(self):
        return self._ok(
            {"jobs": [job.to_doc(include_result=False)
                      for job in self.queue.jobs()]}
        )


# ---------------------------------------------------------------------------
# Blocking entry points
# ---------------------------------------------------------------------------
def run_server(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    *,
    workers: int | None = None,
    queue_depth: int = 64,
) -> int:
    """Run a server until SIGTERM/SIGINT, drain, and return 0 (CLI body)."""

    async def _main() -> None:
        server = ServiceServer(
            host, port, workers=workers, queue_depth=queue_depth
        )
        await server.start()
        print(
            f"repro.service listening on http://{server.host}:{server.port} "
            f"(workers={server.workers} queue-depth={queue_depth})",
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                signal.signal(signum, lambda *_: stop.set())
        await stop.wait()
        print("repro.service draining ...", flush=True)
        await server.stop()
        stats = server.queue.stats()
        print(
            f"repro.service drained (done={stats['done_total']} "
            f"failed={stats['failed_total']}), exiting",
            flush=True,
        )

    asyncio.run(_main())
    return 0


class ThreadedServer:
    """A server on a background thread (tests and in-process embedding).

    Usage::

        with ThreadedServer(queue_depth=8) as server:
            client = ServiceClient(port=server.port)
            ...
    """

    def __init__(self, **kwargs) -> None:
        kwargs.setdefault("port", 0)
        self.server = ServiceServer(**kwargs)
        self._loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.server.start())
        except BaseException as exc:  # surface bind errors to the caller
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        self._loop.run_forever()
        self._loop.run_until_complete(self.server.stop())
        self._loop.close()

    def start(self) -> "ThreadedServer":
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def stop(self) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=60)

    def __enter__(self) -> "ThreadedServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
