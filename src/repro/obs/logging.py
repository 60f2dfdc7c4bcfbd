"""Structured JSONL logging for host-runtime telemetry.

One line per record, appended to the file named by ``REPRO_LOG`` (or an
explicit path).  Nothing in this module runs unless a log has been
opened — call sites go through :func:`log_record`, which is a single
``None`` check when logging is off, matching the event-bus contract of
zero overhead when disabled.

Record kinds and their schema (all lines share ``ts`` — epoch seconds —
and ``kind``):

====================  ==================================================
kind                  fields
====================  ==================================================
``start``             ``run_id``, ``command``, ``argv``, ``pid``
``span``              :meth:`SpanRecord.as_dict` fields — ``name``,
                      ``start``, ``duration``, ``wall_start``,
                      ``thread``, ``depth``, ``process``, ``attrs``
                      (attrs always carries ``run_id``; ``job_id`` and
                      ``run_key`` when the span came via the service)
``heartbeat``         progress fields (``label``, ``done``, ``total``,
                      ``fraction``, ``instructions_per_second``,
                      ``eta_seconds``…)
``warning``           slow-span watchdog: ``span``, ``thread``,
                      ``elapsed_seconds``, ``threshold_seconds``,
                      ``stack``
====================  ==================================================
"""

from __future__ import annotations

import json
import threading
import time


class RuntimeLog:
    """Thread-safe append-only JSONL writer."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._file = open(path, "a", encoding="utf-8")  # noqa: SIM115

    def write(self, kind: str, **fields) -> None:
        line = json.dumps(
            {"ts": time.time(), "kind": kind, **fields},
            default=str, separators=(",", ":"), sort_keys=False,
        )
        with self._lock:
            if self._file.closed:
                return
            self._file.write(line + "\n")
            self._file.flush()

    def span(self, record) -> None:
        self.write("span", **record.as_dict())

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.close()


#: The process-wide log, None while logging is off.
_LOG: RuntimeLog | None = None


def open_log(path: str) -> RuntimeLog:
    """Open (or return the already-open) process-wide JSONL log."""
    global _LOG
    if _LOG is None or _LOG.path != path or _LOG._file.closed:
        _LOG = RuntimeLog(path)
    return _LOG


def log_record(kind: str, **fields) -> None:
    """Write one record if a log is open; free no-op otherwise."""
    if _LOG is not None:
        _LOG.write(kind, **fields)


def close_log() -> None:
    global _LOG
    if _LOG is not None:
        _LOG.close()
        _LOG = None


def attach_log(tracer, log: RuntimeLog) -> None:
    """Subscribe ``log`` to ``tracer`` so every finished span becomes a
    JSONL line (idempotent per tracer/log pair)."""
    listener = getattr(log, "_span_listener", None)
    if listener is None:
        listener = log._span_listener = log.span
    if listener not in tracer._listeners:
        tracer.add_listener(listener)


def detach_log(tracer, log: RuntimeLog | None = None) -> None:
    """Unsubscribe ``log`` (default: the process-wide log) from
    ``tracer`` — the counterpart of :func:`attach_log`, so repeated
    open/close cycles never accumulate dead listeners."""
    log = log if log is not None else _LOG
    if log is None:
        return
    listener = getattr(log, "_span_listener", None)
    if listener is not None:
        tracer.remove_listener(listener)
