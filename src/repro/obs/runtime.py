"""Wall-clock span tracer for the host runtime.

Everything else under ``repro.obs`` observes the *simulated* machine in
simulated cycles.  This module observes the *host* process in wall-clock
seconds: how long the CLI spent parsing a program, simulating a
benchmark, reading the disk cache, or fanning out over a worker pool.

Design rules, mirroring the event bus (`repro.obs.events`):

* **Off by default, near-zero overhead when off.**  The module-level
  :data:`TRACER` starts disabled; ``TRACER.span(...)`` then yields a
  shared no-op and records nothing.  No report field, no output byte
  changes until telemetry is explicitly enabled.
* **Monotonic durations.**  Span durations come from
  ``time.perf_counter()``; each span also records its wall-clock start
  (``time.time()``) so it can still be placed on a calendar timeline for
  display.
* **Thread-safe, process-mergeable.**  Each thread keeps its own open
  span stack (spans therefore nest without overlap per thread);
  finished spans land in one lock-guarded buffer.  Subprocess workers
  run their own tracer and ship finished spans back through
  ``harness.parallel`` as plain dicts via :meth:`SpanTracer.snapshot`
  / :meth:`SpanTracer.merge`, which replays them to the listeners.
* **Exact totals, always-on counters.**  Each closing span also adds to
  a ``(count, seconds)`` total per name, kept apart from the bounded
  record buffer so totals stay exact after it fills.  These totals are
  the ``--profile`` table and the ``repro bench`` ``profile`` block.
  Named counters (runs simulated, parallel runs completed) count
  whether or not the tracer is enabled.
* **Correlated.**  Every finished span carries the tracer's ``run_id``
  plus any contextual bindings (``job_id``, ``run_key``, benchmark…)
  pushed by :meth:`SpanTracer.bind`.

Span names form a small fixed taxonomy (``cli.*``, ``ingest.*``,
``sim.*``, ``cache.*``, ``pool.*``, ``service.*``) so that Prometheus
histograms keyed by span name stay low-cardinality; anything
per-request (benchmark, job id) goes in attributes instead.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Environment knob for the slow-span watchdog threshold (seconds).
ENV_SLOW_SPAN = "REPRO_SLOW_SPAN_SECONDS"

#: Safety valve: a tracer stops buffering past this many finished spans
#: (drops are counted, never silent in the snapshot).
MAX_BUFFERED_SPANS = 1 << 16


def new_run_id() -> str:
    """A short unique id correlating every span of one CLI/service run."""
    return f"run-{uuid.uuid4().hex[:12]}"


@dataclass(slots=True)
class SpanRecord:
    """One finished wall-clock span."""

    name: str                 #: taxonomy name, e.g. ``sim.execute_spec``
    start: float              #: seconds since the tracer's monotonic epoch
    duration: float           #: seconds (monotonic)
    wall_start: float         #: epoch seconds (display only, skew-prone)
    thread: str               #: thread name at open
    depth: int                #: nesting depth within the thread (0 = root)
    process: str = "main"     #: ``main`` or ``worker-<pid>`` after merge
    attrs: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "wall_start": self.wall_start,
            "thread": self.thread,
            "depth": self.depth,
            "process": self.process,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SpanRecord":
        return cls(
            name=doc["name"],
            start=doc["start"],
            duration=doc["duration"],
            wall_start=doc["wall_start"],
            thread=doc["thread"],
            depth=doc["depth"],
            process=doc.get("process", "main"),
            attrs=dict(doc.get("attrs", ())),
        )


class _OpenSpan:
    """Book-keeping for a span that has not closed yet (watchdog food)."""

    __slots__ = ("name", "started", "wall_start", "depth", "attrs", "warned")

    def __init__(self, name, started, wall_start, depth, attrs):
        self.name = name
        self.started = started
        self.wall_start = wall_start
        self.depth = depth
        self.attrs = attrs
        self.warned = False


class SpanTracer:
    """Wall-clock span recorder with per-thread nesting.

    ``span()`` is a context manager; ``traced()`` wraps a function.  Both
    are no-ops while ``enabled`` is False, which is the default — the
    cost of an unenabled call site is one attribute check.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.run_id: str | None = None
        #: ``start`` fields are relative to ``epoch`` so records from one
        #: process share a timeline.
        self.epoch = time.perf_counter()
        self.dropped = 0
        self._lock = threading.Lock()
        self._records: list[SpanRecord] = []
        #: span name -> [count, seconds]; worker totals merge in under
        #: a ``workers.`` prefix.
        self._totals: dict[str, list] = {}
        self._counters: dict[str, int] = {}
        self._local = threading.local()
        #: thread ident -> (thread name, open-span stack).  Registered
        #: lazily per thread; read by the watchdog.
        self._active: dict[int, tuple[str, list]] = {}
        self._listeners: list = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def enable(self, run_id: str | None = None) -> str:
        """Turn recording on (idempotent) and return the run id."""
        if self.run_id is None or run_id is not None:
            self.run_id = run_id or new_run_id()
        self.enabled = True
        return self.run_id

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop buffered spans, totals, counters and bindings."""
        with self._lock:
            self._records.clear()
            self._totals.clear()
            self._counters.clear()
            self._active.clear()
            self.dropped = 0
        self._local = threading.local()

    def add_listener(self, listener) -> None:
        """``listener(record)`` fires once per finished span (any thread)."""
        self._listeners.append(listener)

    def remove_listener(self, listener) -> None:
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # Context bindings (run/job correlation)
    # ------------------------------------------------------------------
    def _context_stack(self) -> list:
        stack = getattr(self._local, "context", None)
        if stack is None:
            stack = self._local.context = []
        return stack

    @contextmanager
    def bind(self, **ctx):
        """Attach key/values (``job_id=…``, ``run_key=…``) to every span
        opened in this thread while the block is active."""
        if not self.enabled:
            yield
            return
        stack = self._context_stack()
        stack.append({k: v for k, v in ctx.items() if v is not None})
        try:
            yield
        finally:
            stack.pop()

    def context(self) -> dict:
        """The merged thread-local bindings, innermost last."""
        merged: dict = {}
        for frame in self._context_stack():
            merged.update(frame)
        return merged

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _span_stack(self) -> list:
        stack = getattr(self._local, "spans", None)
        if stack is None:
            stack = self._local.spans = []
            thread = threading.current_thread()
            with self._lock:
                self._active[thread.ident] = (thread.name, stack)
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        """Record ``name`` around the block.  Yields the open span (or
        ``None`` when disabled) so callers may add attrs mid-flight via
        ``open_span.attrs[...] = ...``."""
        if not self.enabled:
            yield None
            return
        stack = self._span_stack()
        open_span = _OpenSpan(
            name=name,
            started=time.perf_counter(),
            wall_start=time.time(),
            depth=len(stack),
            attrs={k: v for k, v in attrs.items() if v is not None},
        )
        stack.append(open_span)
        try:
            yield open_span
        finally:
            stack.pop()
            self._finish(open_span)

    def traced(self, name: str, **attrs):
        """Decorator form of :meth:`span`."""

        def decorate(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with self.span(name, **attrs):
                    return fn(*args, **kwargs)

            return wrapper

        return decorate

    def _finish(self, open_span: _OpenSpan) -> None:
        duration = time.perf_counter() - open_span.started
        merged = self.context()
        merged.update(open_span.attrs)
        if self.run_id is not None:
            merged.setdefault("run_id", self.run_id)
        record = SpanRecord(
            name=open_span.name,
            start=open_span.started - self.epoch,
            duration=duration,
            wall_start=open_span.wall_start,
            thread=threading.current_thread().name,
            depth=open_span.depth,
            attrs=merged,
        )
        with self._lock:
            self._add_total(record.name, 1, duration)
            if len(self._records) < MAX_BUFFERED_SPANS:
                self._records.append(record)
            else:
                self.dropped += 1
        self._notify(record)

    def _add_total(self, name: str, count: int, seconds: float) -> None:
        # Caller holds self._lock.
        total = self._totals.get(name)
        if total is None:
            self._totals[name] = [count, seconds]
        else:
            total[0] += count
            total[1] += seconds

    def bump(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (counts even when disabled)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def _notify(self, record: SpanRecord) -> None:
        for listener in self._listeners:
            try:
                listener(record)
            except Exception:  # noqa: BLE001 — telemetry must never raise
                pass

    # ------------------------------------------------------------------
    # Introspection / merging
    # ------------------------------------------------------------------
    def records(self) -> list[SpanRecord]:
        """Finished spans so far (copy; chronological by close time)."""
        with self._lock:
            return list(self._records)

    def counters(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counters)

    def mark(self) -> tuple[dict, dict]:
        """The totals and counters so far, for a later :meth:`profile`."""
        with self._lock:
            totals = {name: tuple(total)
                      for name, total in self._totals.items()}
            return totals, dict(self._counters)

    def profile(self, since: tuple[dict, dict] | None = None) -> dict:
        """Span seconds by name and counters, accrued since the
        :meth:`mark` ``since`` (default: since the last reset), in the
        ``{"sections_seconds", "counters"}`` shape of the bench report."""
        totals, counters = self.mark()
        base_totals, base_counters = since or ({}, {})
        sections = {}
        for name, (count, seconds) in totals.items():
            base_count, base_seconds = base_totals.get(name, (0, 0.0))
            if count != base_count:
                sections[name] = seconds - base_seconds
        return {
            "sections_seconds": sections,
            "counters": {
                name: value - base_counters.get(name, 0)
                for name, value in counters.items()
                if value != base_counters.get(name, 0)
            },
        }

    def snapshot(self) -> dict:
        """Serializable form for shipping across a process boundary."""
        with self._lock:
            return {
                "run_id": self.run_id,
                "dropped": self.dropped,
                "spans": [record.as_dict() for record in self._records],
                "totals": {name: list(total)
                           for name, total in self._totals.items()},
                "counters": dict(self._counters),
            }

    def merge(self, snapshot: dict | None, process: str) -> int:
        """Fold a worker tracer's :meth:`snapshot` into this tracer.

        Worker spans go to the listeners only (the JSONL log and the
        Prometheus histograms), tagged with ``process`` and this
        tracer's run id; they never enter this tracer's record buffer,
        which holds this process's own spans.  Worker totals land under
        a ``workers.`` prefix: they are compute seconds summed across
        the pool, never to be read as this process's wall clock.
        Counters merge flat — a cache hit is a hit in any process.
        Returns the number of spans merged.
        """
        if not snapshot:
            return 0
        with self._lock:
            for name, (count, seconds) in snapshot.get("totals", {}).items():
                if not name.startswith("workers."):
                    name = f"workers.{name}"
                self._add_total(name, count, seconds)
            for name, value in snapshot.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + value
            self.dropped += int(snapshot.get("dropped", 0))
        merged = 0
        for doc in snapshot.get("spans", ()):
            record = SpanRecord.from_dict(doc)
            record.process = process
            if self.run_id is not None:
                record.attrs.setdefault("run_id", self.run_id)
            self._notify(record)
            merged += 1
        return merged

    def active_spans(self) -> list[dict]:
        """Open spans across all threads, oldest first (watchdog view)."""
        with self._lock:
            active = list(self._active.items())
        now = time.perf_counter()
        out = []
        for _ident, (thread_name, stack) in active:
            # Snapshot the list; the owning thread may push/pop meanwhile.
            for span in list(stack):
                out.append({
                    "name": span.name,
                    "thread": thread_name,
                    "elapsed": now - span.started,
                    "depth": span.depth,
                    "span": span,
                })
        out.sort(key=lambda item: -item["elapsed"])
        return out


class SpanWatchdog:
    """Daemon thread that flags spans open longer than a threshold.

    Each offending span is warned about once, with the full open-span
    stack of its thread, via ``on_warn(message, details)``.  The default
    sink writes to stderr and the runtime JSONL log (when attached).
    """

    def __init__(
        self,
        tracer: SpanTracer,
        threshold: float,
        *,
        poll_interval: float | None = None,
        on_warn=None,
    ) -> None:
        if threshold <= 0:
            raise ValueError("watchdog threshold must be > 0 seconds")
        self.tracer = tracer
        self.threshold = threshold
        self.poll_interval = poll_interval or min(1.0, threshold / 2)
        self.on_warn = on_warn or self._default_warn
        self.warnings = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name="repro-span-watchdog", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    def check_once(self) -> int:
        """One poll pass (also used directly by tests): warn on every
        open span past the threshold not yet warned about."""
        fired = 0
        active = self.tracer.active_spans()
        stacks: dict[str, list[str]] = {}
        for item in active:
            stacks.setdefault(item["thread"], []).append(
                (item["depth"], item["name"])
            )
        for item in active:
            span = item["span"]
            if item["elapsed"] < self.threshold or span.warned:
                continue
            span.warned = True
            stack = [name for _d, name in sorted(stacks[item["thread"]])]
            details = {
                "span": item["name"],
                "thread": item["thread"],
                "elapsed_seconds": round(item["elapsed"], 3),
                "threshold_seconds": self.threshold,
                "stack": stack,
            }
            message = (
                f"slow span: {item['name']} open "
                f"{item['elapsed']:.1f}s (> {self.threshold:g}s) "
                f"in {item['thread']}; stack: {' > '.join(stack)}"
            )
            self.warnings += 1
            try:
                self.on_warn(message, details)
            except Exception:  # noqa: BLE001
                pass
            fired += 1
        return fired

    def _run(self) -> None:
        while not self._stop.wait(self.poll_interval):
            self.check_once()

    @staticmethod
    def _default_warn(message: str, details: dict) -> None:
        print(f"repro: warning: {message}", file=sys.stderr)
        from repro.obs.logging import log_record

        log_record("warning", **details)


#: The process-wide tracer.  Disabled until :func:`init_runtime_telemetry`
#: (or a test) enables it; subprocess workers enable their own copy when
#: the parent says so (see ``harness.parallel``).
TRACER = SpanTracer()

#: The watchdog started by :func:`init_runtime_telemetry`, if any.
_WATCHDOG: SpanWatchdog | None = None


def worker_telemetry() -> dict:
    """The parent-side config shipped to pool workers."""
    return {"enabled": TRACER.enabled, "run_id": TRACER.run_id}


def begin_worker(telemetry: dict | None) -> None:
    """Reinitialize :data:`TRACER` inside a forked pool worker.

    A fork inherits the parent's buffered spans, totals and counters
    *and* its listeners (JSONL log, Prometheus hook) — all must go:
    inherited state would be double-counted on merge, and listener side
    effects belong to the parent, which replays merged worker spans
    through its own listeners.
    """
    TRACER.reset()
    TRACER._listeners.clear()
    TRACER.enabled = False
    TRACER.run_id = None
    if telemetry and telemetry.get("enabled"):
        TRACER.enable(telemetry.get("run_id"))


def slow_span_threshold() -> float | None:
    """The configured watchdog threshold in seconds, or None."""
    raw = os.environ.get(ENV_SLOW_SPAN, "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if value > 0 else None


def init_runtime_telemetry(
    command: str,
    *,
    force: bool = False,
    log_path: str | None = None,
    argv: list[str] | None = None,
) -> str | None:
    """CLI entry hook: enable the tracer when telemetry is requested.

    Telemetry turns on when ``REPRO_LOG`` is set (structured JSONL log),
    when the caller forces it (``--trace-out``/``--progress`` want spans
    even without a log), or when a slow-span threshold is configured.
    Returns the run id when enabled, else None — and in the None case
    nothing was allocated, keeping the disabled path free.
    """
    global _WATCHDOG
    log_path = log_path if log_path is not None else os.environ.get("REPRO_LOG")
    threshold = slow_span_threshold()
    if not (force or log_path or threshold is not None):
        return None
    run_id = TRACER.enable()
    if log_path:
        from repro.obs.logging import attach_log, open_log

        log = open_log(log_path)
        attach_log(TRACER, log)
        log.write("start", run_id=run_id, command=command,
                  argv=list(argv or ()), pid=os.getpid())
    if threshold is not None and _WATCHDOG is None:
        _WATCHDOG = SpanWatchdog(TRACER, threshold)
        _WATCHDOG.start()
    return run_id


def shutdown_runtime_telemetry() -> None:
    """Stop the watchdog and flush/close the JSONL log (CLI exit)."""
    global _WATCHDOG
    if _WATCHDOG is not None:
        _WATCHDOG.stop()
        _WATCHDOG = None
    from repro.obs.logging import close_log, detach_log

    detach_log(TRACER)
    close_log()
