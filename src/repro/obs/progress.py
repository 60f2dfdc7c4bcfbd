"""Live progress heartbeats for long host-side runs.

A :class:`ProgressTracker` counts work units (benchmark runs, study
cells, service jobs) and derives rate and ETA from a monotonic clock.
Every :meth:`advance` produces a *heartbeat* — a plain dict — and fans
it out to listeners: the stderr renderer behind ``repro bench
--progress`` / ``repro study --progress``, the JSONL log, and the
service's per-job progress documents behind ``GET
/v1/jobs/{id}/progress``.

The harness publishes through a module-level *active tracker* slot
(:func:`activate` / :func:`advance_active`) so deep layers like
``harness.parallel`` never need a ``progress=`` parameter threaded
through every signature — and pay only a ``None`` check when progress
is off.
"""

from __future__ import annotations

import sys
import threading
import time


class ProgressTracker:
    """Done/total accounting with instructions-per-second and ETA."""

    def __init__(self, total: int, label: str = "run") -> None:
        self.total = max(0, int(total))
        self.label = label
        self.done = 0
        self.instructions = 0
        self.started = time.monotonic()
        self._lock = threading.Lock()
        self._listeners: list = []

    def add_listener(self, listener) -> None:
        """``listener(heartbeat_dict)`` fires on every advance."""
        self._listeners.append(listener)

    def advance(self, units: int = 1, instructions: int = 0,
                detail: str | None = None) -> dict:
        """Record finished work and emit a heartbeat to all listeners."""
        with self._lock:
            self.done += units
            self.instructions += instructions
        beat = self.heartbeat(detail)
        for listener in self._listeners:
            try:
                listener(beat)
            except Exception:  # noqa: BLE001 — progress must never raise
                pass
        return beat

    def heartbeat(self, detail: str | None = None) -> dict:
        """The current progress snapshot as a serializable dict."""
        with self._lock:
            done, instructions = self.done, self.instructions
        elapsed = max(time.monotonic() - self.started, 1e-9)
        rate = done / elapsed
        remaining = max(self.total - done, 0)
        beat = {
            "label": self.label,
            "done": done,
            "total": self.total,
            "fraction": round(done / self.total, 4) if self.total else 1.0,
            "elapsed_seconds": round(elapsed, 3),
            "instructions": instructions,
            "instructions_per_second": round(instructions / elapsed, 1),
            "eta_seconds": round(remaining / rate, 1) if done else None,
        }
        if detail:
            beat["detail"] = detail
        return beat


def render_heartbeat(beat: dict) -> str:
    """One-line human rendering, e.g.
    ``[ 12/44] bench 27% | 1.8M instr/s | ETA 9s | KM``."""
    total = beat.get("total") or 0
    done = beat.get("done", 0)
    width = len(str(total)) if total else 1
    pct = f"{100.0 * beat.get('fraction', 0):3.0f}%"
    parts = [
        f"[{done:>{width}}/{total}] {beat.get('label', 'run')} {pct}",
        f"{_si(beat.get('instructions_per_second', 0))} instr/s",
    ]
    eta = beat.get("eta_seconds")
    if eta is not None:
        parts.append(f"ETA {_duration(eta)}")
    detail = beat.get("detail")
    if detail:
        parts.append(str(detail))
    return " | ".join(parts)


def _si(value: float) -> str:
    for threshold, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if abs(value) >= threshold:
            return f"{value / threshold:.1f}{suffix}"
    return f"{value:.0f}"


def _duration(seconds: float) -> str:
    seconds = max(0.0, float(seconds))
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{int(seconds // 60)}m{int(seconds % 60):02d}s"
    return f"{seconds:.0f}s"


def stderr_listener(stream=None, min_interval: float = 0.0):
    """A listener that renders heartbeats to ``stream`` (stderr), rate
    limited to one line per ``min_interval`` seconds (final line always
    prints)."""
    stream = stream or sys.stderr
    last = [float("-inf")]

    def listener(beat: dict) -> None:
        now = time.monotonic()
        final = beat.get("total") and beat.get("done", 0) >= beat["total"]
        if not final and now - last[0] < min_interval:
            return
        last[0] = now
        print(render_heartbeat(beat), file=stream, flush=True)

    return listener


def log_listener():
    """A listener forwarding heartbeats to the runtime JSONL log."""
    from repro.obs.logging import log_record

    def listener(beat: dict) -> None:
        log_record("heartbeat", **beat)

    return listener


#: The active tracker slot published to deep harness layers.
_ACTIVE: ProgressTracker | None = None
_ACTIVE_LOCK = threading.Lock()


def activate(tracker: ProgressTracker) -> None:
    global _ACTIVE
    with _ACTIVE_LOCK:
        _ACTIVE = tracker


def deactivate() -> None:
    global _ACTIVE
    with _ACTIVE_LOCK:
        _ACTIVE = None


def current() -> ProgressTracker | None:
    return _ACTIVE


def advance_active(units: int = 1, instructions: int = 0,
                   detail: str | None = None) -> None:
    """Advance the active tracker, if any (free no-op otherwise)."""
    tracker = _ACTIVE
    if tracker is not None:
        tracker.advance(units, instructions, detail)
