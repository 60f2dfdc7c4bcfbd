"""Progress heartbeats: tracker math, rendering, and the active slot."""

import json
import sys

from repro.obs import progress
from repro.obs.logging import close_log, open_log


def test_tracker_heartbeat_fields():
    tracker = progress.ProgressTracker(4, label="bench")
    beat = tracker.advance(1, instructions=1000, detail="KM")
    assert beat["label"] == "bench"
    assert beat["done"] == 1 and beat["total"] == 4
    assert beat["fraction"] == 0.25
    assert beat["instructions"] == 1000
    assert beat["instructions_per_second"] > 0
    assert beat["eta_seconds"] is not None
    assert beat["detail"] == "KM"

    tracker.advance(3, instructions=3000)
    final = tracker.heartbeat()
    assert final["done"] == 4 and final["fraction"] == 1.0


def test_zero_total_never_divides():
    tracker = progress.ProgressTracker(0, label="study")
    beat = tracker.heartbeat()
    assert beat["fraction"] == 1.0
    assert beat["eta_seconds"] is None


def test_advance_prints_and_logs_each_beat_and_never_raises(
        tmp_path, capsys, monkeypatch):
    log_path = tmp_path / "progress.jsonl"
    open_log(str(log_path))
    try:
        tracker = progress.ProgressTracker(2, label="bench")
        tracker.advance(1, detail="KM")
        tracker.advance(1)
    finally:
        close_log()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("[1/2] bench  50%") and lines[0].endswith("KM")
    assert lines[1].startswith("[2/2] bench 100%")
    records = [json.loads(line) for line in log_path.read_text().splitlines()]
    assert [(r["kind"], r["done"]) for r in records] == [
        ("heartbeat", 1), ("heartbeat", 2)]

    class BrokenStream:
        def write(self, text):
            raise OSError("stderr is closed")

        def flush(self):
            raise OSError("stderr is closed")

    monkeypatch.setattr(sys, "stderr", BrokenStream())
    assert tracker.advance(0)["done"] == 2


def test_render_heartbeat_line():
    line = progress.render_heartbeat({
        "label": "bench", "done": 12, "total": 44, "fraction": 0.27,
        "instructions_per_second": 1_800_000.0, "eta_seconds": 9.0,
        "detail": "KM",
    })
    assert line == "[12/44] bench  27% | 1.8M instr/s | ETA 9s | KM"


def test_active_slot_roundtrip():
    assert progress.current() is None
    progress.advance_active(1)            # free no-op with no tracker
    tracker = progress.ProgressTracker(2)
    progress.activate(tracker)
    try:
        assert progress.current() is tracker
        progress.advance_active(1, instructions=10, detail="x")
        assert tracker.done == 1 and tracker.instructions == 10
    finally:
        progress.deactivate()
    assert progress.current() is None
