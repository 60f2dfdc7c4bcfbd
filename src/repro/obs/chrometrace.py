"""Chrome trace-event JSON export (Perfetto / chrome://tracing).

Lays the recorded lifecycle event stream out on five tracks so the whole
DynaSpAM run can be scrubbed visually:

=====  ====================  ==============================================
tid    track                 contents
=====  ====================  ==============================================
1      pipeline phase        host / mapping / offload spans (``ph: X``)
2      front-end stalls      drain-to-empty stall spans
3      fabric mapping        per-trace mapping spans with stripe sub-slices
4      fat instructions      dispatch→commit/squash spans, paired by seq
5      lifecycle             instant markers (T-Cache, config cache, fabric)
=====  ====================  ==============================================

The unit of ``ts`` is the simulated *cycle* (declared via
``displayTimeUnit``); durations are cycles too.  One JSON object with a
``traceEvents`` array is produced — the format both Perfetto and
chrome://tracing load directly.

When host-runtime telemetry is on (``repro run --trace-out`` enables
it), a **second process** (pid 2, "host runtime (wall clock)") carries
the wall-clock spans from :mod:`repro.obs.runtime`: one thread track
per (process, thread) pair with ``ts``/``dur`` in microseconds relative
to the earliest host span.  The simulated tracks are bit-identical
whether or not host spans are attached.
"""

from __future__ import annotations

import json
from typing import Iterable

from repro.obs.events import Event
from repro.obs.decisions import format_trace_id

PID = 1
HOST_PID = 2
TID_PHASE = 1
TID_STALL = 2
TID_MAPPING = 3
TID_FAT = 4
TID_LIFECYCLE = 5

_TRACK_NAMES = {
    TID_PHASE: "pipeline phase",
    TID_STALL: "front-end stalls",
    TID_MAPPING: "fabric mapping",
    TID_FAT: "fat instructions",
    TID_LIFECYCLE: "lifecycle",
}

#: Lifecycle event types rendered as instant markers on tid 5.
_INSTANT_TYPES = {
    "tcache.detect",
    "tcache.hot",
    "tcache.clear",
    "ccache.insert",
    "ccache.ready",
    "ccache.evict",
    "fabric.reconfig",
    "map.abort",
    "offload.defer",
}


def _span(name: str, tid: int, ts: int, dur: int, args: dict) -> dict:
    return {
        "name": name, "ph": "X", "pid": PID, "tid": tid,
        "ts": ts, "dur": max(dur, 1), "args": args,
    }


def _instant(name: str, tid: int, ts: int, args: dict) -> dict:
    return {
        "name": name, "ph": "i", "pid": PID, "tid": tid,
        "ts": ts, "s": "t", "args": args,
    }


def _jsonable_args(data: dict) -> dict:
    args = {}
    for key, value in data.items():
        if key == "key" and isinstance(value, tuple):
            args["trace"] = format_trace_id(value)
        elif isinstance(value, (tuple, set, frozenset)):
            args[key] = list(value)
        else:
            args[key] = value
    return args


def _host_track_events(host_spans) -> list[dict]:
    """Wall-clock span records -> pid-2 trace events (one tid per
    (process, thread) pair; ts/dur in µs from the earliest span)."""
    records = [
        span if isinstance(span, dict) else span.as_dict()
        for span in host_spans
    ]
    if not records:
        return []
    events: list[dict] = [{
        "name": "process_name", "ph": "M", "pid": HOST_PID, "tid": 0,
        "args": {"name": "host runtime (wall clock)"},
    }]
    tracks: dict[tuple[str, str], int] = {}
    for record in records:
        key = (record.get("process", "main"), record.get("thread", "?"))
        if key not in tracks:
            tracks[key] = len(tracks) + 1
            events.append({
                "name": "thread_name", "ph": "M", "pid": HOST_PID,
                "tid": tracks[key], "args": {"name": f"{key[0]} / {key[1]}"},
            })
    base = min(record["start"] for record in records)
    spans = []
    for record in records:
        key = (record.get("process", "main"), record.get("thread", "?"))
        args = dict(record.get("attrs") or {})
        args["depth"] = record.get("depth", 0)
        args["duration_seconds"] = record["duration"]
        spans.append({
            "name": record["name"], "ph": "X", "pid": HOST_PID,
            "tid": tracks[key],
            "ts": round((record["start"] - base) * 1e6),
            "dur": max(round(record["duration"] * 1e6), 1),
            "args": args,
        })
    # Per track: by start time, parents (longer, shallower) before the
    # children they enclose.
    spans.sort(key=lambda e: (e["tid"], e["ts"], -e["dur"]))
    return events + spans


def build_chrome_trace(
    events: Iterable[Event],
    end_cycle: int | None = None,
    host_spans: Iterable | None = None,
) -> dict:
    """Convert a recorded event stream into a Chrome trace-event dict.

    ``host_spans`` (optional) is an iterable of
    :class:`repro.obs.runtime.SpanRecord` objects or their ``as_dict``
    forms; when non-empty they become the pid-2 wall-clock process.
    """
    trace_events: list[dict] = [
        {
            "name": "process_name", "ph": "M", "pid": PID, "tid": 0,
            "args": {"name": "dynaspam"},
        }
    ]
    for tid, name in _TRACK_NAMES.items():
        trace_events.append({
            "name": "thread_name", "ph": "M", "pid": PID, "tid": tid,
            "args": {"name": name},
        })

    phase_open: tuple[str, int] | None = None   # (phase name, start cycle)
    mapping_open: dict | None = None            # map.start context
    mapping_stripes: list[dict] = []
    fat_open: dict[int, Event] = {}             # seq -> offload.dispatch
    last_cycle = 0

    def close_phase(at: int) -> None:
        nonlocal phase_open
        if phase_open is None:
            return
        name, start = phase_open
        trace_events.append(_span(
            name, TID_PHASE, start, at - start, {"phase": name}
        ))
        phase_open = None

    def close_mapping(at: int, status: str, extra: dict) -> None:
        nonlocal mapping_open, mapping_stripes
        if mapping_open is None:
            return
        key = mapping_open["key"]
        args = {
            "trace": format_trace_id(key),
            "instructions": mapping_open.get("instructions"),
            "status": status,
        }
        args.update(extra)
        trace_events.append(_span(
            f"map {format_trace_id(key)}", TID_MAPPING,
            mapping_open["cycle"], at - mapping_open["cycle"], args,
        ))
        trace_events.extend(mapping_stripes)
        mapping_open = None
        mapping_stripes = []

    for event in events:
        kind = event.type
        data = event.data
        cycle = event.cycle
        if cycle > last_cycle:
            last_cycle = cycle

        if kind == "pipeline.phase":
            close_phase(cycle)
            phase_open = (data["phase"], cycle)
        elif kind == "pipeline.drain":
            trace_events.append(_span(
                "drain", TID_STALL, cycle, data.get("stall", 0),
                {"until": data.get("until"), "stall": data.get("stall")},
            ))
        elif kind == "map.start":
            close_mapping(cycle, "interrupted", {})
            mapping_open = {"cycle": cycle, **data}
        elif kind == "map.stripe" and mapping_open is not None:
            # Stripes have no pipeline cycle of their own; lay them out at
            # map.start + cumulative issue-unit offset so relative mapping
            # effort per stripe is visible.
            base = mapping_open["cycle"] + data.get("offset", 0)
            mapping_stripes.append(_span(
                f"stripe {data.get('stripe')}", TID_MAPPING, base, 1,
                {"selected": data.get("selected"),
                 "remaining": data.get("remaining")},
            ))
        elif kind == "map.done":
            close_mapping(
                max(cycle, (mapping_open or {}).get("cycle", cycle)),
                "mapped",
                {"mapping_cycles": data.get("mapping_cycles"),
                 "placements": data.get("placements")},
            )
        elif kind == "map.fail":
            close_mapping(cycle, "failed", {"reason": data.get("reason")})
            trace_events.append(_instant(
                f"map fail {format_trace_id(data['key'])}", TID_MAPPING,
                cycle, {"reason": data.get("reason")},
            ))
        elif kind == "offload.dispatch":
            fat_open[data["seq"]] = event
        elif kind in ("offload.commit", "offload.squash"):
            dispatch = fat_open.pop(data.get("seq"), None)
            start = dispatch.cycle if dispatch is not None else cycle
            name = f"fat {format_trace_id(data['key'])}"
            args = _jsonable_args(data)
            if dispatch is not None:
                args.setdefault(
                    "instructions", dispatch.data.get("instructions")
                )
            if kind == "offload.squash":
                args["outcome"] = f"squash:{data.get('cause')}"
                if dispatch is None:
                    # Branch mispredictions squash before dispatch; mark
                    # them as instants rather than zero-length spans.
                    trace_events.append(_instant(
                        name + " squash", TID_FAT, cycle, args
                    ))
                    continue
            else:
                args["outcome"] = "commit"
            trace_events.append(_span(
                name, TID_FAT, start, cycle - start, args
            ))
        elif kind in _INSTANT_TYPES:
            label = kind
            if "key" in data and isinstance(data["key"], tuple):
                label = f"{kind} {format_trace_id(data['key'])}"
            trace_events.append(_instant(
                label, TID_LIFECYCLE, cycle, _jsonable_args(data)
            ))
        # ccache.hit / map.place are too fine-grained for the timeline;
        # they live in the lifetime report instead.

    final = end_cycle if end_cycle is not None else last_cycle
    close_phase(max(final, last_cycle))
    close_mapping(last_cycle, "interrupted", {})
    for dispatch in fat_open.values():
        trace_events.append(_span(
            f"fat {format_trace_id(dispatch.data['key'])} (open)",
            TID_FAT, dispatch.cycle, 1,
            _jsonable_args(dispatch.data),
        ))

    # Chrome's importer tolerates unsorted events but Perfetto's track
    # builder is simpler with per-track monotonic timestamps.
    metadata = [e for e in trace_events if e["ph"] == "M"]
    timed = [e for e in trace_events if e["ph"] != "M"]
    timed.sort(key=lambda e: (e["tid"], e["ts"], e.get("dur", 0)))
    return {
        "traceEvents": (
            metadata + timed + _host_track_events(host_spans or ())
        ),
        "displayTimeUnit": "ns",
        "otherData": {"time_unit": "simulated cycle"},
    }


def write_chrome_trace(
    events: Iterable[Event],
    path,
    end_cycle: int | None = None,
    host_spans: Iterable | None = None,
) -> int:
    """Write the trace JSON to ``path``; returns the event count."""
    trace = build_chrome_trace(
        events, end_cycle=end_cycle, host_spans=host_spans
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, indent=1)
        handle.write("\n")
    return len(trace["traceEvents"])
