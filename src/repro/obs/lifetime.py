"""Per-trace lifetime reports built from the lifecycle event stream.

The paper's story is a *lifecycle*: a trace is detected in the T-Cache,
goes hot, is mapped by the resource-aware scheduler, its configuration is
cached and eventually marked ready, invocations offload as fat atomic
instructions, and some of them squash.  This module folds a recorded
event stream (``repro.obs.events.MemorySink``) into one record per trace
identity so ``repro explain`` can answer "why did trace X never reach
offload?" with cycle stamps instead of print-debugging.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.obs.events import Event


def format_trace_id(key) -> str:
    """Stable human-readable id for a trace key ``(pc, outcomes, length)``.

    Example: ``0x1a4:TNT:32`` — anchor PC, branch-outcome string (``-``
    when the trace embeds no branches), length cap.
    """
    pc, outcomes, length = key
    taken = "".join("T" if o else "N" for o in outcomes) or "-"
    return f"0x{pc:x}:{taken}:{length}"


@dataclass
class TraceLifetime:
    """Milestones and tallies of one trace identity."""

    key: tuple
    trace_id: str
    length: int
    detected: int | None = None       # first tcache.detect cycle
    hot: int | None = None            # crossed the hot threshold
    map_started: int | None = None
    mapped: int | None = None         # map.done cycle
    map_failed: str | None = None     # failure reason (unmappable)
    mapping_cycles: int | None = None
    placements: int | None = None
    ready: int | None = None          # ccache counter crossed threshold
    first_offload: int | None = None
    last_offload: int | None = None
    offloads: int = 0                 # committed invocations
    offloaded_instructions: int = 0
    branch_squashes: int = 0
    memory_squashes: int = 0
    predictions: int = 0              # fetch-stage config-cache hits
    evicted: int | None = None        # lost its config-cache entry
    reconfigurations: int = 0

    @property
    def squashes(self) -> int:
        return self.branch_squashes + self.memory_squashes

    @property
    def fate(self) -> str:
        """The furthest lifecycle stage this trace reached."""
        if self.offloads:
            return "offloaded"
        if self.map_failed is not None:
            return "unmappable"
        if self.mapped is not None:
            return "mapped"
        if self.hot is not None:
            return "hot"
        return "detected"

    def timeline(self) -> list[tuple[int, str]]:
        """Ordered ``(cycle, milestone)`` pairs for the detail view."""
        marks = [
            (self.detected, "detected"),
            (self.hot, "hot"),
            (self.map_started, "mapping started"),
            (self.mapped, "mapped"),
            (self.ready, "ready"),
            (self.first_offload, "first offload"),
            (self.last_offload, "last offload"),
            (self.evicted, "evicted"),
        ]
        return [(c, label) for c, label in marks if c is not None]


@dataclass
class LifetimeReport:
    """All trace lifetimes of one run plus run-wide occupancy stats."""

    lifetimes: dict[tuple, TraceLifetime] = field(default_factory=dict)
    events: int = 0
    peak_ccache_occupancy: int = 0
    tcache_clears: int = 0
    drain_cycles: int = 0

    def ranked(self) -> list[TraceLifetime]:
        """Most consequential first: offloads, then predictions, then age."""
        return sorted(
            self.lifetimes.values(),
            key=lambda t: (
                -t.offloads,
                -t.predictions,
                t.detected if t.detected is not None else 1 << 60,
            ),
        )

    def counts(self) -> dict[str, int]:
        fates = {"detected": 0, "hot": 0, "mapped": 0,
                 "unmappable": 0, "offloaded": 0}
        for trace in self.lifetimes.values():
            fates[trace.fate] += 1
        return fates


def _lifetime(report: LifetimeReport, key) -> TraceLifetime:
    trace = report.lifetimes.get(key)
    if trace is None:
        trace = TraceLifetime(
            key=key, trace_id=format_trace_id(key), length=key[2]
        )
        report.lifetimes[key] = trace
    return trace


def build_lifetime_report(events: Iterable[Event]) -> LifetimeReport:
    """Fold an event stream into per-trace lifetimes (single pass)."""
    report = LifetimeReport()
    open_mapping: TraceLifetime | None = None
    for event in events:
        report.events += 1
        kind = event.type
        data = event.data
        if kind == "tcache.detect":
            trace = _lifetime(report, data["key"])
            if trace.detected is None:
                trace.detected = event.cycle
        elif kind == "tcache.hot":
            trace = _lifetime(report, data["key"])
            if trace.hot is None:
                trace.hot = event.cycle
        elif kind == "tcache.clear":
            report.tcache_clears += 1
        elif kind == "map.start":
            trace = _lifetime(report, data["key"])
            if trace.map_started is None:
                trace.map_started = event.cycle
            open_mapping = trace
        elif kind == "map.done":
            trace = _lifetime(report, data["key"])
            trace.mapped = event.cycle
            trace.mapping_cycles = data.get("mapping_cycles")
            trace.placements = data.get("placements")
            open_mapping = None
        elif kind == "map.fail":
            trace = _lifetime(report, data["key"])
            trace.map_failed = data.get("reason", "unknown")
            open_mapping = None
        elif kind == "ccache.hit":
            _lifetime(report, data["key"]).predictions += 1
        elif kind == "ccache.insert":
            occupancy = data.get("occupancy", 0)
            if occupancy > report.peak_ccache_occupancy:
                report.peak_ccache_occupancy = occupancy
        elif kind == "ccache.ready":
            trace = _lifetime(report, data["key"])
            if trace.ready is None:
                trace.ready = event.cycle
        elif kind == "ccache.evict":
            _lifetime(report, data["key"]).evicted = event.cycle
        elif kind == "fabric.reconfig":
            _lifetime(report, data["key"]).reconfigurations += 1
        elif kind == "offload.commit":
            trace = _lifetime(report, data["key"])
            trace.offloads += 1
            trace.offloaded_instructions += data.get("instructions", 0)
            if trace.first_offload is None:
                trace.first_offload = event.cycle
            trace.last_offload = event.cycle
        elif kind == "offload.squash":
            trace = _lifetime(report, data["key"])
            if data.get("cause") == "memory":
                trace.memory_squashes += 1
            else:
                trace.branch_squashes += 1
        elif kind == "pipeline.drain":
            report.drain_cycles += data.get("stall", 0)
    # A mapping interrupted by end-of-stream stays "started"; nothing to do.
    del open_mapping
    return report


def _stamp(value: int | None) -> str:
    return "-" if value is None else str(value)


def render_lifetime_report(report: LifetimeReport, top: int = 10) -> str:
    """The ``repro explain`` table: one line per trace, ranked."""
    fates = report.counts()
    lines = [
        (
            f"{len(report.lifetimes)} traces detected | "
            f"hot-not-mapped {fates['hot']} | mapped {fates['mapped']} | "
            f"offloaded {fates['offloaded']} | "
            f"unmappable {fates['unmappable']}"
        ),
        (
            f"peak config-cache occupancy {report.peak_ccache_occupancy} | "
            f"t-cache clears {report.tcache_clears} | "
            f"drain stall {report.drain_cycles} cycles | "
            f"{report.events} events"
        ),
        "",
        f"{'trace':<18} {'len':>4} {'detect':>8} {'hot':>8} {'mapped':>8} "
        f"{'ready':>8} {'offloads':>8} {'insts':>8} {'sq(b/m)':>8} "
        f"{'evict':>8}  fate",
    ]
    for trace in report.ranked()[: top if top else None]:
        lines.append(
            f"{trace.trace_id:<18} {trace.length:>4} "
            f"{_stamp(trace.detected):>8} {_stamp(trace.hot):>8} "
            f"{_stamp(trace.mapped):>8} {_stamp(trace.ready):>8} "
            f"{trace.offloads:>8} {trace.offloaded_instructions:>8} "
            f"{trace.branch_squashes:>4}/{trace.memory_squashes:<3} "
            f"{_stamp(trace.evicted):>8}  {trace.fate}"
        )
    return "\n".join(lines)


def render_trace_detail(
    report: LifetimeReport, events: Iterable[Event], trace_id: str
) -> str | None:
    """Detail view for one trace: milestones, then its raw events.

    Returns None when ``trace_id`` matches no trace in the report.
    """
    target = None
    for trace in report.lifetimes.values():
        if trace.trace_id == trace_id:
            target = trace
            break
    if target is None:
        return None
    lines = [
        f"trace {target.trace_id} (length {target.length}) — {target.fate}",
        f"  offloads {target.offloads} "
        f"({target.offloaded_instructions} instructions), "
        f"predictions {target.predictions}, "
        f"squashes {target.branch_squashes} branch / "
        f"{target.memory_squashes} memory, "
        f"reconfigurations {target.reconfigurations}",
    ]
    if target.map_failed is not None:
        lines.append(f"  unmappable: {target.map_failed}")
    if target.mapping_cycles is not None:
        lines.append(
            f"  mapping took {target.mapping_cycles} issue-unit cycles "
            f"for {target.placements} placements"
        )
    lines.append("  timeline:")
    for cycle, label in target.timeline():
        lines.append(f"    cycle {cycle:>10}  {label}")
    lines.append("  events:")
    shown = 0
    for event in events:
        if event.data.get("key") != target.key:
            continue
        extras = {
            k: v for k, v in event.data.items() if k != "key"
        }
        detail = " ".join(f"{k}={v}" for k, v in extras.items())
        lines.append(
            f"    cycle {event.cycle:>10}  {event.type:<16} {detail}".rstrip()
        )
        shown += 1
        if shown >= 200:
            lines.append("    ... (truncated at 200 events)")
            break
    return "\n".join(lines)
