"""Decision records: one terminal fate for every trace-window candidate.

The event bus already narrates the DynaSpAM lifecycle; this module folds
that narration into *decision records* that answer "why": every window
the builder closes produces exactly one ``tcache.window`` terminal record
(close reason + hotness outcome), every trace identity lands in exactly
one terminal fate (the :data:`TRACE_FATES` lattice), every invocation is
committed, squashed (branch vs memory, with the offending branch PC or
load/store pair), or deferred.  Conservation is by construction — the fold
assigns fates through an exclusive precedence chain — and re-checked in
``as_dict()`` so a report can carry ``conserved: false`` instead of
silently miscounting.

:class:`DecisionSink` is a streaming fold (O(#identities) memory, no
event retention) that plugs anywhere an ``EventSink`` does; it powers
``repro why``, ``repro explain``, ``repro study`` and the ``decisions``
report block (``simulation_report(..., decisions=True)``, which
``repro run --decisions`` and a service job submitted with
``"decisions": true`` return).  Trace fates are reported per run, never
summed across runs or jobs.

:func:`attribute_lost_cycles` joins the fold against the cycle-accounting
buckets (PR 4): each non-host bucket is paired with the decision records
that explain it, giving the lost-cycles attribution behind ``repro why``.

Each identity's record also carries its lifecycle milestones as cycle
stamps (detected, hot, mapped, ready, first/last offload, evicted), and
the sink keeps a few run-wide tallies: :func:`render_explain` and
:func:`render_trace_detail` print ``repro explain`` from them.

Decisions are strictly opt-in; a plain run never constructs any of this
and its report stays byte-identical.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.mapper import MAP_FAIL_REASONS
from repro.core.tcache import WINDOW_CLOSE_REASONS
from repro.obs.events import Event

__all__ = [
    "TRACE_FATES",
    "MAP_FAIL_REASONS",
    "WINDOW_CLOSE_REASONS",
    "DecisionSink",
    "TraceEventLog",
    "decisions_from_events",
    "attribute_lost_cycles",
    "format_trace_id",
    "render_explain",
    "render_trace_detail",
    "render_why",
]

#: Closed vocabulary of terminal trace fates, in precedence order: a trace
#: identity gets the *first* fate whose condition holds, so every identity
#: lands in exactly one.
TRACE_FATES: dict[str, str] = {
    "offloaded": "at least one invocation committed on the fabric",
    "ready_never_offloaded": "crossed the ready threshold but every "
                             "occurrence squashed, deferred, or never "
                             "re-dispatched",
    "mapped_never_ready": "a configuration was built but the predicted-"
                          "again counter never crossed the ready threshold",
    "unmappable": "every mapping attempt failed (see unmappable_reasons)",
    "map_aborted": "hot, but each mapping phase aborted on a divergent "
                   "actual path before the mapper ran",
    "hot_never_mapped": "crossed the hot threshold but no mapping phase "
                        "completed (e.g. cleared or run ended first)",
    "never_hot": "detected but never crossed the hot threshold",
}


def format_trace_id(key) -> str:
    """Stable human-readable id for a trace key ``(pc, outcomes, length)``.

    Example: ``0x1a4:TNT:32`` — anchor PC, branch-outcome string (``-``
    when the trace embeds no branches), length cap.
    """
    pc, outcomes, length = key
    taken = "".join("T" if o else "N" for o in outcomes) or "-"
    return f"0x{pc:x}:{taken}:{length}"


class _TraceDecision:
    """Streaming per-identity accumulator (one per trace key).

    Milestones are cycle stamps, ``None`` until reached.
    """

    __slots__ = (
        "detected", "hot", "map_started", "map_attempts", "map_aborts",
        "mapped", "map_fail_reason", "mapping_cycles", "placements",
        "ready", "predictions", "commits", "first_offload", "last_offload",
        "offloaded_instructions", "squash_branch", "squash_memory",
        "evicted", "reconfigurations",
    )

    def __init__(self) -> None:
        self.detected: int | None = None     # first tcache.detect
        self.hot: int | None = None          # first tcache.hot / hot window
        self.map_started: int | None = None  # first map.start
        self.map_attempts = 0
        self.map_aborts = 0
        self.mapped: int | None = None       # latest map.done
        self.map_fail_reason: str | None = None
        self.mapping_cycles: int | None = None
        self.placements: int | None = None
        self.ready: int | None = None        # first ccache.ready
        self.predictions = 0                 # fetch-stage config-cache hits
        self.commits = 0
        self.first_offload: int | None = None
        self.last_offload: int | None = None
        self.offloaded_instructions = 0
        self.squash_branch = 0
        self.squash_memory = 0
        self.evicted: int | None = None      # latest ccache.evict
        self.reconfigurations = 0

    @property
    def fate(self) -> str:
        if self.commits:
            return "offloaded"
        if self.ready is not None:
            return "ready_never_offloaded"
        if self.mapped is not None:
            return "mapped_never_ready"
        if self.map_fail_reason is not None:
            return "unmappable"
        if self.map_aborts:
            return "map_aborted"
        if self.hot is not None:
            return "hot_never_mapped"
        return "never_hot"

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


class DecisionSink:
    """Event sink folding the lifecycle stream into decision records.

    Keeps no events: state is one :class:`_TraceDecision` per identity
    plus flat counters, so it is safe on arbitrarily long runs.  Unknown
    event types are ignored (the sink can ride a :class:`TeeSink` next to
    any other consumer).
    """

    def __init__(self) -> None:
        self.windows_total = 0
        self.windows_by_reason: dict[str, int] = {}
        self._traces: dict[tuple, _TraceDecision] = {}
        # Invocation outcomes (whole-run, not per identity).
        self.committed = 0
        self.squashed_branch = 0
        self.squashed_memory = 0
        self.deferred = 0
        self.squash_branch_pcs: dict[int, int] = {}
        self.squash_memory_pairs: dict[tuple, int] = {}
        # Run-wide tallies for ``repro explain``.
        self.events = 0
        self.peak_ccache_occupancy = 0
        self.tcache_clears = 0
        self.drain_cycles = 0

    # ------------------------------------------------------------------
    def _trace(self, key: tuple) -> _TraceDecision:
        record = self._traces.get(key)
        if record is None:
            record = _TraceDecision()
            self._traces[key] = record
        return record

    def emit(self, event: Event) -> None:
        self.events += 1
        etype = event.type
        data = event.data
        cycle = event.cycle
        if etype == "tcache.window":
            self.windows_total += 1
            reason = data.get("reason")
            self.windows_by_reason[reason] = (
                self.windows_by_reason.get(reason, 0) + 1
            )
            record = self._trace(data["key"])
            if data.get("hot") and record.hot is None:
                record.hot = cycle
        elif etype == "tcache.detect":
            record = self._trace(data["key"])
            if record.detected is None:
                record.detected = cycle
        elif etype == "tcache.hot":
            record = self._trace(data["key"])
            if record.hot is None:
                record.hot = cycle
        elif etype == "tcache.clear":
            self.tcache_clears += 1
        elif etype == "map.start":
            record = self._trace(data["key"])
            record.map_attempts += 1
            if record.map_started is None:
                record.map_started = cycle
        elif etype == "map.abort":
            self._trace(data["key"]).map_aborts += 1
        elif etype == "map.fail":
            self._trace(data["key"]).map_fail_reason = data.get("reason")
        elif etype == "map.done":
            record = self._trace(data["key"])
            record.mapped = cycle
            record.mapping_cycles = data.get("mapping_cycles")
            record.placements = data.get("placements")
        elif etype == "ccache.hit":
            self._trace(data["key"]).predictions += 1
        elif etype == "ccache.insert":
            occupancy = data.get("occupancy", 0)
            if occupancy > self.peak_ccache_occupancy:
                self.peak_ccache_occupancy = occupancy
        elif etype == "ccache.ready":
            record = self._trace(data["key"])
            if record.ready is None:
                record.ready = cycle
        elif etype == "ccache.evict":
            self._trace(data["key"]).evicted = cycle
        elif etype == "fabric.reconfig":
            self._trace(data["key"]).reconfigurations += 1
        elif etype == "offload.commit":
            self.committed += 1
            record = self._trace(data["key"])
            record.commits += 1
            record.offloaded_instructions += data.get("instructions", 0)
            if record.first_offload is None:
                record.first_offload = cycle
            record.last_offload = cycle
        elif etype == "offload.squash":
            record = self._trace(data["key"])
            if data.get("cause") == "memory":
                self.squashed_memory += 1
                record.squash_memory += 1
                pair = (data.get("load_pc"), data.get("store_pc"))
                self.squash_memory_pairs[pair] = (
                    self.squash_memory_pairs.get(pair, 0) + 1
                )
            else:
                self.squashed_branch += 1
                record.squash_branch += 1
                pc = data.get("branch_pc")
                self.squash_branch_pcs[pc] = (
                    self.squash_branch_pcs.get(pc, 0) + 1
                )
        elif etype == "offload.defer":
            self.deferred += 1
            self._trace(data["key"])  # a deferral names an identity too
        elif etype == "pipeline.drain":
            self.drain_cycles += data.get("stall", 0)

    # ------------------------------------------------------------------
    def fate_counts(self) -> dict[str, int]:
        """Identity count per fate (all fates present, zero-filled)."""
        counts = dict.fromkeys(TRACE_FATES, 0)
        for record in self._traces.values():
            counts[record.fate] += 1
        return counts

    def as_dict(self) -> dict:
        """The ``decisions`` report block (JSON-ready)."""
        counts = self.fate_counts()
        unmappable: dict[str, int] = {}
        for record in self._traces.values():
            if record.fate == "unmappable":
                reason = record.map_fail_reason
                unmappable[reason] = unmappable.get(reason, 0) + 1
        return {
            "windows": {
                "total": self.windows_total,
                "by_reason": dict(
                    sorted(self.windows_by_reason.items(),
                           key=lambda kv: str(kv[0]))
                ),
            },
            "trace_fates": {
                "identities": len(self._traces),
                "counts": counts,
                "unmappable_reasons": dict(sorted(unmappable.items())),
                "conserved": sum(counts.values()) == len(self._traces),
            },
            "mapping": {
                "attempts": sum(
                    r.map_attempts for r in self._traces.values()
                ),
                "aborts": sum(
                    r.map_aborts for r in self._traces.values()
                ),
            },
            "invocations": {
                "committed": self.committed,
                "squashed_branch": self.squashed_branch,
                "squashed_memory": self.squashed_memory,
                "deferred": self.deferred,
                "squash_branch_pcs": _top_pcs(self.squash_branch_pcs),
                "squash_memory_pairs": _top_pairs(self.squash_memory_pairs),
            },
        }

    def trace_fates(self) -> dict[tuple, str]:
        """Identity -> fate (tests and the study harness)."""
        return {key: rec.fate for key, rec in self._traces.items()}

    def ranked(self) -> list[tuple[tuple, _TraceDecision]]:
        """``(key, record)`` pairs, most consequential first: offloads,
        then predictions, then age."""
        def weight(item):
            record = item[1]
            detected = record.detected
            return (-record.commits, -record.predictions,
                    1 << 60 if detected is None else detected)

        return sorted(self._traces.items(), key=weight)


def _top_pcs(counter: dict, limit: int = 8) -> list[dict]:
    ranked = sorted(counter.items(), key=lambda kv: (-kv[1], str(kv[0])))
    return [
        {"pc": (hex(pc) if isinstance(pc, int) else pc), "count": count}
        for pc, count in ranked[:limit]
    ]


def _top_pairs(counter: dict, limit: int = 8) -> list[dict]:
    ranked = sorted(counter.items(), key=lambda kv: (-kv[1], str(kv[0])))
    out = []
    for (load_pc, store_pc), count in ranked[:limit]:
        out.append({
            "load_pc": hex(load_pc) if isinstance(load_pc, int) else load_pc,
            "store_pc": hex(store_pc) if isinstance(store_pc, int) else store_pc,
            "count": count,
        })
    return out


def decisions_from_events(events: Iterable[Event]) -> DecisionSink:
    """Fold an already-captured event stream (e.g. a ``MemorySink``)."""
    sink = DecisionSink()
    for event in events:
        sink.emit(event)
    return sink


# ----------------------------------------------------------------------
#: Raw events the ``--trace-id`` detail view lists before truncating.
DETAIL_EVENTS = 200


class TraceEventLog:
    """Sink keeping the first :data:`DETAIL_EVENTS` events of one trace.

    ``repro explain --trace-id`` tees it next to the :class:`DecisionSink`,
    so the detail view holds at most that many events whatever the run
    length.
    """

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.events: list[Event] = []

    def emit(self, event: Event) -> None:
        if len(self.events) < DETAIL_EVENTS:
            key = event.data.get("key")
            if key is not None and format_trace_id(key) == self.trace_id:
                self.events.append(event)


def _stamp(value: int | None) -> str:
    return "-" if value is None else str(value)


def render_explain(sink: DecisionSink, top: int = 10) -> str:
    """The ``repro explain`` table: one line per trace identity, ranked."""
    fates = " | ".join(
        f"{fate} {count}" for fate, count in sink.fate_counts().items()
    )
    lines = [
        f"{len(sink._traces)} traces detected | {fates}",
        (
            f"peak config-cache occupancy {sink.peak_ccache_occupancy} | "
            f"t-cache clears {sink.tcache_clears} | "
            f"drain stall {sink.drain_cycles} cycles | "
            f"{sink.events} events"
        ),
        "",
        f"{'trace':<18} {'len':>4} {'detect':>8} {'hot':>8} {'mapped':>8} "
        f"{'ready':>8} {'offloads':>8} {'insts':>8} {'sq(b/m)':>8} "
        f"{'evict':>8}  fate",
    ]
    for key, record in sink.ranked()[: top if top else None]:
        lines.append(
            f"{format_trace_id(key):<18} {key[2]:>4} "
            f"{_stamp(record.detected):>8} {_stamp(record.hot):>8} "
            f"{_stamp(record.mapped):>8} {_stamp(record.ready):>8} "
            f"{record.commits:>8} {record.offloaded_instructions:>8} "
            f"{record.squash_branch:>4}/{record.squash_memory:<3} "
            f"{_stamp(record.evicted):>8}  {record.fate}"
        )
    return "\n".join(lines)


def render_trace_detail(
    sink: DecisionSink, trace_id: str, events: list[Event]
) -> str | None:
    """Detail view for one trace: milestones, then its raw events.

    ``events`` are the trace's own events (a :class:`TraceEventLog`'s).
    Returns None when ``trace_id`` matches no identity in the fold.
    """
    found = next(
        (item for item in sink._traces.items()
         if format_trace_id(item[0]) == trace_id),
        None,
    )
    if found is None:
        return None
    key, record = found
    lines = [
        f"trace {trace_id} (length {key[2]}) — {record.fate}",
        f"  offloads {record.commits} "
        f"({record.offloaded_instructions} instructions), "
        f"predictions {record.predictions}, "
        f"squashes {record.squash_branch} branch / "
        f"{record.squash_memory} memory, "
        f"reconfigurations {record.reconfigurations}",
    ]
    if record.map_fail_reason is not None:
        lines.append(f"  unmappable: {record.map_fail_reason}")
    if record.mapping_cycles is not None:
        lines.append(
            f"  mapping took {record.mapping_cycles} issue-unit cycles "
            f"for {record.placements} placements"
        )
    lines.append("  timeline:")
    for cycle, label in record.timeline():
        lines.append(f"    cycle {cycle:>10}  {label}")
    lines.append("  events:")
    for event in events:
        detail = " ".join(
            f"{k}={v}" for k, v in event.data.items() if k != "key"
        )
        lines.append(
            f"    cycle {event.cycle:>10}  {event.type:<16} {detail}".rstrip()
        )
    if len(events) >= DETAIL_EVENTS:
        lines.append(f"    ... (truncated at {DETAIL_EVENTS} events)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
#: Non-host bucket -> how the attribution explains it from decisions and
#: stats (documentation; the logic lives in attribute_lost_cycles).
ATTRIBUTION_HELP: dict[str, str] = {
    "frontend": "I-cache and BTB miss bubbles (stats counters)",
    "drain": "back-end drains, one per mapping phase (map.start records)",
    "mapping": "mapping phases (map.start records)",
    "offload": "committed fabric invocations",
    "squash_branch": "branch-squashed invocations + host mispredicts",
    "squash_memory": "memory-order squashed invocations",
}


def attribute_lost_cycles(decisions: dict, stats: dict,
                          breakdown: dict) -> dict:
    """Join decision records against the cycle-accounting buckets.

    ``decisions`` is a :meth:`DecisionSink.as_dict` block, ``stats`` a
    ``PipelineStats`` dict, ``breakdown`` its ``bucket_breakdown``.  Every
    non-host bucket is *attributed* when it is either empty or explained
    by at least one named decision/stat record; the returned fraction is
    cycle-weighted (attributed non-host cycles / non-host cycles).
    """
    buckets = breakdown["buckets"]
    # Mapping phases: every map.start is one drain + one mapper occupancy
    # (aborts bail before the drain, so they charge nothing).
    map_attempts = decisions["mapping"]["attempts"]
    invocations = decisions["invocations"]
    explainers = {
        "frontend": (int(stats.get("icache_misses", 0))
                     + int(stats.get("btb_misses", 0))),
        "drain": map_attempts,
        "mapping": map_attempts,
        "offload": invocations["committed"],
        "squash_branch": (invocations["squashed_branch"]
                          + int(stats.get("branch_mispredicts", 0))),
        "squash_memory": (invocations["squashed_memory"]
                          + int(stats.get("memory_violations", 0))),
    }
    entries = []
    non_host = 0
    attributed = 0
    for bucket, cycles in buckets.items():
        if bucket == "host":
            continue
        non_host += cycles
        count = explainers[bucket]
        ok = cycles == 0 or count > 0
        if ok:
            attributed += cycles
        entries.append({
            "bucket": bucket,
            "cycles": cycles,
            "records": count,
            "attributed": ok,
        })
    return {
        "non_host_cycles": non_host,
        "attributed_cycles": attributed,
        "attributed_fraction": (
            attributed / non_host if non_host else 1.0
        ),
        "entries": entries,
    }


# ----------------------------------------------------------------------
def render_why(benchmark: str, decisions: dict, attribution: dict,
               breakdown: dict) -> str:
    """Human rendering of one benchmark's fate table + lost-cycles join."""
    from repro.harness.reporting import format_table

    windows = decisions["windows"]
    fates = decisions["trace_fates"]
    lines = [
        f"why {benchmark}: {windows['total']} trace-window candidates, "
        f"{fates['identities']} identities"
    ]
    reasons = ", ".join(
        f"{reason}={count}"
        for reason, count in windows["by_reason"].items()
    )
    if reasons:
        lines.append(f"window close reasons: {reasons}")

    rows = []
    total_identities = fates["identities"] or 1
    for fate, count in fates["counts"].items():
        if not count:
            continue
        note = ""
        if fate == "unmappable" and fates["unmappable_reasons"]:
            note = ", ".join(
                f"{r}={c}" for r, c in fates["unmappable_reasons"].items()
            )
        rows.append(
            [fate, count, f"{100.0 * count / total_identities:.1f}", note]
        )
    lines.append("")
    lines.append(
        format_table(["fate", "traces", "%", "detail"], rows,
                     title="trace fates")
    )

    inv = decisions["invocations"]
    lines.append("")
    lines.append(
        f"invocations: {inv['committed']} committed | "
        f"{inv['squashed_branch']} branch-squashed | "
        f"{inv['squashed_memory']} memory-squashed | "
        f"{inv['deferred']} deferred"
    )
    for entry in inv["squash_branch_pcs"]:
        lines.append(
            f"  squashing branch {entry['pc']}: {entry['count']}x"
        )
    for entry in inv["squash_memory_pairs"]:
        lines.append(
            f"  violating pair load {entry['load_pc']} / "
            f"store {entry['store_pc']}: {entry['count']}x"
        )

    rows = []
    for entry in attribution["entries"]:
        rows.append([
            entry["bucket"],
            entry["cycles"],
            entry["records"],
            "yes" if entry["attributed"] else "NO",
        ])
    lines.append("")
    lines.append(
        format_table(
            ["bucket", "cycles", "records", "attributed"], rows,
            title=(
                f"lost-cycles attribution "
                f"({attribution['non_host_cycles']} non-host cycles, "
                f"{attribution['attributed_fraction']:.1%} attributed; "
                f"host {breakdown['buckets']['host']} of "
                f"{breakdown['total_cycles']})"
            ),
        )
    )
    state = "PASS" if fates["conserved"] else "FAIL"
    lines.append(
        f"conservation: {sum(fates['counts'].values())} fates vs "
        f"{fates['identities']} identities {state}"
    )
    return "\n".join(lines)
