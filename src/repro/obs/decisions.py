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
``repro why``, ``repro study``, the ``decisions`` report block
(``simulation_report(..., decisions=True)``), the dashboard fate panel,
and the service's ``repro_trace_fate_total`` Prometheus family.

:func:`attribute_lost_cycles` joins the fold against the cycle-accounting
buckets (PR 4): each non-host bucket is paired with the decision records
that explain it, giving the lost-cycles attribution behind ``repro why``.
Decisions are strictly opt-in; a plain run never constructs any of this
(the report stays byte-identical, the ``--require-null-sink`` bench gate
stays meaningful).
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
    "decisions_from_events",
    "attribute_lost_cycles",
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


class _TraceDecision:
    """Streaming per-identity accumulator (one per trace key)."""

    __slots__ = (
        "windows", "hot", "map_attempts", "map_aborts", "mapped",
        "map_fail_reason", "ready", "commits", "squash_branch",
        "squash_memory", "defers",
    )

    def __init__(self) -> None:
        self.windows = 0
        self.hot = False
        self.map_attempts = 0
        self.map_aborts = 0
        self.mapped = False
        self.map_fail_reason: str | None = None
        self.ready = False
        self.commits = 0
        self.squash_branch = 0
        self.squash_memory = 0
        self.defers = 0

    @property
    def fate(self) -> str:
        if self.commits:
            return "offloaded"
        if self.ready:
            return "ready_never_offloaded"
        if self.mapped:
            return "mapped_never_ready"
        if self.map_fail_reason is not None:
            return "unmappable"
        if self.map_aborts:
            return "map_aborted"
        if self.hot:
            return "hot_never_mapped"
        return "never_hot"


class DecisionSink:
    """Event sink folding the lifecycle stream into decision records.

    Keeps no events: state is one :class:`_TraceDecision` per identity
    plus flat counters, so it is safe on arbitrarily long runs.  Unknown
    event types are ignored (the sink can ride a :class:`TeeSink` next to
    any other consumer).
    """

    enabled = True

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

    # ------------------------------------------------------------------
    def _trace(self, key: tuple) -> _TraceDecision:
        record = self._traces.get(key)
        if record is None:
            record = _TraceDecision()
            self._traces[key] = record
        return record

    def emit(self, event: Event) -> None:
        etype = event.type
        data = event.data
        if etype == "tcache.window":
            self.windows_total += 1
            reason = data.get("reason")
            self.windows_by_reason[reason] = (
                self.windows_by_reason.get(reason, 0) + 1
            )
            record = self._trace(data["key"])
            record.windows += 1
            if data.get("hot"):
                record.hot = True
        elif etype == "tcache.hot":
            self._trace(data["key"]).hot = True
        elif etype == "map.start":
            self._trace(data["key"]).map_attempts += 1
        elif etype == "map.abort":
            self._trace(data["key"]).map_aborts += 1
        elif etype == "map.fail":
            self._trace(data["key"]).map_fail_reason = data.get("reason")
        elif etype == "map.done":
            self._trace(data["key"]).mapped = True
        elif etype == "ccache.ready":
            self._trace(data["key"]).ready = True
        elif etype == "offload.commit":
            self.committed += 1
            self._trace(data["key"]).commits += 1
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
            self._trace(data["key"]).defers += 1

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
