"""The DynaSpAM machine: detection → mapping → offloading around the host.

``DynaSpAM.run`` consumes a benchmark's dynamic trace exactly like the
baseline ``OOOPipeline`` does, but at every trace anchor (the instruction
after a committed branch) the fetch stage:

1. walks the static program under speculative branch predictions to form
   the predicted trace key (anchor PC, outcomes, length);
2. probes the configuration cache — a *ready* entry triggers offloading as
   a fat atomic instruction (or a squash if the prediction was wrong);
   a mapped-but-not-ready entry bumps its saturating counter;
3. otherwise consults the T-Cache — a hot trace triggers the mapping
   phase: drain the back end, run the resource-aware mapper while the
   trace instructions execute on the host, and store the configuration.

Modes: ``baseline`` (host only), ``mapping_only`` (Figure 8's mapping
series), ``accelerate`` (full DynaSpAM, with or without memory
speculation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config_cache import ConfigCache
from repro.core.mapper import ResourceAwareMapper
from repro.core.multifabric import FabricPool
from repro.core.naive_mapper import NaiveMapper
from repro.core.offload import OffloadEngine, TRACE_SQUASH_DETECT
from repro.core.tcache import TCache, TraceWindowBuilder
from repro.engine import fastpath_enabled
from repro.fabric.config import FabricConfig
from repro.isa.instructions import DynamicInstruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.ooo.config import CoreConfig
from repro.ooo.fastpath import make_pipeline
from repro.ooo.pipeline import OOOPipeline, PipelineResult
from repro.ooo.stats import PipelineStats


@dataclass
class DynaSpAMConfig:
    """Knobs of the DynaSpAM subsystem."""

    mode: str = "accelerate"        # "baseline" | "mapping_only" | "accelerate"
    speculation: bool = True        # memory speculation on the fabric
    trace_length: int = 32          # Figure 7 sweeps 16..40
    max_branches: int = 3
    #: Future-work feature: end cap-split traces at their last branch so
    #: the next trace anchors immediately (no dead zone).
    smart_trace_selection: bool = False
    num_fabrics: int = 1
    mapper: str = "resource_aware"  # | "naive" (ablation)
    tcache_entries: int = 256
    hot_threshold: int = 3
    tcache_clear_interval: int = 2_500
    ready_threshold: int = 4
    config_cache_entries: int = 16
    config_clear_interval: int = 600
    reconfig_hysteresis: int = 150  # cycles a fresh configuration is protected

    def __post_init__(self) -> None:
        if self.mode not in ("baseline", "mapping_only", "accelerate"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mapper not in ("resource_aware", "naive"):
            raise ValueError(f"unknown mapper {self.mapper!r}")
        for name in ("trace_length", "max_branches", "tcache_clear_interval",
                     "config_clear_interval"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")


@dataclass
class DynaSpAMResult:
    """Run outcome: host pipeline result plus DynaSpAM accounting."""

    pipeline: PipelineResult
    host_instructions: int
    mapping_instructions: int
    offloaded_instructions: int
    mapped_traces: int
    offloaded_traces: int
    lifetimes: list[int] = field(default_factory=list)
    squashes: int = 0
    reconfigurations: int = 0
    #: Pool-wide occupancy summary (``FabricPool.utilization``): placed-PE
    #: ratio, per-stripe occupancy, configuration reuse distance.
    fabric_utilization: dict = field(default_factory=dict)

    @property
    def stats(self) -> PipelineStats:
        return self.pipeline.stats

    @property
    def cycles(self) -> int:
        return self.pipeline.cycles

    @property
    def total_instructions(self) -> int:
        return (
            self.host_instructions
            + self.mapping_instructions
            + self.offloaded_instructions
        )

    @property
    def coverage(self) -> dict[str, float]:
        """Fraction of dynamic instructions per execution venue (Fig 7)."""
        total = self.total_instructions or 1
        return {
            "host": self.host_instructions / total,
            "mapping": self.mapping_instructions / total,
            "fabric": self.offloaded_instructions / total,
        }

    @property
    def mean_lifetime(self) -> float:
        """Average configuration lifetime in invocations (Table 5)."""
        if not self.lifetimes:
            return 0.0
        return sum(self.lifetimes) / len(self.lifetimes)


class DynaSpAM:
    """One DynaSpAM-augmented core."""

    def __init__(
        self,
        core_config: CoreConfig | None = None,
        fabric_config: FabricConfig | None = None,
        ds_config: DynaSpAMConfig | None = None,
        sink=None,
    ) -> None:
        self.config = ds_config or DynaSpAMConfig()
        cfg = self.config
        self.pipeline = make_pipeline(core_config)
        # Event tracing (repro.obs): one bus stamps every lifecycle event
        # with the pipeline's front-end clock.  ``sink=None`` (the default)
        # leaves every component's ``bus`` None — the disabled path is a
        # single pointer comparison per site and cannot perturb timing.
        self.bus = None
        if sink is not None:
            from repro.obs.events import EventBus

            pipeline = self.pipeline
            self.bus = EventBus(
                sink,
                clock=lambda: max(
                    pipeline.next_fetch_cycle, pipeline.fetch_barrier
                ),
            )
            self.pipeline.bus = self.bus
        self.fabric_config = fabric_config or FabricConfig()
        self.builder = TraceWindowBuilder(cfg.trace_length, cfg.max_branches)
        self.tcache = TCache(
            entries=cfg.tcache_entries,
            hot_threshold=cfg.hot_threshold,
            clear_interval=cfg.tcache_clear_interval,
            bus=self.bus,
        )
        self.ccache = ConfigCache(
            entries=cfg.config_cache_entries,
            ready_threshold=cfg.ready_threshold,
            clear_interval=cfg.config_clear_interval,
            bus=self.bus,
        )
        if cfg.mapper == "naive":
            self.mapper = NaiveMapper(self.fabric_config, bus=self.bus)
        else:
            self.mapper = ResourceAwareMapper(
                self.fabric_config, self.pipeline.config, bus=self.bus
            )
        self.pool = FabricPool(
            cfg.num_fabrics, self.fabric_config, bus=self.bus
        )
        self.offloader = OffloadEngine(
            pipeline=self.pipeline, speculation=cfg.speculation, bus=self.bus
        )
        #: Engine tier, captured once like ``make_pipeline`` does: the fast
        #: path validates key-matched occurrences through the occurrence
        #: probe; the interpreted reference walks every occurrence in full.
        self._fastpath = fastpath_enabled()

        self._host_instructions = 0
        self._mapping_instructions = 0
        self._offloaded_keys: set = set()
        self._squashes = 0
        self.program: Program | None = None

    # ------------------------------------------------------------------
    def run(self, trace: list[DynamicInstruction], program: Program) -> DynaSpAMResult:
        """Simulate the full dynamic trace."""
        self.program = program
        cfg = self.config
        if cfg.smart_trace_selection:
            self.builder.program = program  # enables static lookahead
        self.pipeline.note_phase("host")
        active = cfg.mode != "baseline"
        builder = self.builder
        i = 0
        n = len(trace)
        while i < n:
            if active and builder.at_anchor:
                advanced = self._at_anchor(trace, i)
                if advanced is not None:
                    i = advanced
                    continue
            stop = self._host_span(trace, i, n)
            self._host_instructions += stop - i
            i = stop
        return self._finish()

    # ------------------------------------------------------------------
    def _host_span(self, trace, start: int, limit: int) -> int:
        """Run one host span from ``start`` and return its stop index.

        The window builder picks the span: it ends at the instruction
        that closes a window, ends an awaiting-branch stretch or is a
        HALT, or at ``limit``.  The pipeline runs the span, which emits
        no events, so a closed window reaches the T-Cache at the same
        front-end clock as when each instruction was stepped alone.
        """
        stop, window = self.builder.feed_span(trace, start, limit)
        self.pipeline.process_span(trace, start, stop)
        if window is not None:
            self.tcache.observe(window)
        self.ccache.advance(stop - start)
        return stop

    # ------------------------------------------------------------------
    def _at_anchor(self, trace, i) -> int | None:
        """Handle a trace anchor; returns the next index if it consumed
        instructions (offload or mapping phase), else None."""
        predicted = self._predict_key(trace[i].pc)
        if predicted is None:
            return None
        cfg = self.config
        entry = self.ccache.lookup(predicted)
        self.pipeline.stats.config_cache_reads += 1
        if entry is not None and entry.configuration is not None:
            if entry.ready and cfg.mode == "accelerate":
                return self._attempt_offload(trace, i, entry, predicted)
            self.ccache.predicted_again(entry)
            return None
        if entry is not None:
            return None  # known unmappable

        if self.tcache.is_hot(predicted) and cfg.mode in (
            "mapping_only",
            "accelerate",
        ):
            return self._mapping_phase(trace, i, predicted)
        return None

    # ------------------------------------------------------------------
    def _attempt_offload(self, trace, i, entry, predicted) -> int | None:
        stats = self.pipeline.stats
        segment = self._segment_fast(trace, i, entry.configuration)
        if segment is None:
            segment = self._actual_segment(trace, i)
            actual_key = self._segment_key(segment)
            if actual_key != predicted:
                # Embedded branch outcome mismatch: the invocation squashes
                # in ROB' and the correct path re-executes on the host.
                stats.fabric_squashes += 1
                self._squashes += 1
                # The divergent branch re-executes (and pays its mispredict
                # penalty) on the host path; the fat entry's squash itself
                # only costs the ROB' detection bubble.
                seq, dispatch = self.pipeline.macro_dispatch()
                self.pipeline.stall_fetch_until(
                    dispatch + TRACE_SQUASH_DETECT, cause="squash_branch"
                )
                if self.bus is not None:
                    self.bus.emit(
                        "offload.squash",
                        cycle=dispatch + TRACE_SQUASH_DETECT,
                        seq=seq,
                        key=predicted,
                        cause="branch",
                        branch_pc=self._divergent_branch_pc(
                            segment, predicted
                        ),
                    )
                return None
            if self._fastpath:
                self._note_occurrence_probe(entry.configuration, segment)
        acquired = self.pool.acquire(
            entry.configuration,
            max(self.pipeline.next_fetch_cycle, self.pipeline.fetch_barrier),
            reconfig_hysteresis=self.config.reconfig_hysteresis,
        )
        if acquired is None:
            if self.bus is not None:
                self.bus.emit("offload.defer", key=predicted)
            return None  # every fabric is protected: run on the host
        fabric, ready = acquired
        self.pipeline.note_phase("offload")
        outcome = self.offloader.offload(
            fabric, entry.configuration, segment, ready
        )
        self.pipeline.note_phase("host")
        if not outcome.success:
            self._squashes += 1
            return None  # replay the segment on the host
        entry.offload_count += 1
        self._offloaded_keys.add(entry.key)
        self.ccache.tick(len(segment))
        self.builder.resume_after(segment)
        return i + len(segment)

    # ------------------------------------------------------------------
    @staticmethod
    def _divergent_branch_pc(segment, predicted) -> int | None:
        """PC of the first embedded branch whose outcome diverged from the
        predicted key's outcome tuple (None for a length-only mismatch).
        Only called under a bus guard — never on the untraced path."""
        outcomes = predicted[1]
        index = 0
        for dyn in segment:
            if not dyn.is_branch:
                continue
            if index >= len(outcomes) or bool(dyn.taken) != outcomes[index]:
                return dyn.pc
            index += 1
        return None

    @staticmethod
    def _note_occurrence_probe(configuration, segment) -> None:
        """Record a key-matched occurrence's branch layout so later
        occurrences validate by spot-check instead of a full re-walk."""
        if getattr(configuration, "_occurrence_probe", None) is not None:
            return
        configuration._occurrence_probe = (
            len(segment),
            tuple(
                (offset, dyn.pc, bool(dyn.taken))
                for offset, dyn in enumerate(segment)
                if dyn.is_branch
            ),
        )

    def _segment_fast(self, trace, i, configuration):
        """Key-matched occurrence at ``i`` as a plain slice, or None.

        Sound because the trace key pins the whole instruction sequence:
        with the anchor PC equal (the predicted key's anchor *is*
        ``trace[i].pc``) and every embedded branch showing the same PC and
        outcome as a previously key-matched occurrence, the committed
        stream between branches is straight-line static code — the
        general walk would reproduce the identical segment and key.  Any
        mismatch (including a truncated trace tail) falls back to the full
        walk, which owns squash detection.  Fast path only: the
        interpreted reference always takes the full walk.
        """
        if not self._fastpath:
            return None
        probe = getattr(configuration, "_occurrence_probe", None)
        if probe is None:
            return None
        length, branches = probe
        if i + length > len(trace):
            return None
        for offset, pc, taken in branches:
            dyn = trace[i + offset]
            if dyn.pc != pc or bool(dyn.taken) is not taken:
                return None
        return trace[i:i + length]

    # ------------------------------------------------------------------
    def _mapping_phase(self, trace, i, predicted) -> int | None:
        segment = self._actual_segment(trace, i)
        actual_key = self._segment_key(segment)
        if actual_key != predicted:
            if self.bus is not None:
                self.bus.emit(
                    "map.abort", key=predicted, actual=actual_key
                )
            return None  # a mispredicted branch aborts the mapping process
        stats = self.pipeline.stats
        self.pipeline.note_phase("mapping")
        drained = self.pipeline.drain()
        configuration = self.mapper.map_trace(segment, actual_key)
        self.ccache.insert(actual_key, configuration)
        stats.config_cache_writes += 1
        if configuration is not None:
            # Mapping rides the issue unit while the trace instructions
            # execute on the host; fetch resumes once mapping finishes.
            self.pipeline.stall_fetch_until(
                drained + configuration.mapping_cycles, cause="mapping"
            )
        # The trace instructions execute on the host: ``segment`` is
        # ``trace[i:end]``.
        end = i + len(segment)
        j = i
        while j < end:
            j = self._host_span(trace, j, end)
        self._mapping_instructions += len(segment)
        stats.mapping_instructions += len(segment)
        self.pipeline.note_phase("host")
        return end

    # ------------------------------------------------------------------
    def _predict_key(self, pc: int) -> tuple | None:
        """Predicted trace key at ``pc``: a front-end walk of the static
        program under predicted branches.

        Hops branch-to-branch over the program's precomputed
        ``StaticSegment`` summaries instead of probing ``by_pc`` per
        instruction.  Returns ``None`` when the walk reaches a HALT
        before the trace fills.
        """
        program = self.program
        bpred = self.pipeline.bpred
        history = bpred.history
        cfg = self.config
        trace_length = cfg.trace_length
        outcomes: list[bool] = []
        length = 0
        cursor = pc
        while length < trace_length:
            seg = program.segment_from(cursor)
            remaining = trace_length - length
            if seg.halts:
                if seg.count >= remaining:
                    length = trace_length  # cap reached before the HALT
                    break
                return None
            if seg.count > remaining or seg.branch_pc is None:
                length = trace_length  # cap splits the block mid-run
                break
            length += seg.count
            taken = bpred.peek_with_history(seg.branch_pc, history)
            history = bpred.shift_history(history, taken)
            outcomes.append(taken)
            if len(outcomes) >= cfg.max_branches:
                break
            cursor = seg.taken_pc if taken else seg.fall_pc
            if (cfg.smart_trace_selection
                    and program.distance_to_next_branch(
                        cursor, trace_length + 1)
                    > trace_length - length):
                break  # next block cannot fit: end the trace here
        return (pc, tuple(outcomes), length)

    def _actual_segment(self, trace, i) -> list[DynamicInstruction]:
        """The oracle-path trace occurrence starting at index ``i``."""
        cfg = self.config
        segment: list[DynamicInstruction] = []
        branches = 0
        for j in range(i, min(i + cfg.trace_length, len(trace))):
            dyn = trace[j]
            if dyn.opcode is Opcode.HALT:
                break
            segment.append(dyn)
            if dyn.is_branch:
                branches += 1
                if branches >= cfg.max_branches:
                    break
                if (cfg.smart_trace_selection
                        and self.builder.distance_to_next_branch(dyn.next_pc)
                        > cfg.trace_length - len(segment)):
                    break
        return segment

    @staticmethod
    def _segment_key(segment) -> tuple | None:
        if not segment:
            return None
        outcomes = tuple(bool(d.taken) for d in segment if d.is_branch)
        return (segment[0].pc, outcomes, len(segment))

    # ------------------------------------------------------------------
    def _finish(self) -> DynaSpAMResult:
        self.pipeline.stats.fabric_configurations = self.pool.reconfigurations
        pipeline_result = self.pipeline.finish()
        return DynaSpAMResult(
            pipeline=pipeline_result,
            host_instructions=self._host_instructions,
            mapping_instructions=self._mapping_instructions,
            offloaded_instructions=self.pipeline.stats.offloaded_instructions,
            mapped_traces=self.ccache.mapped_trace_count,
            offloaded_traces=len(self._offloaded_keys),
            lifetimes=self.pool.lifetimes(),
            squashes=self._squashes,
            reconfigurations=self.pool.reconfigurations,
            fabric_utilization=self.pool.utilization(),
        )
