"""Trace offloading: fat atomic invocations, squash, and replay.

Executes one predicted hot-trace occurrence on the fabric.  The invocation
occupies a single main-ROB entry pointing at a ROB' entry; live-ins come
from the rename stage (the host register scoreboard plus forwarded
live-outs of the previous invocation), memory operations interact with the
host store queue and the Store-Sets unit, and live-outs broadcast back into
the host bypass network at completion (paper Sections 3.1-3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.siderob import SideROB
from repro.engine import fastpath_enabled
from repro.fabric.compiled import offload_plan_of
from repro.fabric.configuration import Configuration
from repro.fabric.fabric import InvocationContext, SpatialFabric
from repro.ooo.lsq import StoreRecord
from repro.ooo.pipeline import OOOPipeline

#: Cycles from invocation dispatch until a divergent embedded branch is
#: detected in ROB' and the squash broadcast reaches the front end.
TRACE_SQUASH_DETECT = 4


@dataclass
class OffloadOutcome:
    """Result of one offload attempt."""

    success: bool
    consumed: int = 0
    complete: int = 0
    violation: tuple[int, int] | None = None   # (load pc, store pc)
    squash_reason: str | None = None


@dataclass
class OffloadEngine:
    """Runs invocations against the host pipeline's shared state."""

    pipeline: OOOPipeline
    speculation: bool = True
    siderob: SideROB = field(default_factory=SideROB)
    #: Optional ``repro.obs.EventBus`` (None = tracing disabled).
    bus: object | None = None

    def offload(
        self,
        fabric: SpatialFabric,
        configuration: Configuration,
        segment,
        fabric_ready: int,
    ) -> OffloadOutcome:
        """Execute ``segment`` (one trace occurrence) on ``fabric``."""
        pipeline = self.pipeline
        stats = pipeline.stats
        # Per-configuration constants (store positions, placed loads, pool
        # counts) lowered once and reused across invocations.
        plan = offload_plan_of(configuration) if fastpath_enabled() else None

        seq, dispatch = pipeline.macro_dispatch()
        entry = self.siderob.allocate(seq, configuration.trace_key)
        if self.bus is not None:
            self.bus.emit(
                "offload.dispatch",
                cycle=dispatch,
                seq=seq,
                key=configuration.trace_key,
                instructions=len(segment),
                live_ins=len(configuration.live_ins),
                siderob_occupancy=self.siderob.occupancy,
            )

        live_in_ready = {
            reg: pipeline.regs.ready_cycle(reg)
            for reg in configuration.live_ins
        }
        # The rename stage renames the trace's live-ins and live-outs and
        # reads the ready live-in values out to the input FIFOs (paper
        # Section 3.1, "Trace Offloading").
        stats.renames += len(configuration.live_ins) + len(configuration.live_outs)
        stats.regfile_reads += len(configuration.live_ins)

        # Memory context: addresses of this occurrence, intra-trace
        # Store-Sets predictions, and waits against in-flight host stores.
        # Offload only runs when the occurrence's key matched the
        # configuration's, so the segment's *static* layout (which
        # positions are memory ops / branches) is a per-configuration
        # constant — memoized on the first occurrence.
        branch_positions = None
        if plan is not None:
            mem_positions, branch_positions = self._segment_layout(
                configuration, segment
            )
            mem_addrs = {
                m: segment[i].addr for m, i in enumerate(mem_positions)
            }
        else:
            mem_addrs: dict[int, int] = {}
            index = 0
            for dyn in segment:
                if dyn.is_memory:
                    mem_addrs[index] = dyn.addr
                    index += 1
        predicted_store_pos, extra_wait, host_alias = self._memory_context(
            configuration, mem_addrs, seq, dispatch, plan
        )

        l2 = pipeline.l2
        l1d = pipeline.dcache
        l1d_latency = pipeline.config.l1d_latency

        def dcache_access(addr: int) -> int:
            stats.dcache_accesses += 1
            before_l2 = l2.hits + l2.misses
            latency = l1d.access(addr)
            if latency > l1d_latency:
                stats.dcache_misses += 1
            stats.l2_accesses += l2.hits + l2.misses - before_l2
            return latency

        ctx = InvocationContext(
            start_lower_bound=max(dispatch + 1, fabric_ready),
            live_in_ready=live_in_ready,
            mem_addrs=mem_addrs,
            dcache_access=dcache_access,
            speculative=self.speculation,
            extra_mem_wait=extra_wait,
            predicted_store_pos=predicted_store_pos,
        )
        result = fabric.execute(configuration, ctx)

        # ---- violation checks ----------------------------------------
        violation = self._find_violation(
            configuration, result, host_alias
        )
        if violation is not None:
            load_pc, store_pc, detect = violation
            stats.memory_violations += 1
            stats.fabric_squashes += 1
            if self.speculation:
                pipeline.storesets.train_violation(load_pc, store_pc)
            self.siderob.squash(entry, detect)
            pipeline.stall_fetch_until(
                detect + pipeline.config.violation_squash_penalty,
                cause="squash_memory",
            )
            if self.bus is not None:
                self.bus.emit(
                    "offload.squash",
                    cycle=detect,
                    seq=seq,
                    key=configuration.trace_key,
                    cause="memory",
                    load_pc=load_pc,
                    store_pc=store_pc,
                )
            return OffloadOutcome(
                success=False,
                violation=(load_pc, store_pc),
                squash_reason="memory",
            )

        # ---- success: commit the fat instruction ---------------------
        commit = pipeline.macro_commit(result.complete)
        store_events = [e for e in result.mem_events if e.kind == "store"]
        self.siderob.mark_complete(
            entry,
            result.complete,
            result.liveout_ready,
            configuration.branch_outcomes,
            [(e.addr, None) for e in store_events],
        )
        self.siderob.commit(entry, commit)

        for reg, cycle in result.liveout_ready.items():
            pipeline.set_live_out(reg, cycle, seq)
            stats.regfile_writes += 1

        # Buffered stores drain to the memory system at commit and become
        # visible to younger host loads through the store queue.
        for event in store_events:
            pipeline.sq.push(
                StoreRecord(
                    seq=seq,
                    pc=configuration.mem_op_pcs[event.mem_index],
                    addr=event.addr,
                    addr_ready=event.addr_known,
                    data_ready=event.finish,
                    commit=commit,
                )
            )
            dcache_access(event.addr)
        stats.stores += len(store_events)
        stats.loads += len(result.mem_events) - len(store_events)

        # ROB' verified the embedded branch outcomes; train the host
        # predictor with them so global history stays coherent.
        if branch_positions is not None:
            predict = pipeline.bpred.predict_and_update
            for i in branch_positions:
                dyn = segment[i]
                predict(dyn.pc, bool(dyn.taken))
            stats.predictor_lookups += len(branch_positions)
        else:
            for dyn in segment:
                if dyn.is_branch:
                    stats.predictor_lookups += 1
                    pipeline.bpred.predict_and_update(dyn.pc, bool(dyn.taken))

        stats.offloaded_instructions += len(segment)
        stats.fabric_invocations += 1
        stats.fabric_fu_ops += result.fu_ops
        stats.fabric_datapath_transfers += result.datapath_transfers
        stats.fabric_fifo_ops += result.fifo_ops
        stats.fabric_active_pe_cycles += (
            len(configuration.placements) * result.occupancy_cycles
        )
        if plan is not None:
            for counter, count in plan.pool_counters:
                setattr(stats, counter, getattr(stats, counter) + count)
        else:
            for op in configuration.placements:
                counter = f"fabric_{op.pool}_ops"
                setattr(stats, counter, getattr(stats, counter) + 1)
        stats.instructions += len(segment)

        if self.bus is not None:
            self.bus.emit(
                "offload.commit",
                cycle=commit,
                seq=seq,
                key=configuration.trace_key,
                instructions=len(segment),
                complete=result.complete,
            )
        return OffloadOutcome(
            success=True, consumed=len(segment), complete=result.complete
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _segment_layout(configuration, segment):
        """(memory positions, branch positions) of this configuration's
        segments.  Valid for every occurrence: the trace key (start PC +
        embedded branch outcomes + length) pins the static instruction
        sequence, and offload only runs on key-matching occurrences."""
        layout = getattr(configuration, "_segment_layout", None)
        if layout is None:
            layout = (
                tuple(i for i, dyn in enumerate(segment) if dyn.is_memory),
                tuple(i for i, dyn in enumerate(segment) if dyn.is_branch),
            )
            configuration._segment_layout = layout
        return layout

    # ------------------------------------------------------------------
    def _memory_context(self, configuration, mem_addrs, seq, dispatch,
                        plan=None):
        """Build Store-Sets predictions and host-store waits per mem op."""
        storesets = self.pipeline.storesets
        sq = self.pipeline.sq
        predicted_store_pos: dict[int, int] = {}
        extra_wait: dict[int, int] = {}
        host_alias: dict[int, StoreRecord] = {}

        if plan is not None:
            store_positions = plan.store_positions  # (mem_index, pos, pc)
            loads = plan.loads
        else:
            store_positions = []
            for op in configuration.placements:
                if op.is_store:
                    store_positions.append((op.mem_index, op.pos, op.pc))
            loads = [op for op in configuration.placements if op.is_load]

        if self.speculation:
            # Intra-trace predictions depend only on the configuration's
            # static layout and the predictor's *learned* sets, which only
            # change on violation training — cached per configuration and
            # validated against the predictor's generation stamp.
            cached = getattr(configuration, "_predicted_store_cache", None)
            if cached is not None and cached[0] == storesets.generation:
                predicted_store_pos = cached[1]
            else:
                for op in loads:
                    # Wait for the latest older store whose PC shares this
                    # load's store set.
                    best_pos = None
                    for (sm, pos, pc) in store_positions:
                        if pos < op.pos and storesets.same_set(op.pc, pc):
                            if best_pos is None or pos > best_pos:
                                best_pos = pos
                    if best_pos is not None:
                        predicted_store_pos[op.mem_index] = best_pos
                configuration._predicted_store_cache = (
                    storesets.generation, predicted_store_pos
                )
            for op in loads:
                m = op.mem_index
                # Host-store interaction: aliasing in-flight store.
                alias = sq.youngest_alias(mem_addrs[m], seq)
                if alias is not None:
                    host_alias[m] = alias
                    if storesets.same_set(op.pc, alias.pc):
                        extra_wait[m] = max(
                            extra_wait.get(m, 0), alias.data_ready
                        )
        else:
            for op in loads:
                m = op.mem_index
                # Conservative inter-invocation ordering goes through the
                # store buffer: all in-flight stores there have resolved
                # addresses (they executed), so a load orders only behind
                # *aliasing* buffered stores and forwards their data.
                # Intra-trace ordering (where addresses resolve as the
                # dataflow fires) is fully conservative in the fabric.
                alias = sq.youngest_alias(mem_addrs[m], seq)
                if alias is not None:
                    extra_wait[m] = max(
                        extra_wait.get(m, 0), alias.data_ready
                    )
        if not self.speculation:
            # Conservative: stores order behind older buffered stores so
            # the memory system sees store-store program order.
            older = sq.youngest_older(seq)
            if older is not None:
                for (m, _pos, _pc) in store_positions:
                    extra_wait[m] = max(
                        extra_wait.get(m, 0), older.addr_ready
                    )
        return predicted_store_pos, extra_wait, host_alias

    # ------------------------------------------------------------------
    def _find_violation(self, configuration, result, host_alias):
        """First memory-order violation, or None.

        Intra-trace violations come from the fabric engine; host-vs-fabric
        violations occur when a fabric load started before an aliasing
        in-flight host store had executed.
        """
        if result.violations:
            # Built only on the (rare) violation path — the common commit
            # path never needs the position index.
            events_by_pos = {e.pos: e for e in result.mem_events}
            for load_pos, store_pos in result.violations:
                load_op = configuration.op_at(load_pos)
                store_op = configuration.op_at(store_pos)
                # Detected when the store's address finally resolves.
                detect = events_by_pos[store_pos].addr_known
                return load_op.pc, store_op.pc, detect
        for event in result.mem_events:
            if event.kind != "load":
                continue
            alias = host_alias.get(event.mem_index)
            if alias is not None and event.start < alias.addr_ready:
                load_pc = configuration.mem_op_pcs[event.mem_index]
                return load_pc, alias.pc, alias.addr_ready
        return None
