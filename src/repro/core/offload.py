"""Trace offloading: fat atomic invocations, squash, and replay.

Executes one predicted hot-trace occurrence on the fabric.  The invocation
occupies a single main-ROB entry; live-ins come from the rename stage (the
host register scoreboard plus forwarded live-outs of the previous
invocation), memory operations interact with the host store queue and the
Store-Sets unit, and live-outs broadcast back into the host bypass network
at completion (paper Sections 3.1-3.2).  The paper's side ROB (ROB') holds
an invocation's live-outs, branch results and stores until it commits; here
that is the fat entry's timing: ``macro_dispatch``/``macro_commit``, the
``TRACE_SQUASH_DETECT`` bubble and the store-queue pushes at commit.  Each
invocation dispatches and retires within one ``offload`` call, so the model
never holds two invocations in flight.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fabric.compiled import offload_plan_of
from repro.fabric.configuration import Configuration
from repro.fabric.fabric import InvocationContext, SpatialFabric
from repro.ooo.fastpath import FastOOOPipeline
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
    #: Optional ``repro.obs.EventBus`` (None = tracing disabled).
    bus: object | None = None

    def __post_init__(self) -> None:
        #: Engine tier: the pipeline's, captured at construction.  The
        #: plan-driven twin batches counters in ``FastOOOPipeline``'s
        #: count slots.
        self._fastpath = isinstance(self.pipeline, FastOOOPipeline)
        #: id(configuration) -> (configuration, the pipeline count slot
        #: of its successful invocations), for the twin.
        self._count_slots: dict[int, tuple[Configuration, int]] = {}

    def offload(
        self,
        fabric: SpatialFabric,
        configuration: Configuration,
        segment,
        fabric_ready: int,
    ) -> OffloadOutcome:
        """Execute ``segment`` (one trace occurrence) on ``fabric``."""
        if self._fastpath:
            return self._offload_plan(
                fabric, configuration, segment, fabric_ready
            )
        pipeline = self.pipeline
        stats = pipeline.stats

        seq, dispatch = pipeline.macro_dispatch()
        if self.bus is not None:
            self._emit_dispatch(seq, dispatch, configuration, segment)

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
        mem_addrs: dict[int, int] = {}
        index = 0
        for dyn in segment:
            if dyn.is_memory:
                mem_addrs[index] = dyn.addr
                index += 1
        predicted_store_pos, extra_wait, host_alias = self._memory_context(
            configuration, mem_addrs, seq
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
            return self._squash_memory(seq, configuration, violation)

        # ---- success: commit the fat instruction ---------------------
        commit = pipeline.macro_commit(result.complete)
        store_events = [e for e in result.mem_events if e.kind == "store"]

        for reg, cycle in result.liveout_ready.items():
            pipeline.set_live_out(reg, cycle)
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
        for op in configuration.placements:
            counter = f"fabric_{op.pool}_ops"
            setattr(stats, counter, getattr(stats, counter) + 1)
        stats.instructions += len(segment)

        if self.bus is not None:
            self._emit_commit(seq, commit, configuration, segment, result)
        return OffloadOutcome(
            success=True, consumed=len(segment), complete=result.complete
        )

    # ------------------------------------------------------------------
    def _offload_plan(
        self,
        fabric: SpatialFabric,
        configuration: Configuration,
        segment,
        fabric_ready: int,
    ) -> OffloadOutcome:
        """Plan-driven twin of :meth:`offload` (see repro.fabric.compiled).

        Per invocation it does only the work that varies between
        invocations of one configuration: addresses, live-in cycles,
        in-flight host stores, cache state and the schedule's timing.
        Everything else comes from the configuration's
        :class:`OffloadPlan`.  ``SpatialFabric.walk`` times the
        invocation from its inputs, reading live-in cycles straight from
        the scoreboard, and returns plain values.  The scoreboard and the
        store queue's address index are read and written directly.  The
        D-cache counters are charged from the L1/L2 counter deltas across
        the invocation: nothing but this invocation's loads and store
        drains touches the data caches while it runs, and an L1 miss
        always costs more than the L1 latency (``CoreConfig`` requires a
        positive L2 latency).  The counters a successful invocation adds
        in amounts its configuration fixes are one count in the
        configuration's slot, which ``FastOOOPipeline.finish`` fans out.
        """
        plan = offload_plan_of(configuration, segment)
        pipeline = self.pipeline
        stats = pipeline.stats

        seq, dispatch = pipeline.macro_dispatch()
        if self.bus is not None:
            self._emit_dispatch(seq, dispatch, configuration, segment)

        stats.renames += plan.renames
        stats.regfile_reads += len(configuration.live_ins)

        # ---- memory context (see _memory_context) ---------------------
        mem_addrs = [segment[i].addr for i in plan.mem_positions]
        sq = pipeline.sq
        by_addr = sq._by_addr
        storesets = pipeline.storesets
        speculative = self.speculation
        extra_wait: dict[int, int] = {}
        host_alias: dict[int, StoreRecord] = {}
        if speculative:
            # Intra-trace predictions change only when violation training
            # changes the learned sets.
            cached = getattr(configuration, "_predicted_store_cache", None)
            if (cached is not None and cached[0] is storesets
                    and cached[1] == storesets.generation):
                predicted_store_pos = cached[2]
            else:
                predicted_store_pos = _predicted_stores(
                    storesets, configuration.placements
                )
                configuration._predicted_store_cache = (
                    storesets, storesets.generation, predicted_store_pos
                )
        else:
            predicted_store_pos = {}
        for m, pc in plan.loads:
            addr = mem_addrs[m]
            alias = by_addr.get(addr)
            if alias is not None and alias.seq >= seq:
                alias = sq.youngest_alias(addr, seq)
            if alias is None:
                continue
            if speculative:
                host_alias[m] = alias
                if not storesets.same_set(pc, alias.pc):
                    continue
            extra_wait[m] = max(extra_wait.get(m, 0), alias.data_ready)
        if not speculative:
            older = sq.youngest_older(seq)
            if older is not None:
                for m, _pos, _pc in plan.store_positions:
                    extra_wait[m] = max(
                        extra_wait.get(m, 0), older.addr_ready
                    )

        dcache = pipeline.dcache
        l1 = dcache.l1
        l2 = pipeline.l2
        l1_accesses = l1.hits + l1.misses
        l1_misses = l1.misses
        l2_accesses = l2.hits + l2.misses
        start_lower_bound = dispatch + 1
        if fabric_ready > start_lower_bound:
            start_lower_bound = fabric_ready
        regs = pipeline.regs
        ready = regs._ready
        (_start, complete, occupancy, liveout_ready, stores, loads,
         violations) = fabric.walk(
            configuration, start_lower_bound, ready, mem_addrs,
            dcache.access, speculative, extra_wait, predicted_store_pos,
        )

        if violations or host_alias:
            violation = _walk_violation(
                configuration, stores, loads, violations, host_alias
            )
            if violation is not None:
                stats.dcache_accesses += l1.hits + l1.misses - l1_accesses
                stats.dcache_misses += l1.misses - l1_misses
                stats.l2_accesses += l2.hits + l2.misses - l2_accesses
                return self._squash_memory(seq, configuration, violation)

        # ---- success: commit the fat instruction ---------------------
        commit = pipeline.macro_commit(complete)

        for reg, cycle in liveout_ready.items():
            if reg != "r0":
                ready[reg] = cycle
        regs.renames += plan.liveout_renames

        if stores:
            push = sq.push
            access = dcache.access
            pcs = configuration.mem_op_pcs
            for _pos, m, addr, addr_known, finish in stores:
                push(StoreRecord(seq, pcs[m], addr, addr_known, finish,
                                 commit))
                access(addr)
        stats.dcache_accesses += l1.hits + l1.misses - l1_accesses
        stats.dcache_misses += l1.misses - l1_misses
        stats.l2_accesses += l2.hits + l2.misses - l2_accesses

        predict = pipeline.bpred.predict_and_update
        for i in plan.branch_positions:
            dyn = segment[i]
            predict(dyn.pc, bool(dyn.taken))

        stats.fabric_active_pe_cycles += (
            len(configuration.placements) * occupancy
        )
        counted = self._count_slots.get(id(configuration))
        if counted is None:
            # The entry pins the configuration, so its id stays unique.
            counted = self._count_slots[id(configuration)] = (
                configuration, pipeline.count_slot(plan.counters))
        pipeline._static_counts[counted[1]] += 1

        outcome = OffloadOutcome(success=True, consumed=len(segment),
                                 complete=complete)
        if self.bus is not None:
            self._emit_commit(seq, commit, configuration, segment, outcome)
        return outcome

    # ------------------------------------------------------------------
    def _emit_dispatch(self, seq, dispatch, configuration, segment) -> None:
        self.bus.emit(
            "offload.dispatch",
            cycle=dispatch,
            seq=seq,
            key=configuration.trace_key,
            instructions=len(segment),
            live_ins=len(configuration.live_ins),
        )

    def _emit_commit(self, seq, commit, configuration, segment,
                     result) -> None:
        """``result`` is anything carrying the invocation's ``complete``
        cycle: an ``InvocationResult`` or the twin's outcome."""
        self.bus.emit(
            "offload.commit",
            cycle=commit,
            seq=seq,
            key=configuration.trace_key,
            instructions=len(segment),
            complete=result.complete,
        )

    def _squash_memory(self, seq, configuration, violation) -> OffloadOutcome:
        """Squash the invocation on a memory-order violation."""
        pipeline = self.pipeline
        stats = pipeline.stats
        load_pc, store_pc, detect = violation
        stats.memory_violations += 1
        stats.fabric_squashes += 1
        if self.speculation:
            pipeline.storesets.train_violation(load_pc, store_pc)
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

    # ------------------------------------------------------------------
    def _memory_context(self, configuration, mem_addrs, seq):
        """Build Store-Sets predictions and host-store waits per mem op."""
        storesets = self.pipeline.storesets
        sq = self.pipeline.sq
        predicted_store_pos: dict[int, int] = {}
        extra_wait: dict[int, int] = {}
        host_alias: dict[int, StoreRecord] = {}

        store_positions = []
        for op in configuration.placements:
            if op.is_store:
                store_positions.append((op.mem_index, op.pos, op.pc))
        loads = [op for op in configuration.placements if op.is_load]

        if self.speculation:
            predicted_store_pos = _predicted_stores(
                storesets, configuration.placements
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


def _walk_violation(configuration, stores, loads, violations, host_alias):
    """``OffloadEngine._find_violation`` over ``SpatialFabric.walk``'s
    plain values."""
    if violations:
        load_pos, store_pos = violations[0]
        for pos, _m, _addr, addr_known, _finish in stores:
            if pos == store_pos:
                return (configuration.op_at(load_pos).pc,
                        configuration.op_at(store_pos).pc, addr_known)
    for m, start in loads:
        alias = host_alias.get(m)
        if alias is not None and start < alias.addr_ready:
            return configuration.mem_op_pcs[m], alias.pc, alias.addr_ready
    return None


def _predicted_stores(storesets, placements) -> dict[int, int]:
    """Intra-trace Store-Sets predictions: each load's ``mem_index`` ->
    position of the latest older store whose PC shares its store set."""
    predicted: dict[int, int] = {}
    stores = [op for op in placements if op.is_store]
    for op in placements:
        if not op.is_load:
            continue
        best_pos = None
        for store in stores:
            if store.pos < op.pos and storesets.same_set(op.pc, store.pc):
                if best_pos is None or store.pos > best_pos:
                    best_pos = store.pos
        if best_pos is not None:
            predicted[op.mem_index] = best_pos
    return predicted
