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

from repro.fabric.compiled import OffloadPlan, compile_offload_plan
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


@dataclass(slots=True)
class _PlanEntry:
    """What the fast tier keeps per configuration: the one owner of its
    plans.  Pins the configuration, so its id stays unique while the
    entry lives."""

    configuration: Configuration
    plan: OffloadPlan
    #: The pipeline count slot of its successful invocations.
    count_slot: int
    #: Intra-trace Store-Sets predictions and the Store-Sets generation
    #: they were computed at (None: not yet).
    generation: int | None = None
    predicted_store_pos: dict[int, int] | None = None


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
        #: id(configuration) -> its :class:`_PlanEntry`, for the fast
        #: tier's occurrence check and offload twin.
        self._plans: dict[int, _PlanEntry] = {}

    def _entry(self, configuration: Configuration) -> _PlanEntry:
        """Compile ``configuration``'s plans into a new entry."""
        plan = compile_offload_plan(configuration)
        entry = self._plans[id(configuration)] = _PlanEntry(
            configuration, plan, self.pipeline.count_slot(plan.counters))
        return entry

    def occurrence(self, trace, i: int, configuration: Configuration):
        """The occurrence of ``configuration`` at ``trace[i]`` as a plain
        slice, or None: always on the reference tier, and on the fast
        tier when an embedded branch shows another PC or outcome than
        the plan's, or when the trace ends first.

        ``trace[i]`` is the predicted key's anchor, and the trace key
        pins the whole instruction sequence: with the anchor PC equal and
        every embedded branch showing the key's PC and outcome at its
        position, the committed stream between branches is straight-line
        static code, so the full walk would cut the same slice and
        rebuild the same key.  A None sends the caller to that walk,
        which owns squash detection.
        """
        if not self._fastpath:
            return None
        plan = (self._plans.get(id(configuration))
                or self._entry(configuration)).plan
        end = i + plan.length
        if end > len(trace):
            return None
        for pos, pc, taken in plan.branches:
            dyn = trace[i + pos]
            if dyn.pc != pc or bool(dyn.taken) is not taken:
                return None
        return trace[i:end]

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
        """Plan-driven twin of :meth:`offload` (see repro.fabric.compiled):
        one pass per invocation, calling no helper on the success path
        but the fabric's ``walk`` and the D-cache.

        Per invocation it does only the work that varies between
        invocations of one configuration: addresses, live-in cycles,
        in-flight host stores, cache state and the schedule's timing.
        Everything else comes from the configuration's
        :class:`OffloadPlan`, kept with its count slot and Store-Sets
        predictions in one entry per configuration, which
        :meth:`occurrence` opens on a run's first attempt.
        ``macro_dispatch``, ``macro_commit`` (bucket ``offload``), the
        store queue's ``push`` and the predictor training of
        ``predict_and_update`` are inlined; the training keeps no
        prediction, so it is the same for every predictor kind, and the
        plan carries each embedded branch's PC and outcome, which the
        trace key pins.  ``SpatialFabric.walk`` times the invocation from
        its inputs, reading live-in cycles straight from the scoreboard,
        and returns its slot list; each live-out is written into the
        scoreboard once, from its slot, after the violation check.  The
        D-cache counters are charged from the L1/L2 counter deltas across
        the invocation: nothing but this invocation's loads and store
        drains touches the data caches while it runs, and an L1 miss
        always costs more than the L1 latency (``CoreConfig`` requires a
        positive L2 latency).  The counters a successful invocation adds
        in amounts its configuration fixes are one count in the
        configuration's slot, which ``FastOOOPipeline.finish`` fans out.
        """
        pipeline = self.pipeline
        stats = pipeline.stats
        storesets = pipeline.storesets
        speculative = self.speculation
        entry = (self._plans.get(id(configuration))
                 or self._entry(configuration))
        plan = entry.plan

        # ---- macro_dispatch, inlined ---------------------------------
        seq = pipeline.seq
        pipeline.seq = seq + 1
        cycle = pipeline.next_fetch_cycle
        if pipeline.fetch_barrier > cycle:
            cycle = pipeline.fetch_barrier
        core = pipeline.config
        slot_cycle, count = pipeline._fetch_slot
        if cycle != slot_cycle:
            pipeline._fetch_slot = (cycle, 1)
        elif count < core.fetch_width:
            pipeline._fetch_slot = (cycle, count + 1)
        else:
            cycle += 1
            pipeline._fetch_slot = (cycle, 1)
        pipeline.next_fetch_cycle = cycle
        dispatch = cycle + core.frontend_depth
        rob = pipeline.rob
        rob_entries = rob.entries
        if rob._count >= rob_entries:
            free = rob._commit_ring[rob._head] + 1
            if free > dispatch:
                dispatch = free
        stats.rob_writes += 1
        if self.bus is not None:
            self._emit_dispatch(seq, dispatch, configuration, segment)

        stats.renames += plan.renames
        stats.regfile_reads += plan.regfile_reads

        # ---- memory context (see _memory_context) ---------------------
        mem_addrs = []
        for i in plan.mem_positions:
            mem_addrs.append(segment[i].addr)
        sq = pipeline.sq
        by_addr = sq._by_addr
        extra_wait: dict[int, int] = {}
        host_alias: dict[int, StoreRecord] = {}
        if speculative:
            # Intra-trace predictions change only when violation training
            # changes the learned sets.
            if entry.generation != storesets.generation:
                entry.generation = storesets.generation
                entry.predicted_store_pos = _predicted_stores(
                    storesets, configuration.placements)
            predicted_store_pos = entry.predicted_store_pos
        else:
            predicted_store_pos = {}
        ssit = storesets._ssit
        ssit_entries = storesets.ssit_entries
        for m, pc in plan.loads:
            addr = mem_addrs[m]
            alias = by_addr.get(addr)
            if alias is not None and alias.seq >= seq:
                alias = sq.youngest_alias(addr, seq)
            if alias is None:
                continue
            if speculative:
                host_alias[m] = alias
                # Inlined StoreSetPredictor.same_set.
                load_set = ssit.get((pc >> 2) % ssit_entries)
                if (load_set is None or load_set
                        != ssit.get((alias.pc >> 2) % ssit_entries)):
                    continue
            # Each memory op has its own mem_index, so nothing is waiting
            # there yet (``_memory_context``'s max is with 0).
            extra_wait[m] = alias.data_ready
        if not speculative:
            older = sq.youngest_older(seq)
            if older is not None:
                for m, _pc in plan.stores:
                    extra_wait[m] = older.addr_ready

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
        access = dcache.access
        (_start, complete, occupancy, slots, stores, loads,
         violations) = fabric.walk(
            configuration, plan.timing, start_lower_bound, ready, mem_addrs,
            access, speculative, extra_wait, predicted_store_pos,
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

        # ---- success: macro_commit (bucket offload), inlined ----------
        commit = complete + 1
        previous = pipeline.prev_commit_cycle
        if commit > previous:
            stats.cycles_offload += commit - previous
            count = 0
        else:
            commit = previous
            count = pipeline._commit_count
        if count >= core.commit_width:
            # Commit-width contention is healthy throughput, not a stall.
            commit += 1
            count = 0
            stats.cycles_host += 1
        pipeline._commit_count = count + 1
        pipeline.prev_commit_cycle = commit
        if commit > pipeline.last_commit_cycle:
            pipeline.last_commit_cycle = commit
        head = rob._head
        rob._commit_ring[head] = commit
        head += 1
        rob._head = 0 if head == rob_entries else head
        if rob._count < rob_entries:
            rob._count += 1
        if commit > rob.last_commit_cycle:
            rob.last_commit_cycle = commit

        bus = fabric.config.global_bus_latency
        for reg, slot in plan.liveout_writes:
            ready[reg] = slots[slot] + bus
        regs.renames += len(plan.liveout_writes)

        if stores:
            # Buffered stores drain at commit: StoreQueueModel.push and the
            # D-cache write, per store.
            window = sq._window
            sq_entries = sq.entries
            sq_ring = sq._commit_ring
            sq_head = sq._head
            sq_count = sq._count
            pcs = configuration.mem_op_pcs
            for _pos, m, addr, addr_known, finish in stores:
                record = StoreRecord(seq, pcs[m], addr, addr_known, finish,
                                     commit)
                if len(window) == sq_entries:
                    evicted = window[0]
                    if by_addr.get(evicted.addr) is evicted:
                        del by_addr[evicted.addr]
                window.append(record)
                by_addr[addr] = record
                sq_ring[sq_head] = commit
                sq_head += 1
                if sq_head == sq_entries:
                    sq_head = 0
                if sq_count < sq_entries:
                    sq_count += 1
                access(addr)
            sq._head = sq_head
            sq._count = sq_count
        stats.dcache_accesses += l1.hits + l1.misses - l1_accesses
        stats.dcache_misses += l1.misses - l1_misses
        stats.l2_accesses += l2.hits + l2.misses - l2_accesses

        if plan.branches:
            # BranchPredictor.predict_and_update's training, inlined: both
            # component tables, the chooser, then the history (always
            # masked, so it indexes gshare as is).
            bpred = pipeline.bpred
            bimodal = bpred.bimodal
            gshare = bpred.gshare
            chooser = bpred.chooser
            mask = bpred.mask
            history = bpred.history
            for _pos, pc, taken in plan.branches:
                b_index = (pc >> 2) & mask
                g_index = b_index ^ history
                b_counter = bimodal[b_index]
                g_counter = gshare[g_index]
                if taken:
                    if b_counter < 3:
                        bimodal[b_index] = b_counter + 1
                    if g_counter < 3:
                        gshare[g_index] = g_counter + 1
                else:
                    if b_counter > 0:
                        bimodal[b_index] = b_counter - 1
                    if g_counter > 0:
                        gshare[g_index] = g_counter - 1
                g_taken = g_counter >= 2
                if (b_counter >= 2) != g_taken:
                    counter = chooser[b_index]
                    if g_taken == taken:
                        if counter < 3:
                            chooser[b_index] = counter + 1
                    elif counter > 0:
                        chooser[b_index] = counter - 1
                history = ((history << 1) | taken) & mask
            bpred.history = history

        stats.fabric_active_pe_cycles += plan.fu_ops * occupancy
        pipeline._static_counts[entry.count_slot] += 1

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
