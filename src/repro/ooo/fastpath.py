"""Compiled hot path for the OOO timing model.

``FastOOOPipeline`` is a drop-in replacement for ``OOOPipeline`` that
produces *bit-identical* timing, statistics, and event sequences while
running several times faster.  It is the same model, re-expressed for
the interpreter:

* a per-``Instruction`` **decode cache**: opclass-derived facts (path
  kind, latency, functional-unit pool dict/size/occupancy span, the
  stats-counter slot, the fetch block) are resolved once per static
  instruction instead of per dynamic instance — eliminating the
  ``_EXEC_COUNTER`` dict lookup, ``getattr``/``setattr`` pair, enum
  hashing, and ``latency_of`` call on every instruction;
* ``process_span()`` is one flat, specialized loop over a run of the
  trace: branch/jump/load/store/ALU paths branch on a precomputed
  small-int kind, slot allocation and the ring-buffer capacity models
  are inlined, and the cursors, ring heads and counts live in locals for
  the whole span (``process()`` is a span of one);
* **batched statistics**: hot counters accumulate in a plain int list
  indexed by module constants and flush additively into
  ``PipelineStats`` in ``finish()`` (cold counters — fabric, mapping,
  drain, offload buckets — are still written directly by the framework,
  which is why the flush adds rather than assigns);
* stall credits keep a running total so the common commit-gap case
  (no credits pending) skips the per-cause scan.

Invariants the fast path relies on (and the base model now guarantees):
the slot-count and FU-occupancy dicts are pruned *in place* (cached
references stay valid), the store window is a bounded deque, and the
``macro_*`` primitives used by the DynaSpAM framework mutate the same
shared structures, so host and offload execution interleave freely.

Bit-identity against the interpreted model is enforced by
``tests/engine/test_fastpath_identity.py`` and CI's fastpath-identity
job; ``repro perfbench`` measures the speedup.
"""

from __future__ import annotations

from repro.isa.instructions import DynamicInstruction, Instruction
from repro.isa.opcodes import FU_PIPELINED, OpClass
from repro.ooo.config import CoreConfig
from repro.ooo.fus import POOL_OF
from repro.ooo.lsq import StoreRecord
from repro.ooo.pipeline import InstrTiming, OOOPipeline, PipelineResult

#: PipelineStats fields mirrored by the batched-counter list, in slot
#: order.  Only counters touched by the per-instruction hot path belong
#: here; everything else keeps writing ``stats`` directly.
_SB_FIELDS: tuple[str, ...] = (
    "fetches", "wrongpath_fetches", "icache_accesses", "icache_misses",
    "predictor_lookups", "branch_mispredicts", "btb_misses",
    "renames", "dispatches", "wakeups", "selections",
    "int_alu_ops", "int_mul_ops", "int_div_ops",
    "fp_alu_ops", "fp_mul_ops", "fp_div_ops",
    "regfile_reads", "regfile_writes", "bypass_transfers",
    "loads", "stores", "dcache_accesses", "dcache_misses", "l2_accesses",
    "store_forwards", "memory_violations",
    "commits", "rob_writes", "instructions", "cycles_host",
)

(F_FETCHES, F_WRONGPATH, F_IC_ACC, F_IC_MISS,
 F_PRED, F_MISP, F_BTB,
 F_RENAMES, F_DISPATCHES, F_WAKEUPS, F_SELECTIONS,
 F_INT_ALU, F_INT_MUL, F_INT_DIV,
 F_FP_ALU, F_FP_MUL, F_FP_DIV,
 F_RF_READS, F_RF_WRITES, F_BYPASS,
 F_LOADS, F_STORES, F_DC_ACC, F_DC_MISS, F_L2_ACC,
 F_FORWARDS, F_VIOLATIONS,
 F_COMMITS, F_ROB_WRITES, F_INSTRUCTIONS, F_CYCLES_HOST,
 ) = range(len(_SB_FIELDS))

#: Stats slot charged for one execution of each opclass — the decode-time
#: resolution of ``pipeline._EXEC_COUNTER`` (branches, jumps, nops, and
#: memory address generation all execute on the integer ALUs).
_EXEC_SLOT: dict[OpClass, int] = {
    OpClass.INT_ALU: F_INT_ALU,
    OpClass.INT_MUL: F_INT_MUL,
    OpClass.INT_DIV: F_INT_DIV,
    OpClass.FP_ALU: F_FP_ALU,
    OpClass.FP_MUL: F_FP_MUL,
    OpClass.FP_DIV: F_FP_DIV,
    OpClass.BRANCH: F_INT_ALU,
    OpClass.JUMP: F_INT_ALU,
    OpClass.NOP: F_INT_ALU,
    OpClass.LOAD: F_INT_ALU,
    OpClass.STORE: F_INT_ALU,
}

#: Slots incremented exactly once per instruction, no matter its kind.
#: ``process_span`` counts instructions in one scalar and ``finish`` fans
#: the total out to these slots, saving six list increments per
#: instruction.
_UNIFORM_SLOTS: tuple[int, ...] = (
    F_FETCHES, F_RENAMES, F_DISPATCHES, F_SELECTIONS,
    F_COMMITS, F_ROB_WRITES, F_INSTRUCTIONS,
)

# Specialized-path discriminator, resolved at decode time.
_KIND_ALU = 0
_KIND_BRANCH = 1
_KIND_JUMP = 2
_KIND_LOAD = 3
_KIND_STORE = 4


class FastOOOPipeline(OOOPipeline):
    """Decode-cached, inlined implementation of the timing model.

    Every structural model (ROB/RS/LQ/SQ rings, scoreboard dicts, FU
    occupancy dicts, slot windows) is the *same object* the base class
    owns; only the per-instruction control flow is re-expressed.  The
    framework's ``macro_dispatch``/``macro_commit``/``drain`` therefore
    work unchanged against a fast pipeline.
    """

    def __init__(
        self,
        config: CoreConfig | None = None,
        conservative_memory: bool = False,
        bus=None,
    ) -> None:
        super().__init__(config, conservative_memory, bus=bus)
        cfg = self.config
        self._fetch_width = cfg.fetch_width
        self._issue_width = cfg.issue_width
        self._commit_width = cfg.commit_width
        self._frontend_depth = cfg.frontend_depth
        self._block_bytes = cfg.block_bytes
        self._l1i_latency = cfg.l1i_latency
        self._l1d_latency = cfg.l1d_latency
        self._btb_miss_penalty = cfg.btb_miss_penalty
        self._mispredict_redirect = cfg.mispredict_redirect
        self._store_forward_latency = cfg.store_forward_latency
        self._violation_squash_penalty = cfg.violation_squash_penalty
        self._rob_entries = cfg.rob_entries
        self._storesets_enabled = cfg.storesets_enabled
        self._store_fifo_cap = cfg.store_queue * 2
        # Bound methods and interior structures of the shared models.
        # All of these are identity-stable for the life of the pipeline
        # (the base model prunes its dicts in place, never rebuilds).
        self._icache_access = self.icache.access
        self._dcache_access = self.dcache.access
        self._bpred_update = self.bpred.predict_and_update
        self._btb_lookup = self.bpred.btb_lookup
        self._ss_load_dispatched = self.storesets.load_dispatched
        self._ss_store_dispatched = self.storesets.store_dispatched
        self._ss_train = self.storesets.train_violation
        self._regs_ready = self.regs._ready
        self._regs_producer = self.regs._producer
        self._sq_window = self.sq._window
        self._sq_by_addr = self.sq._by_addr
        #: id(static) -> decode record.  The record pins the static
        #: instruction (slot 0) so a recycled id can never alias a dead
        #: object's cache entry.
        self._decode: dict[int, tuple] = {}
        self._sb: list[int] = [0] * len(_SB_FIELDS)
        #: Instructions processed since the last ``finish`` — fanned out
        #: to the ``_UNIFORM_SLOTS`` counters at flush time.
        self._uniform_count = 0
        #: Sum of ``_stall_credit`` values, maintained by the overridden
        #: credit hooks so the commit hot path can skip the per-cause
        #: scan whenever no credit is pending (the common case).
        self._credit_total = 0

    # ------------------------------------------------------------------
    # Decode cache
    # ------------------------------------------------------------------
    def _decode_static(self, static: Instruction, key: int) -> tuple:
        opclass = static.opclass
        if static.is_branch:
            kind = _KIND_BRANCH
        elif opclass is OpClass.JUMP:
            kind = _KIND_JUMP
        elif static.is_load:
            kind = _KIND_LOAD
        elif static.is_store:
            kind = _KIND_STORE
        else:
            kind = _KIND_ALU
        latency = static.latency
        pool = POOL_OF[opclass]
        srcs = static.srcs
        rec = (
            static,                          # 0: pin against id reuse
            kind,                            # 1
            latency,                         # 2
            srcs,                            # 3
            len(srcs),                       # 4
            static.dest,                     # 5
            _EXEC_SLOT[opclass],             # 6
            self.fus._busy[pool],            # 7: pool occupancy dict
            self.fus._sizes[pool],           # 8
            1 if FU_PIPELINED[opclass] else (latency if latency > 1 else 1),  # 9
            static.pc // self._block_bytes,  # 10: fetch block
        )
        self._decode[key] = rec
        return rec

    # ------------------------------------------------------------------
    # Stall-credit hooks (keep _credit_total coherent with the dict;
    # also used by the base-class drain/stall_fetch_until/macro paths)
    # ------------------------------------------------------------------
    def _credit_stall(self, cause: str, cycles: int) -> None:
        if cycles > 0:
            self._stall_credit[cause] += cycles
            self._credit_total += cycles

    def _charge_commit_gap(self, gap: int, bucket: str | None) -> None:
        stats = self.stats
        if bucket == "offload":
            stats.cycles_offload += gap
            return
        if self._credit_total:
            credit = self._stall_credit
            for cause, field_name in self._credit_fields.items():
                if not gap:
                    break
                available = credit[cause]
                if available:
                    take = available if available < gap else gap
                    credit[cause] = available - take
                    self._credit_total -= take
                    setattr(stats, field_name,
                            getattr(stats, field_name) + take)
                    gap -= take
        stats.cycles_host += gap

    # ------------------------------------------------------------------
    # The compiled host path
    # ------------------------------------------------------------------
    def process(self, dyn: DynamicInstruction) -> InstrTiming:
        """Assign cycles to one dynamic instruction: a one-instruction
        span."""
        return self.process_span((dyn,), 0, 1)

    def process_span(self, trace, start: int, stop: int) -> InstrTiming | None:
        """Assign cycles to ``trace[start:stop]`` (fast engine).

        The pipeline cursors, the ROB/RS/LQ/SQ ring heads and counts, the
        FU high-water mark and the rename count live in locals for the
        whole span.  They are written back once at the end, and before
        each slot-window prune the span crosses; the span is cut into
        chunks at those prunes, so the inner loop never tests for one.
        Returns the timing of the span's last instruction (None if the
        span is empty); no other ``InstrTiming`` is built.
        """
        if start >= stop:
            return None
        decode = self._decode
        decode_static = self._decode_static
        sb = self._sb
        stall_credit = self._stall_credit
        fetch_counts = self._fetch_counts
        issue_counts = self._issue_counts
        commit_counts = self._commit_counts
        fetch_width = self._fetch_width
        issue_width = self._issue_width
        commit_width = self._commit_width
        frontend_depth = self._frontend_depth
        l1i_latency = self._l1i_latency
        l1d_latency = self._l1d_latency
        btb_miss_penalty = self._btb_miss_penalty
        mispredict_redirect = self._mispredict_redirect
        forward_latency = self._store_forward_latency
        squash_penalty = self._violation_squash_penalty
        wrongpath_cap = self._rob_entries
        storesets_enabled = self._storesets_enabled
        conservative = self.conservative_memory
        store_fifo_cap = self._store_fifo_cap
        icache_access = self._icache_access
        dcache_access = self._dcache_access
        bpred_update = self._bpred_update
        btb_lookup = self._btb_lookup
        ss_load_dispatched = self._ss_load_dispatched
        ss_store_dispatched = self._ss_store_dispatched
        ss_train = self._ss_train
        regs_ready = self._regs_ready
        regs_producer = self._regs_producer
        sq_window = self._sq_window
        sq_by_addr = self._sq_by_addr
        store_by_seq = self._store_by_seq
        store_fifo = self._store_seq_fifo
        l2 = self.l2
        rob = self.rob
        rs = self.rs
        lq = self.lq
        sq = self.sq
        fus = self.fus
        regs = self.regs
        rob_ring = rob._commit_ring
        rob_entries = rob.entries
        rs_ring = rs._issue_ring
        rs_entries = rs.entries
        lq_ring = lq._complete_ring
        lq_entries = lq.entries
        sq_ring = sq._commit_ring
        sq_entries = sq.entries
        prune_interval = self.PRUNE_INTERVAL

        # Hoisted state: written back at every chunk end below.
        seq = self.seq
        next_fetch = self.next_fetch_cycle
        barrier = self.fetch_barrier
        prev_dispatch = self.prev_dispatch_cycle
        prev_commit = self.prev_commit_cycle
        last_commit = self.last_commit_cycle
        last_block = self._last_fetch_block
        ops = self._ops_since_prune
        rob_head = rob._head
        rob_count = rob._count
        rob_last = rob.last_commit_cycle
        rs_head = rs._head
        rs_count = rs._count
        lq_head = lq._head
        lq_count = lq._count
        sq_head = sq._head
        sq_count = sq._count
        max_claimed = fus._max_claimed
        renames = regs.renames

        index = start
        while True:
            # The chunk ends where the reference model would prune.
            chunk_end = min(stop, index + max(prune_interval - ops, 1))
            for dyn in trace[index:chunk_end]:
                static = dyn.static
                rec = decode.get(id(static))
                if rec is None or rec[0] is not static:
                    rec = decode_static(static, id(static))
                (_, kind, latency, srcs, nsrcs, dest, exec_slot,
                 busy, pool_size, span, block) = rec
                pc = dyn.pc

                # ---- fetch & branch prediction -----------------------
                cycle = next_fetch if next_fetch >= barrier else barrier
                count = fetch_counts.get(cycle, 0)
                while count >= fetch_width:
                    cycle += 1
                    count = fetch_counts.get(cycle, 0)
                if block != last_block:
                    sb[F_IC_ACC] += 1
                    extra = icache_access(pc) - l1i_latency
                    if extra > 0:
                        sb[F_IC_MISS] += 1
                        cycle += extra
                        count = fetch_counts.get(cycle, 0)
                        stall_credit["frontend"] += extra
                        self._credit_total += extra
                    last_block = block
                fetch_counts[cycle] = count + 1
                next_fetch = fetch = cycle

                mispredicted = False
                if kind == _KIND_BRANCH:
                    sb[F_PRED] += 1
                    taken = bool(dyn.taken)
                    prediction = bpred_update(pc, taken)
                    if prediction != taken:
                        mispredicted = True
                        sb[F_MISP] += 1
                    if prediction:
                        if not btb_lookup(pc):
                            sb[F_BTB] += 1
                            next_fetch = fetch + 1 + btb_miss_penalty
                            if btb_miss_penalty > 0:
                                stall_credit["frontend"] += btb_miss_penalty
                                self._credit_total += btb_miss_penalty
                        else:
                            # A correctly predicted taken branch ends the
                            # fetch group.
                            next_fetch = fetch + 1
                elif kind == _KIND_JUMP:
                    if not btb_lookup(pc):
                        sb[F_BTB] += 1
                        next_fetch = fetch + 1 + btb_miss_penalty
                        if btb_miss_penalty > 0:
                            stall_credit["frontend"] += btb_miss_penalty
                            self._credit_total += btb_miss_penalty
                    else:
                        next_fetch = fetch + 1

                # ---- rename / dispatch (in order) --------------------
                dispatch = fetch + frontend_depth
                if prev_dispatch > dispatch:
                    dispatch = prev_dispatch
                if rob_count >= rob_entries:
                    other = rob_ring[rob_head] + 1
                    if other > dispatch:
                        dispatch = other
                if rs_count >= rs_entries:
                    other = rs_ring[rs_head] + 1
                    if other > dispatch:
                        dispatch = other
                if kind == _KIND_LOAD:
                    if lq_count >= lq_entries:
                        other = lq_ring[lq_head] + 1
                        if other > dispatch:
                            dispatch = other
                elif kind == _KIND_STORE:
                    if sq_count >= sq_entries:
                        other = sq_ring[sq_head] + 1
                        if other > dispatch:
                            dispatch = other
                prev_dispatch = dispatch

                # ---- operand readiness -------------------------------
                ready = dispatch + 1
                for src in srcs:
                    other = regs_ready.get(src, 0)
                    if other > ready:
                        ready = other
                sb[F_WAKEUPS] += nsrcs

                violated = False
                if kind == _KIND_LOAD:
                    sb[F_LOADS] += 1
                    if conservative:
                        older = sq.youngest_older(seq)
                        if older is not None and older.data_ready > ready:
                            ready = older.data_ready
                    elif storesets_enabled:
                        wait_seq = ss_load_dispatched(pc)
                        if wait_seq is not None:
                            predicted = store_by_seq.get(wait_seq)
                            if (predicted is not None
                                    and predicted.data_ready > ready):
                                ready = predicted.data_ready
                elif kind == _KIND_STORE:
                    sb[F_STORES] += 1
                    if storesets_enabled and not conservative:
                        prev_seq = ss_store_dispatched(pc, seq)
                        if prev_seq is not None:
                            prev = store_by_seq.get(prev_seq)
                            if prev is not None and prev.data_ready > ready:
                                ready = prev.data_ready

                # ---- issue / execute ---------------------------------
                # Inlined _alloc_issue: the earliest cycle with both a
                # free unit for the op's full occupancy span and a free
                # issue slot.
                cycle = ready
                if span == 1:
                    while True:
                        occupancy = busy.get(cycle, 0)
                        if occupancy < pool_size:
                            slots = issue_counts.get(cycle, 0)
                            if slots < issue_width:
                                break
                        cycle += 1
                    busy[cycle] = occupancy + 1
                    end = cycle + 1
                else:
                    while True:
                        free = True
                        for k in range(span):
                            if busy.get(cycle + k, 0) >= pool_size:
                                free = False
                                break
                        if free:
                            slots = issue_counts.get(cycle, 0)
                            if slots < issue_width:
                                break
                        cycle += 1
                    for k in range(span):
                        claim = cycle + k
                        busy[claim] = busy.get(claim, 0) + 1
                    end = cycle + span
                if end > max_claimed:
                    max_claimed = end
                issue_counts[cycle] = slots + 1
                issue = cycle
                sb[exec_slot] += 1

                if kind == _KIND_LOAD:
                    addr = dyn.addr
                    # The by-addr index holds the youngest windowed store
                    # per address; host seqs are monotone, so the seq
                    # guard only falls back on the (never-hit)
                    # non-monotone probe case.
                    alias = sq_by_addr.get(addr)
                    if alias is not None and alias.seq >= seq:
                        alias = None
                        for record in reversed(sq_window):
                            if record.seq < seq and record.addr == addr:
                                alias = record
                                break
                    if alias is not None and issue < alias.addr_ready:
                        # The load issued before the aliasing store
                        # executed: a memory-order violation, detected
                        # when the store runs.
                        violated = True
                        sb[F_VIOLATIONS] += 1
                        if storesets_enabled:
                            ss_train(pc, alias.pc)
                        complete = alias.data_ready + forward_latency
                        front = next_fetch if next_fetch >= barrier else barrier
                        redirect = alias.addr_ready + squash_penalty
                        if redirect > front:
                            stall_credit["squash_memory"] += redirect - front
                            self._credit_total += redirect - front
                        if redirect > barrier:
                            barrier = redirect
                    elif alias is not None:
                        # Store-to-load forwarding from the store queue.
                        sb[F_FORWARDS] += 1
                        complete = issue + forward_latency
                        other = alias.data_ready + forward_latency
                        if other > complete:
                            complete = other
                    else:
                        sb[F_DC_ACC] += 1
                        before_l2 = l2.hits + l2.misses
                        lat_d = dcache_access(addr)
                        if lat_d > l1d_latency:
                            sb[F_DC_MISS] += 1
                        sb[F_L2_ACC] += l2.hits + l2.misses - before_l2
                        complete = issue + 1 + lat_d
                    lq_ring[lq_head] = complete
                    lq_head += 1
                    if lq_head == lq_entries:
                        lq_head = 0
                    if lq_count < lq_entries:
                        lq_count += 1
                elif kind == _KIND_STORE:
                    complete = issue + 1
                else:
                    complete = issue + latency

                # ---- misprediction redirect --------------------------
                if mispredicted:
                    front = next_fetch if next_fetch >= barrier else barrier
                    redirect = complete + mispredict_redirect
                    if redirect > front:
                        stall_credit["squash_branch"] += redirect - front
                        self._credit_total += redirect - front
                    if redirect > barrier:
                        barrier = redirect
                    # Wrong-path work is not simulated, but its front-end
                    # energy is real: half-rate fetching until the branch
                    # resolves, capped at the ROB window.
                    wrong = (complete - fetch) * fetch_width // 2
                    if wrong > wrongpath_cap:
                        wrong = wrongpath_cap
                    if wrong > 0:
                        sb[F_WRONGPATH] += wrong

                # ---- commit ------------------------------------------
                # Inlined _alloc_commit (bucket=None): when no stall
                # credit is pending the whole gap is healthy host time.
                cycle = complete + 1
                if prev_commit > cycle:
                    cycle = prev_commit
                gap = cycle - prev_commit
                if gap:
                    if self._credit_total:
                        self._charge_commit_gap(gap, None)
                    else:
                        sb[F_CYCLES_HOST] += gap
                count = commit_counts.get(cycle, 0)
                while count >= commit_width:
                    cycle += 1
                    # Commit-width contention is healthy throughput, not
                    # a stall.
                    sb[F_CYCLES_HOST] += 1
                    count = commit_counts.get(cycle, 0)
                commit_counts[cycle] = count + 1
                prev_commit = commit = cycle
                if commit > last_commit:
                    last_commit = commit

                rob_ring[rob_head] = commit
                rob_head += 1
                if rob_head == rob_entries:
                    rob_head = 0
                if rob_count < rob_entries:
                    rob_count += 1
                if commit > rob_last:
                    rob_last = commit
                rs_ring[rs_head] = issue
                rs_head += 1
                if rs_head == rs_entries:
                    rs_head = 0
                if rs_count < rs_entries:
                    rs_count += 1

                if kind == _KIND_STORE:
                    # The address resolves once the base register is
                    # ready (AGU cycle), typically well before the store's
                    # data arrives.
                    base_ready = dispatch + 1
                    if nsrcs:
                        other = regs_ready.get(srcs[0], 0)
                        if other > base_ready:
                            base_ready = other
                    addr_ready = base_ready + 1
                    if issue < addr_ready:
                        addr_ready = issue
                    addr = dyn.addr
                    record = StoreRecord(
                        seq=seq,
                        pc=pc,
                        addr=addr,
                        addr_ready=addr_ready,
                        data_ready=complete,
                        commit=commit,
                    )
                    if len(sq_window) == sq_entries:
                        evicted = sq_window[0]
                        if sq_by_addr.get(evicted.addr) is evicted:
                            del sq_by_addr[evicted.addr]
                    sq_window.append(record)
                    sq_by_addr[addr] = record
                    sq_ring[sq_head] = commit
                    sq_head += 1
                    if sq_head == sq_entries:
                        sq_head = 0
                    if sq_count < sq_entries:
                        sq_count += 1
                    store_by_seq[seq] = record
                    store_fifo.append(seq)
                    if len(store_fifo) > store_fifo_cap:
                        store_by_seq.pop(store_fifo.popleft(), None)
                    # The store writes the cache when it commits.
                    sb[F_DC_ACC] += 1
                    before_l2 = l2.hits + l2.misses
                    lat_d = dcache_access(addr)
                    if lat_d > l1d_latency:
                        sb[F_DC_MISS] += 1
                    sb[F_L2_ACC] += l2.hits + l2.misses - before_l2

                # ---- writeback / scoreboard --------------------------
                if dest is not None:
                    if dest != "r0":
                        renames += 1
                        regs_ready[dest] = complete
                        regs_producer[dest] = seq
                    sb[F_RF_WRITES] += 1
                # Readiness is re-read *after* the define so a dest that
                # is also a source sees its new value — matching the
                # interpreted model.
                for src in srcs:
                    if issue - regs_ready.get(src, 0) <= 2:
                        sb[F_BYPASS] += 1
                    else:
                        sb[F_RF_READS] += 1
                seq += 1

            ops += chunk_end - index
            index = chunk_end
            self.seq = seq
            self.next_fetch_cycle = next_fetch
            self.fetch_barrier = barrier
            self.prev_dispatch_cycle = prev_dispatch
            self.prev_commit_cycle = prev_commit
            self.last_commit_cycle = last_commit
            self._last_fetch_block = last_block
            rob._head = rob_head
            rob._count = rob_count
            rob.last_commit_cycle = rob_last
            rs._head = rs_head
            rs._count = rs_count
            lq._head = lq_head
            lq._count = lq_count
            sq._head = sq_head
            sq._count = sq_count
            fus._max_claimed = max_claimed
            regs.renames = renames
            if ops >= prune_interval:
                ops = 0
                self._ops_since_prune = 0
                self._prune_slot_windows()
            else:
                self._ops_since_prune = ops
            if index >= stop:
                break
        self._uniform_count += stop - start
        return InstrTiming(seq - 1, fetch, dispatch, issue, complete, commit,
                           mispredicted, violated)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def finish(self) -> PipelineResult:
        """Flush the batched counters, then finalize as usual."""
        sb = self._sb
        stats = self.stats
        n = self._uniform_count
        if n:
            self._uniform_count = 0
            for index in _UNIFORM_SLOTS:
                sb[index] += n
        for index, name in enumerate(_SB_FIELDS):
            value = sb[index]
            if value:
                setattr(stats, name, getattr(stats, name) + value)
                sb[index] = 0
        return super().finish()


def make_pipeline(
    config: CoreConfig | None = None,
    conservative_memory: bool = False,
    bus=None,
) -> OOOPipeline:
    """Construct a pipeline for the currently selected engine."""
    from repro.engine import fastpath_enabled

    cls = FastOOOPipeline if fastpath_enabled() else OOOPipeline
    return cls(config, conservative_memory, bus=bus)
