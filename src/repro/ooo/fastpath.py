"""Compiled hot path for the OOO timing model.

``FastOOOPipeline`` is a drop-in replacement for ``OOOPipeline`` that
produces *bit-identical* timing, statistics, and event sequences while
running several times faster.  It is the same model, re-expressed for
the interpreter:

* a per-``Instruction`` **decode cache**: opclass-derived facts (path
  kind, latency, source registers, renamed destination, functional-unit
  pool dict/size/occupancy span, the fetch block, the predictor-table
  index or SSIT slot) are resolved once per static instruction instead
  of per dynamic instance;
* ``process_span()`` is one flat, specialized loop over a run of the
  trace: branch/jump/load/store/ALU paths branch on a precomputed
  small-int kind; slot allocation, the ring-buffer capacity models, the
  branch predictor update, the BTB probe, the Store-Sets dispatch probes
  and the commit-gap credit charge are inlined; each source register's
  readiness is read once; the cursors, ring heads and counts live in
  locals for the whole span (``process()`` is a span of one);
* **batched statistics**: every counter that depends only on the static
  instruction is one count per decoded static, fanned out in
  ``finish()``, and so is every counter a successful fabric invocation
  adds in an amount its configuration fixes (one count per offloaded
  configuration, opened by :meth:`FastOOOPipeline.count_slot`); the
  other hot counters accumulate in a plain int list indexed by module
  constants.  Both flush additively into ``PipelineStats`` in
  ``finish()`` (cold counters — the invocation-dependent fabric ones,
  mapping, drain, offload buckets — are still written directly by the
  framework, which is why the flush adds rather than assigns);
* stall credits keep a running total so the common commit-gap case
  (no credits pending) skips the per-cause scan.

Invariants the fast path relies on (and the base model guarantees): the
issue-slot and FU-occupancy dicts are pruned *in place* (cached
references stay valid), the store window is a bounded deque, the fetch
and commit fronts never move back (so each slot is one ``(cycle,
count)`` pair), and the ``macro_*`` primitives used by the DynaSpAM
framework mutate the same shared structures, so host and offload
execution interleave freely.

Bit-identity against the interpreted model is enforced by
``tests/engine/test_fastpath_identity.py``,
``tests/engine/test_host_span_identity.py`` and CI's fastpath-identity
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
#: order.  Only counters the host span charges, and those a successful
#: fabric invocation adds in amounts its configuration fixes (the
#: offload twin's count slots), belong here; everything else keeps
#: writing ``stats`` directly.
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
    "cycles_squash_memory", "cycles_squash_branch", "cycles_drain",
    "cycles_mapping", "cycles_frontend",
    "offloaded_instructions", "fabric_invocations", "fabric_fu_ops",
    "fabric_datapath_transfers", "fabric_fifo_ops",
    "fabric_int_alu_ops", "fabric_int_muldiv_ops",
    "fabric_fp_alu_ops", "fabric_fp_muldiv_ops", "fabric_ldst_ops",
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
 *_,
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
    occupancy dicts, slot counts, predictor tables) is the *same object*
    the base class owns; only the per-instruction control flow is
    re-expressed.  The framework's ``macro_dispatch``/``macro_commit``/
    ``drain`` therefore work unchanged against a fast pipeline.
    """

    def __init__(
        self,
        config: CoreConfig | None = None,
        bus=None,
    ) -> None:
        super().__init__(config, bus=bus)
        #: id(static) -> decode record.  The record pins the static
        #: instruction (slot 0) so a recycled id can never alias a dead
        #: object's cache entry.
        self._decode: dict[int, tuple] = {}
        #: Occurrences since the last ``finish`` of each decoded static
        #: instruction (indexed by its record's count slot) and of each
        #: offloaded configuration's successful invocation, and the
        #: batched counters one occurrence bumps whatever its timing —
        #: ``(stats slot, increment)`` pairs that ``finish`` fans the
        #: counts out to.  :meth:`count_slot` opens a slot.
        self._static_counts: list[int] = []
        self._fanout: list[tuple[tuple[int, int], ...]] = []
        self._sb: list[int] = [0] * len(_SB_FIELDS)
        #: Sum of ``_stall_credit`` values, kept coherent by
        #: ``_credit_stall`` and the span, so a commit gap skips the
        #: per-cause scan whenever no credit is pending (the common case).
        self._credit_total = 0
        #: ``(cause, stats slot)`` in the order ``_charge_commit_gap``
        #: consumes credits: severest cause first.
        self._credit_slots = tuple(
            (cause, _SB_FIELDS.index(name))
            for cause, name in self._credit_fields.items()
        )

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
        nsrcs = len(srcs)
        dest = static.dest
        renamed = None if dest == "r0" else dest   # r0 is never renamed
        if kind == _KIND_BRANCH:
            index = (static.pc >> 2) & self.bpred.mask
        elif kind == _KIND_LOAD or kind == _KIND_STORE:
            index = (static.pc >> 2) % self.storesets.ssit_entries
        else:
            index = 0

        fanout = [(field, 1) for field in _UNIFORM_SLOTS]
        fanout.append((_EXEC_SLOT[opclass], 1))
        if nsrcs:
            fanout.append((F_WAKEUPS, nsrcs))
        if dest is not None:
            fanout.append((F_RF_WRITES, 1))
        if kind == _KIND_BRANCH:
            fanout.append((F_PRED, 1))
        elif kind == _KIND_LOAD:
            fanout.append((F_LOADS, 1))
        elif kind == _KIND_STORE:
            # The store writes the D-cache when it commits.
            fanout += [(F_STORES, 1), (F_DC_ACC, 1)]
        slot = len(self._fanout)
        self._fanout.append(tuple(fanout))
        self._static_counts.append(0)

        src_a = srcs[0] if nsrcs else None
        src_b = srcs[1] if nsrcs > 1 else None
        rec = (
            static,                          # 0: pin against id reuse
            kind,                            # 1
            latency,                         # 2
            nsrcs,                           # 3
            src_a,                           # 4
            src_b,                           # 5
            renamed is not None and src_a == renamed,   # 6
            renamed is not None and src_b == renamed,   # 7
            renamed,                         # 8
            self.fus._busy[pool],            # 9: pool occupancy dict
            self.fus._sizes[pool],           # 10
            1 if FU_PIPELINED[opclass] else (latency if latency > 1 else 1),  # 11
            static.pc // self.config.block_bytes,  # 12: fetch block
            index,                           # 13: predictor index / SSIT slot
            slot,                            # 14: count slot
        )
        self._decode[key] = rec
        return rec

    def count_slot(self, counters) -> int:
        """Open a count slot beside the decoded statics' and return its
        index: ``finish`` charges ``counters``, ``(PipelineStats field,
        increment)`` pairs, once per count in ``_static_counts[slot]``."""
        slot = len(self._fanout)
        self._fanout.append(tuple(
            (_SB_FIELDS.index(name), increment)
            for name, increment in counters))
        self._static_counts.append(0)
        return slot

    def _credit_stall(self, cause: str, cycles: int) -> None:
        if cycles > 0:
            self._stall_credit[cause] += cycles
            self._credit_total += cycles

    # ------------------------------------------------------------------
    # The compiled host path
    # ------------------------------------------------------------------
    def process(self, dyn: DynamicInstruction) -> InstrTiming:
        """Assign cycles to one dynamic instruction: a one-instruction
        span."""
        return self.process_span((dyn,), 0, 1)

    def process_span(self, trace, start: int, stop: int) -> InstrTiming | None:
        """Assign cycles to ``trace[start:stop]`` (fast engine).

        The pipeline cursors, fetch and commit slots, ROB/RS/LQ/SQ ring
        heads and counts, the FU high-water mark, the rename count, the
        branch history and the pending stall-credit total live in locals
        for the whole span.  They are written back once at the end, and
        before each slot-window prune the span crosses; the span is cut
        into chunks at those prunes, so the inner loop never tests for
        one.  The branch predictor, BTB and Store-Sets dispatch probes
        are inlined; their tables are the predictors' own objects.
        Returns the timing of the span's last instruction (None if the
        span is empty); no other ``InstrTiming`` is built.
        """
        if start >= stop:
            return None
        cfg = self.config
        decode = self._decode
        decode_static = self._decode_static
        static_counts = self._static_counts
        sb = self._sb
        stall_credit = self._stall_credit
        credit_slots = self._credit_slots
        issue_counts = self._issue_counts
        fetch_width = cfg.fetch_width
        issue_width = cfg.issue_width
        commit_width = cfg.commit_width
        frontend_depth = cfg.frontend_depth
        l1i_latency = cfg.l1i_latency
        l1d_latency = cfg.l1d_latency
        btb_miss_penalty = cfg.btb_miss_penalty
        mispredict_redirect = cfg.mispredict_redirect
        forward_latency = cfg.store_forward_latency
        squash_penalty = cfg.violation_squash_penalty
        wrongpath_cap = cfg.rob_entries
        store_fifo_cap = cfg.store_queue * 2
        icache_access = self.icache.access
        dcache_access = self.dcache.access
        bpred = self.bpred
        bimodal = bpred.bimodal
        gshare = bpred.gshare
        chooser = bpred.chooser
        mask = bpred.mask
        tournament = bpred.kind == "tournament"
        gshare_only = bpred.kind == "gshare"
        btb = bpred.btb
        btb_entries = bpred.btb_entries
        storesets = self.storesets
        ssit = storesets._ssit
        lfst = storesets._lfst
        regs = self.regs
        regs_ready = regs._ready
        store_by_seq = self._store_by_seq
        store_fifo = self._store_seq_fifo
        rob = self.rob
        rs = self.rs
        lq = self.lq
        sq = self.sq
        fus = self.fus
        sq_window = sq._window
        sq_by_addr = sq._by_addr
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
        fetch, fetch_count = self._fetch_slot
        prev_dispatch = self.prev_dispatch_cycle
        prev_commit = self.prev_commit_cycle
        commit_count = self._commit_count
        last_block = self._last_fetch_block
        credit_total = self._credit_total
        ops = self._ops_since_prune
        history = bpred.history
        rob_head = rob._head
        rob_count = rob._count
        rs_head = rs._head
        rs_count = rs._count
        lq_head = lq._head
        lq_count = lq._count
        sq_head = sq._head
        sq_count = sq._count
        max_claimed = fus._max_claimed
        renames = regs.renames
        bypass = 0
        host_cycles = 0

        index = start
        while True:
            # The chunk ends where the reference model would prune.
            chunk_end = min(stop, index + max(prune_interval - ops, 1))
            for dyn in trace[index:chunk_end]:
                static = dyn.static
                rec = decode.get(id(static))
                if rec is None or rec[0] is not static:
                    rec = decode_static(static, id(static))
                (_, kind, latency, nsrcs, src_a, src_b, a_is_dest,
                 b_is_dest, dest, busy, pool_size, span, block, table_index,
                 count_slot) = rec
                static_counts[count_slot] += 1
                pc = dyn.pc

                # ---- fetch & branch prediction -----------------------
                # ``fetch`` is the cycle of the latest fetch, holding
                # ``fetch_count`` fetches; the front never moves behind it.
                cycle = next_fetch if next_fetch >= barrier else barrier
                if cycle == fetch and fetch_count >= fetch_width:
                    cycle += 1
                if block != last_block:
                    sb[F_IC_ACC] += 1
                    extra = icache_access(pc) - l1i_latency
                    if extra > 0:
                        sb[F_IC_MISS] += 1
                        cycle += extra
                        stall_credit["frontend"] += extra
                        credit_total += extra
                    last_block = block
                if cycle == fetch:
                    fetch_count += 1
                else:
                    fetch = cycle
                    fetch_count = 1
                next_fetch = cycle

                mispredicted = False
                if kind == _KIND_BRANCH:
                    # Inlined BranchPredictor.predict_and_update: predict,
                    # train both component tables and the chooser, shift
                    # the history (which is always masked).
                    taken = True if dyn.taken else False
                    g_index = table_index ^ history
                    b_counter = bimodal[table_index]
                    g_counter = gshare[g_index]
                    b_taken = b_counter >= 2
                    g_taken = g_counter >= 2
                    if tournament:
                        prediction = (g_taken if chooser[table_index] >= 2
                                      else b_taken)
                    elif gshare_only:
                        prediction = g_taken
                    else:
                        prediction = b_taken
                    if taken:
                        if b_counter < 3:
                            bimodal[table_index] = b_counter + 1
                        if g_counter < 3:
                            gshare[g_index] = g_counter + 1
                    else:
                        if b_counter > 0:
                            bimodal[table_index] = b_counter - 1
                        if g_counter > 0:
                            gshare[g_index] = g_counter - 1
                    if b_taken != g_taken:
                        counter = chooser[table_index]
                        if g_taken == taken:
                            if counter < 3:
                                chooser[table_index] = counter + 1
                        elif counter > 0:
                            chooser[table_index] = counter - 1
                    history = ((history << 1) | taken) & mask
                    if prediction != taken:
                        mispredicted = True
                        sb[F_MISP] += 1
                    if prediction:
                        # Inlined BranchPredictor.btb_lookup.
                        if pc in btb:
                            # A correctly predicted taken branch ends the
                            # fetch group.
                            next_fetch = fetch + 1
                        else:
                            if len(btb) >= btb_entries:
                                btb.pop()
                            btb.add(pc)
                            sb[F_BTB] += 1
                            next_fetch = fetch + 1 + btb_miss_penalty
                            if btb_miss_penalty > 0:
                                stall_credit["frontend"] += btb_miss_penalty
                                credit_total += btb_miss_penalty
                elif kind == _KIND_JUMP:
                    if pc in btb:
                        next_fetch = fetch + 1
                    else:
                        if len(btb) >= btb_entries:
                            btb.pop()
                        btb.add(pc)
                        sb[F_BTB] += 1
                        next_fetch = fetch + 1 + btb_miss_penalty
                        if btb_miss_penalty > 0:
                            stall_credit["frontend"] += btb_miss_penalty
                            credit_total += btb_miss_penalty

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
                # Each source's readiness is read once; the bypass check
                # below reuses it.
                ready = dispatch + 1
                if nsrcs:
                    ready_a = regs_ready.get(src_a, 0)
                    if ready_a > ready:
                        ready = ready_a
                    if nsrcs > 1:
                        ready_b = regs_ready.get(src_b, 0)
                        if ready_b > ready:
                            ready = ready_b
                        if nsrcs > 2:
                            for src in static.srcs[2:]:
                                other = regs_ready.get(src, 0)
                                if other > ready:
                                    ready = other

                violated = False
                if kind == _KIND_LOAD:
                    # Inlined StoreSetPredictor.load_dispatched.
                    set_id = ssit.get(table_index)
                    if set_id is not None:
                        wait_seq = lfst.get(set_id)
                        if wait_seq is not None:
                            predicted = store_by_seq.get(wait_seq)
                            if (predicted is not None
                                    and predicted.data_ready > ready):
                                ready = predicted.data_ready
                elif kind == _KIND_STORE:
                    # Inlined StoreSetPredictor.store_dispatched.
                    set_id = ssit.get(table_index)
                    if set_id is not None:
                        prev_seq = lfst.get(set_id)
                        lfst[set_id] = seq
                        if prev_seq is not None:
                            prev = store_by_seq.get(prev_seq)
                            if (prev is not None
                                    and prev.data_ready > ready):
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
                        storesets.train_violation(pc, alias.pc)
                        complete = alias.data_ready + forward_latency
                        front = next_fetch if next_fetch >= barrier else barrier
                        redirect = alias.addr_ready + squash_penalty
                        if redirect > front:
                            stall_credit["squash_memory"] += redirect - front
                            credit_total += redirect - front
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
                        lat_d = dcache_access(addr)
                        if lat_d > l1d_latency:
                            # An L1 miss probes the L2 exactly once.
                            sb[F_DC_MISS] += 1
                            sb[F_L2_ACC] += 1
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
                        credit_total += redirect - front
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
                # Inlined _alloc_commit (bucket=None).  The commit slot is
                # (prev_commit, commit_count).
                cycle = complete + 1
                if cycle > prev_commit:
                    gap = cycle - prev_commit
                    if credit_total:
                        # Inlined _charge_commit_gap: pending stall credits
                        # are consumed severest cause first; the rest of
                        # the gap is healthy host time.
                        for cause, credit_slot in credit_slots:
                            available = stall_credit[cause]
                            if available:
                                take = available if available < gap else gap
                                stall_credit[cause] = available - take
                                credit_total -= take
                                sb[credit_slot] += take
                                gap -= take
                                if not gap:
                                    break
                    host_cycles += gap
                    prev_commit = cycle
                    commit_count = 1
                elif commit_count < commit_width:
                    commit_count += 1
                else:
                    # Commit-width contention is healthy throughput, not
                    # a stall.
                    prev_commit += 1
                    host_cycles += 1
                    commit_count = 1
                commit = prev_commit

                rob_ring[rob_head] = commit
                rob_head += 1
                if rob_head == rob_entries:
                    rob_head = 0
                if rob_count < rob_entries:
                    rob_count += 1
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
                    if nsrcs and ready_a > base_ready:
                        base_ready = ready_a
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
                    lat_d = dcache_access(addr)
                    if lat_d > l1d_latency:
                        sb[F_DC_MISS] += 1
                        sb[F_L2_ACC] += 1

                # ---- writeback / scoreboard --------------------------
                if dest is not None:
                    renames += 1
                    regs_ready[dest] = complete
                # A source that is also the destination sees its new
                # readiness, as the interpreted model's re-read does.
                if nsrcs:
                    if a_is_dest:
                        ready_a = complete
                    if issue - ready_a <= 2:
                        bypass += 1
                    if nsrcs > 1:
                        if b_is_dest:
                            ready_b = complete
                        if issue - ready_b <= 2:
                            bypass += 1
                        if nsrcs > 2:
                            for src in static.srcs[2:]:
                                if issue - regs_ready.get(src, 0) <= 2:
                                    bypass += 1
                seq += 1

            ops += chunk_end - index
            index = chunk_end
            self.seq = seq
            self.next_fetch_cycle = next_fetch
            self.fetch_barrier = barrier
            self._fetch_slot = (fetch, fetch_count)
            self.prev_dispatch_cycle = prev_dispatch
            # Commit cycles never decrease, so the latest is the largest.
            self.prev_commit_cycle = prev_commit
            self.last_commit_cycle = prev_commit
            self._commit_count = commit_count
            self._last_fetch_block = last_block
            self._credit_total = credit_total
            bpred.history = history
            rob._head = rob_head
            rob._count = rob_count
            rob.last_commit_cycle = prev_commit
            rs._head = rs_head
            rs._count = rs_count
            lq._head = lq_head
            lq._count = lq_count
            sq._head = sq_head
            sq._count = sq_count
            fus._max_claimed = max_claimed
            regs.renames = renames
            sb[F_BYPASS] += bypass
            sb[F_CYCLES_HOST] += host_cycles
            bypass = host_cycles = 0
            if ops >= prune_interval:
                ops = 0
                self._ops_since_prune = 0
                self._prune_slot_windows()
            else:
                self._ops_since_prune = ops
            if index >= stop:
                break
        return InstrTiming(seq - 1, fetch, dispatch, issue, complete, commit,
                           mispredicted, violated)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def finish(self) -> PipelineResult:
        """Fan the per-static counts out, flush the batched counters, then
        finalize as usual."""
        sb = self._sb
        counts = self._static_counts
        fanout = self._fanout
        for slot, count in enumerate(counts):
            if count:
                counts[slot] = 0
                for field, increment in fanout[slot]:
                    sb[field] += increment * count
        # Every source operand is either bypassed or read from the
        # register file.
        sb[F_RF_READS] = sb[F_WAKEUPS] - sb[F_BYPASS]
        stats = self.stats
        for index, name in enumerate(_SB_FIELDS):
            value = sb[index]
            if value:
                setattr(stats, name, getattr(stats, name) + value)
                sb[index] = 0
        return super().finish()


def make_pipeline(
    config: CoreConfig | None = None,
    bus=None,
) -> OOOPipeline:
    """Construct a pipeline for the currently selected engine."""
    from repro.engine import fastpath_enabled

    cls = FastOOOPipeline if fastpath_enabled() else OOOPipeline
    return cls(config, bus=bus)
