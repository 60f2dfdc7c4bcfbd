"""Trace-driven cycle-level OOO pipeline timing model.

Instructions are processed in program order; each is assigned fetch,
dispatch, issue, complete, and commit cycles subject to the structural
constraints of the Table 4 machine:

* fetch width, taken-branch fetch breaks, I-cache misses, branch
  mispredict redirects (wrong-path work is not simulated — its cost appears
  as fetch bubbles until the branch resolves);
* ROB / reservation-station / LQ / SQ capacity;
* issue width and per-pool functional-unit contention (dividers block);
* operand readiness through the register scoreboard (bypass modeled as
  zero-cycle once the producer completes);
* loads: store-set dependence prediction, store-to-load forwarding, and
  memory-order violation squashes;
* in-order commit at commit width.

Out-of-order issue emerges naturally: a younger instruction may receive an
earlier issue cycle than an older one if its operands are ready sooner.

The DynaSpAM framework drives the same engine and adds macro operations
(fat fabric invocations) through the ``macro_*`` primitives.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from repro.isa.instructions import DynamicInstruction
from repro.isa.opcodes import OpClass, latency_of
from repro.ooo.branch_predictor import BranchPredictor
from repro.ooo.caches import Cache, CacheHierarchy
from repro.ooo.config import CoreConfig
from repro.ooo.fus import FunctionalUnitPool
from repro.ooo.lsq import LoadQueueModel, StoreQueueModel, StoreRecord
from repro.ooo.regfile import RegisterScoreboard
from repro.ooo.rob import ReorderBufferModel
from repro.ooo.rs import ReservationStationModel
from repro.ooo.stats import PipelineStats
from repro.ooo.storesets import StoreSetPredictor

_EXEC_COUNTER = {
    OpClass.INT_ALU: "int_alu_ops",
    OpClass.INT_MUL: "int_mul_ops",
    OpClass.INT_DIV: "int_div_ops",
    OpClass.FP_ALU: "fp_alu_ops",
    OpClass.FP_MUL: "fp_mul_ops",
    OpClass.FP_DIV: "fp_div_ops",
    OpClass.BRANCH: "int_alu_ops",
    OpClass.JUMP: "int_alu_ops",
    OpClass.NOP: "int_alu_ops",
    OpClass.LOAD: "int_alu_ops",   # address generation
    OpClass.STORE: "int_alu_ops",  # address generation
}


class InstrTiming(NamedTuple):
    """Cycle assignment of one dynamic instruction.

    A NamedTuple rather than a dataclass: one is built per simulated
    instruction, and tuple construction is measurably cheaper in the hot
    loop while keeping the same attribute-access API.
    """

    seq: int
    fetch: int
    dispatch: int
    issue: int
    complete: int
    commit: int
    mispredicted: bool = False
    violated: bool = False


@dataclass
class PipelineResult:
    """Outcome of a timing run."""

    stats: PipelineStats
    cycles: int
    instructions: int

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


class OOOPipeline:
    """The timing engine.  One instance per simulation run."""

    def __init__(
        self,
        config: CoreConfig | None = None,
        conservative_memory: bool = False,
        bus=None,
    ) -> None:
        self.config = config or CoreConfig()
        cfg = self.config
        self.stats = PipelineStats()
        self.conservative_memory = conservative_memory
        #: Optional ``repro.obs.EventBus`` (None = tracing disabled).  The
        #: DynaSpAM framework assigns it after construction because the
        #: bus's clock closes over this pipeline.
        self.bus = bus
        self._phase: str | None = None

        self.bpred = BranchPredictor(cfg)
        self.storesets = StoreSetPredictor(cfg.ssit_entries)
        l2 = Cache("L2", cfg.l2_kb, cfg.l2_assoc, cfg.block_bytes, cfg.l2_latency)
        self.l2 = l2
        self.icache = CacheHierarchy(
            Cache("L1I", cfg.l1i_kb, cfg.l1i_assoc, cfg.block_bytes, cfg.l1i_latency),
            l2,
            cfg.memory_latency,
        )
        self.dcache = CacheHierarchy(
            Cache("L1D", cfg.l1d_kb, cfg.l1d_assoc, cfg.block_bytes, cfg.l1d_latency),
            l2,
            cfg.memory_latency,
        )

        self.regs = RegisterScoreboard(cfg.phys_registers)
        self.rob = ReorderBufferModel(cfg.rob_entries)
        self.rs = ReservationStationModel(cfg.rs_entries)
        self.lq = LoadQueueModel(cfg.load_queue)
        self.sq = StoreQueueModel(cfg.store_queue)
        self.fus = FunctionalUnitPool(cfg.fu_pools)

        # Slot occupancy.  Fetch and commit are in order: every fetch lands
        # at or after max(next_fetch_cycle, fetch_barrier) and every commit
        # at or after prev_commit_cycle, and neither front ever moves back,
        # so only the latest fetch (commit) cycle can still take more.  Each
        # is one (cycle, count) pair; the commit slot's cycle is
        # ``prev_commit_cycle`` itself.  Issue is out of order — a younger
        # instruction may issue earlier — so issue slots are a dict keyed by
        # cycle, and entries behind the watermark proven in
        # ``_prune_slot_windows`` are deleted on a fixed instruction
        # cadence, keeping memory bounded by the in-flight window.
        self._fetch_slot: tuple[int, int] = (0, 0)
        self._commit_count = 0
        self._issue_counts: dict[int, int] = {}
        self._ops_since_prune = 0
        self._store_by_seq: dict[int, StoreRecord] = {}
        self._store_seq_fifo: deque[int] = deque()

        self.seq = 0
        self.next_fetch_cycle = 0
        self.fetch_barrier = 0
        self.prev_dispatch_cycle = 0
        self.prev_commit_cycle = 0
        self.last_commit_cycle = 0
        self._last_fetch_block: int | None = None

        # Top-down cycle accounting.  Front-end stalls accrue here as
        # pending credits by cause; ``_alloc_commit`` realizes them when
        # the commit stream actually gaps, so hidden stalls are never
        # charged and the buckets partition the commit timeline exactly
        # (see repro.obs.accounting).
        self._stall_credit: dict[str, int] = {
            "squash_memory": 0,
            "squash_branch": 0,
            "drain": 0,
            "mapping": 0,
            "frontend": 0,
        }
        self._credit_fields = {
            "squash_memory": "cycles_squash_memory",
            "squash_branch": "cycles_squash_branch",
            "drain": "cycles_drain",
            "mapping": "cycles_mapping",
            "frontend": "cycles_frontend",
        }

    # ------------------------------------------------------------------
    # Slot allocation helpers
    # ------------------------------------------------------------------
    def _open_fetch_slot(self) -> int:
        """Earliest cycle at the fetch front with a fetch slot free."""
        cycle = max(self.next_fetch_cycle, self.fetch_barrier)
        slot_cycle, count = self._fetch_slot
        if cycle == slot_cycle and count >= self.config.fetch_width:
            cycle += 1
        return cycle

    def _take_fetch_slot(self, cycle: int) -> None:
        slot_cycle, count = self._fetch_slot
        self._fetch_slot = (cycle, count + 1 if cycle == slot_cycle else 1)
        self.next_fetch_cycle = cycle

    def _alloc_fetch(self, pc: int) -> int:
        cfg = self.config
        cycle = self._open_fetch_slot()
        block = pc // cfg.block_bytes
        if block != self._last_fetch_block:
            self.stats.icache_accesses += 1
            latency = self.icache.access(pc)
            if latency > cfg.l1i_latency:
                self.stats.icache_misses += 1
                cycle += latency - cfg.l1i_latency
                self._credit_stall("frontend", latency - cfg.l1i_latency)
            self._last_fetch_block = block
        self._take_fetch_slot(cycle)
        self.stats.fetches += 1
        return cycle

    def _alloc_issue(self, opclass: OpClass, ready: int, latency: int) -> int:
        counts = self._issue_counts
        cycle = ready
        while True:
            cycle = self.fus.earliest_free(opclass, cycle, latency)
            if counts.get(cycle, 0) < self.config.issue_width:
                break
            cycle += 1
        self.fus.acquire(opclass, cycle, latency)
        counts[cycle] = counts.get(cycle, 0) + 1
        self.stats.selections += 1
        return cycle

    def _credit_stall(self, cause: str, cycles: int) -> None:
        """Accrue pending front-end stall cycles against ``cause``."""
        if cycles > 0:
            self._stall_credit[cause] += cycles

    def _charge_commit_gap(self, gap: int, bucket: str | None) -> None:
        """Attribute ``gap`` cycles of commit-point advance.

        A fat fabric invocation (``bucket="offload"``) owns its whole gap;
        otherwise pending front-end stall credits are consumed first
        (severest cause first) and the remainder is healthy host time.
        """
        stats = self.stats
        if bucket == "offload":
            stats.cycles_offload += gap
            return
        credit = self._stall_credit
        for cause, field_name in self._credit_fields.items():
            if not gap:
                break
            available = credit[cause]
            if available:
                take = available if available < gap else gap
                credit[cause] = available - take
                setattr(stats, field_name, getattr(stats, field_name) + take)
                gap -= take
        stats.cycles_host += gap

    def _alloc_commit(self, complete: int, bucket: str | None = None) -> int:
        cycle = max(complete + 1, self.prev_commit_cycle)
        gap = cycle - self.prev_commit_cycle
        count = self._commit_count
        if gap:
            self._charge_commit_gap(gap, bucket)
            count = 0
        if count >= self.config.commit_width:
            cycle += 1
            count = 0
            # Commit-width contention is healthy throughput, not a stall.
            self.stats.cycles_host += 1
        self._commit_count = count + 1
        self.prev_commit_cycle = cycle
        if cycle > self.last_commit_cycle:
            self.last_commit_cycle = cycle
        self.stats.commits += 1
        return cycle

    #: Instructions between slot-window prunes.  Large enough to keep the
    #: amortized cost negligible, small enough that the windows never hold
    #: more than a few thousand stale cycles.
    PRUNE_INTERVAL = 4096

    def _prune_slot_windows(self) -> None:
        """Drop issue-slot and FU-occupancy entries never probed again.

        Issue slots (and FU occupancy) are probed at cycles >= ready >=
        dispatch + 1 >= prev_dispatch_cycle + 1, and ``prev_dispatch_cycle``
        never decreases, so entries at or below it are dead.

        Deletion happens in place — never by rebuilding the dicts — because
        the fast path caches direct references to them.
        """
        issue_floor = self.prev_dispatch_cycle + 1
        counts = self._issue_counts
        for cycle in [c for c in counts if c < issue_floor]:
            del counts[cycle]
        self.fus.prune_before(issue_floor)

    def _record_store(self, record: StoreRecord) -> None:
        self.sq.push(record)
        self._store_by_seq[record.seq] = record
        self._store_seq_fifo.append(record.seq)
        if len(self._store_seq_fifo) > self.config.store_queue * 2:
            old = self._store_seq_fifo.popleft()
            self._store_by_seq.pop(old, None)

    # ------------------------------------------------------------------
    # Main per-instruction model
    # ------------------------------------------------------------------
    def process(self, dyn: DynamicInstruction) -> InstrTiming:
        """Assign cycles to one dynamic instruction."""
        cfg = self.config
        stats = self.stats
        seq = self.seq
        self.seq += 1
        static = dyn.static
        opclass = static.opclass
        latency = latency_of(static.opcode)

        # ---- fetch & branch prediction -------------------------------
        fetch = self._alloc_fetch(dyn.pc)
        mispredicted = False
        if static.is_branch:
            stats.predictor_lookups += 1
            prediction = self.bpred.predict_and_update(dyn.pc, bool(dyn.taken))
            mispredicted = prediction != bool(dyn.taken)
            if mispredicted:
                stats.branch_mispredicts += 1
            if prediction and not self.bpred.btb_lookup(dyn.pc):
                stats.btb_misses += 1
                self.next_fetch_cycle = fetch + 1 + cfg.btb_miss_penalty
                self._credit_stall("frontend", cfg.btb_miss_penalty)
            elif prediction:
                # Correctly predicted taken branch ends the fetch group.
                self.next_fetch_cycle = fetch + 1
        elif opclass is OpClass.JUMP:
            if not self.bpred.btb_lookup(dyn.pc):
                stats.btb_misses += 1
                self.next_fetch_cycle = fetch + 1 + cfg.btb_miss_penalty
                self._credit_stall("frontend", cfg.btb_miss_penalty)
            else:
                self.next_fetch_cycle = fetch + 1

        # ---- rename / dispatch (in order) ----------------------------
        dispatch = max(
            fetch + cfg.frontend_depth,
            self.prev_dispatch_cycle,
            self.rob.dispatch_ready_cycle(),
            self.rs.dispatch_ready_cycle(),
        )
        if static.is_load:
            dispatch = max(dispatch, self.lq.dispatch_ready_cycle())
        if static.is_store:
            dispatch = max(dispatch, self.sq.dispatch_ready_cycle())
        self.prev_dispatch_cycle = dispatch
        stats.renames += 1
        stats.dispatches += 1
        stats.rob_writes += 1

        # ---- operand readiness ---------------------------------------
        ready = dispatch + 1
        for src in static.srcs:
            cycle = self.regs.ready_cycle(src)
            if cycle > ready:
                ready = cycle
        stats.wakeups += len(static.srcs)

        violated = False
        predicted_store: StoreRecord | None = None
        if static.is_load:
            stats.loads += 1
            if self.conservative_memory:
                older = self.sq.youngest_older(seq)
                if older is not None:
                    ready = max(ready, older.data_ready)
            elif cfg.storesets_enabled:
                wait_seq = self.storesets.load_dispatched(dyn.pc)
                if wait_seq is not None:
                    predicted_store = self._store_by_seq.get(wait_seq)
                    if predicted_store is not None:
                        ready = max(ready, predicted_store.data_ready)
        elif static.is_store:
            stats.stores += 1
            if cfg.storesets_enabled and not self.conservative_memory:
                prev_seq = self.storesets.store_dispatched(dyn.pc, seq)
                if prev_seq is not None:
                    prev = self._store_by_seq.get(prev_seq)
                    if prev is not None:
                        ready = max(ready, prev.data_ready)

        # ---- issue / execute -----------------------------------------
        issue = self._alloc_issue(opclass, ready, latency)
        counter = _EXEC_COUNTER[opclass]
        setattr(stats, counter, getattr(stats, counter) + 1)

        if static.is_load:
            alias = self.sq.youngest_alias(dyn.addr, seq)
            if alias is not None and issue < alias.addr_ready:
                # The load issued before the aliasing store executed: a
                # memory-order violation, detected when the store runs.
                violated = True
                stats.memory_violations += 1
                if cfg.storesets_enabled:
                    self.storesets.train_violation(dyn.pc, alias.pc)
                complete = alias.data_ready + cfg.store_forward_latency
                front = max(self.next_fetch_cycle, self.fetch_barrier)
                barrier = alias.addr_ready + cfg.violation_squash_penalty
                self._credit_stall("squash_memory", barrier - front)
                self.fetch_barrier = max(self.fetch_barrier, barrier)
            elif alias is not None:
                # Store-to-load forwarding from the store queue.
                stats.store_forwards += 1
                complete = max(
                    issue + cfg.store_forward_latency,
                    alias.data_ready + cfg.store_forward_latency,
                )
            else:
                stats.dcache_accesses += 1
                before_l2 = self.l2.accesses
                cache_latency = self.dcache.access(dyn.addr)
                if cache_latency > cfg.l1d_latency:
                    stats.dcache_misses += 1
                stats.l2_accesses += self.l2.accesses - before_l2
                complete = issue + 1 + cache_latency
            self.lq.push(complete)
        elif static.is_store:
            complete = issue + 1
        else:
            complete = issue + latency

        # ---- misprediction redirect ----------------------------------
        if mispredicted:
            front = max(self.next_fetch_cycle, self.fetch_barrier)
            barrier = complete + cfg.mispredict_redirect
            self._credit_stall("squash_branch", barrier - front)
            self.fetch_barrier = max(self.fetch_barrier, barrier)
            # Wrong-path work is not simulated, but its front-end energy is
            # real: estimate half-rate fetching from the mispredicted fetch
            # until the branch resolves, capped at the ROB window.
            wrong = min(
                (complete - fetch) * cfg.fetch_width // 2, cfg.rob_entries
            )
            stats.wrongpath_fetches += max(0, wrong)

        # ---- commit ----------------------------------------------------
        commit = self._alloc_commit(complete)
        self.rob.push(commit)
        self.rs.push(issue)
        if static.is_store:
            # The address resolves once the base register is ready (AGU
            # cycle), typically well before the store's data arrives.
            base_ready = dispatch + 1
            if static.srcs:
                base_ready = max(
                    base_ready, self.regs.ready_cycle(static.srcs[0])
                )
            self._record_store(
                StoreRecord(
                    seq=seq,
                    pc=dyn.pc,
                    addr=dyn.addr,
                    addr_ready=min(issue, base_ready + 1),
                    data_ready=complete,
                    commit=commit,
                )
            )
            # The store writes the cache when it commits.
            stats.dcache_accesses += 1
            before_l2 = self.l2.accesses
            cache_latency = self.dcache.access(dyn.addr)
            if cache_latency > self.config.l1d_latency:
                stats.dcache_misses += 1
            stats.l2_accesses += self.l2.accesses - before_l2

        # ---- writeback / scoreboard ----------------------------------
        if static.dest is not None:
            self.regs.define(static.dest, complete)
            stats.regfile_writes += 1
        for src in static.srcs:
            if issue - self.regs.ready_cycle(src) <= 2:
                stats.bypass_transfers += 1
            else:
                stats.regfile_reads += 1

        stats.instructions += 1
        self._ops_since_prune += 1
        if self._ops_since_prune >= self.PRUNE_INTERVAL:
            self._ops_since_prune = 0
            self._prune_slot_windows()
        return InstrTiming(seq, fetch, dispatch, issue, complete, commit,
                           mispredicted, violated)

    def process_span(self, trace, start: int, stop: int) -> InstrTiming | None:
        """Process ``trace[start:stop]`` in order — the host entry the
        framework calls.  Returns the last instruction's timing, or None
        for an empty span."""
        timing = None
        for index in range(start, stop):
            timing = self.process(trace[index])
        return timing

    # ------------------------------------------------------------------
    # Primitives for the DynaSpAM framework
    # ------------------------------------------------------------------
    def drain(self) -> int:
        """Stall fetch until everything in flight has committed.

        Used when a mapping phase begins (paper Section 3.1, step 1).
        Returns the cycle at which the pipeline back end is empty.
        """
        empty = max(self.rob.drain_cycle(), self.fus.all_idle_by())
        stalled_from = max(self.next_fetch_cycle, self.fetch_barrier)
        if empty > stalled_from:
            self.stats.drain_cycles += empty - stalled_from
            self._credit_stall("drain", empty - stalled_from)
        self.fetch_barrier = max(self.fetch_barrier, empty)
        if self.bus is not None:
            self.bus.emit(
                "pipeline.drain",
                cycle=stalled_from,
                until=max(empty, stalled_from),
                stall=max(0, empty - stalled_from),
            )
        return max(empty, stalled_from)

    def stall_fetch_until(self, cycle: int, cause: str | None = None) -> None:
        """Hold fetch until ``cycle`` (mapping occupies the issue unit).

        ``cause`` names the accounting bucket the stall accrues against
        ("mapping", "squash_branch", "squash_memory"); ``None`` raises the
        barrier without charging anyone (legacy callers).
        """
        if cause is not None:
            front = max(self.next_fetch_cycle, self.fetch_barrier)
            self._credit_stall(cause, cycle - front)
        self.fetch_barrier = max(self.fetch_barrier, cycle)

    def note_phase(self, phase: str) -> None:
        """Record an execution-phase transition (host | mapping | offload).

        Pure observability: emits a ``pipeline.phase`` mark when tracing
        is enabled and the phase actually changed; a no-op otherwise.
        """
        if self.bus is None or phase == self._phase:
            return
        self._phase = phase
        self.bus.emit(
            "pipeline.phase",
            phase=phase,
            cycle=max(self.next_fetch_cycle, self.fetch_barrier),
        )

    def macro_dispatch(self) -> tuple[int, int]:
        """Dispatch a fat macro operation (one fabric trace invocation).

        Occupies one fetch slot and one ROB entry.  Returns (seq, dispatch
        cycle); the caller computes completion and calls ``macro_commit``.
        """
        seq = self.seq
        self.seq += 1
        cycle = self._open_fetch_slot()
        self._take_fetch_slot(cycle)
        dispatch = max(
            cycle + self.config.frontend_depth,
            self.rob.dispatch_ready_cycle(),
        )
        self.stats.rob_writes += 1
        return seq, dispatch

    def macro_commit(self, complete: int) -> int:
        """Commit a fat macro operation that finished at ``complete``."""
        commit = self._alloc_commit(complete, bucket="offload")
        self.rob.push(commit)
        return commit

    def set_live_out(self, reg: str, cycle: int) -> None:
        """Broadcast a fabric live-out into the host scoreboard."""
        self.regs.define(reg, cycle)

    def finish(self) -> PipelineResult:
        """Finalize the run."""
        self.stats.cycles = self.last_commit_cycle
        self.stats.l2_misses = self.l2.misses
        return PipelineResult(
            stats=self.stats,
            cycles=self.last_commit_cycle,
            instructions=self.stats.instructions,
        )

    def run_trace(self, trace) -> PipelineResult:
        """Convenience: process a full dynamic trace on the host pipeline."""
        self.process_span(trace, 0, len(trace))
        return self.finish()
