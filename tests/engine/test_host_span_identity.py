"""Split invariance of the fast host pipeline's span entry, and the
in-order slot model both tiers share.

``FastOOOPipeline.process_span`` keeps the pipeline cursors, fetch and
commit slots, ring heads and counts, the FU high-water mark, the rename
count and the branch history in locals for a whole span, writing them
back at the end and before every slot-window prune the span crosses, and
inlines the branch predictor, BTB and Store-Sets probes.  These tests cut
generated instruction streams into spans of arbitrary length, interleave
the framework's ``macro_*``, ``drain`` and ``stall_fetch_until``
primitives between spans, prune every few instructions, and demand that
after every span the fast pipeline agrees with the interpreted model run
one instruction at a time: the span's last timing, ``finish()`` cycles
and full stats, and every piece of pipeline state — under every
predictor kind and a BTB small enough to evict.

Both tiers keep the fetch and commit slots as one ``(cycle, count)`` pair
each, so tier identity cannot catch a wrong pair model.
``test_slots_match_dict_oracle`` checks every fetch and commit cycle of
both tiers against the per-cycle count dicts the pairs replaced.
"""

from hypothesis import given, settings, strategies as st

from repro.isa.instructions import DynamicInstruction, Instruction
from repro.isa.opcodes import Opcode
from repro.ooo.config import CoreConfig
from repro.ooo.fastpath import FastOOOPipeline
from repro.ooo.pipeline import OOOPipeline

#: A few aliasing word addresses.
ADDRESSES = (0x1000, 0x1004, 0x1008)


def _static_pool() -> list[Instruction]:
    """Static instructions spread over several I-cache blocks."""
    shapes = [
        (Opcode.ADD, "r1", ("r2", "r3")),
        (Opcode.ADD, "r2", ("r2", "r1")),
        (Opcode.SUB, "r3", ("r1", "r4")),
        (Opcode.MOV, "r0", ("r1",)),          # r0 destination: no rename
        (Opcode.MUL, "r4", ("r1", "r2")),
        (Opcode.DIV, "r1", ("r4", "r3")),     # blocking divider
        (Opcode.BEQ, None, ("r1", "r2")),
        (Opcode.BNE, None, ("r3", "r0")),
        (Opcode.JMP, None, ()),
        (Opcode.LW, "r2", ("r4",)),
        (Opcode.LW, "r3", ("r1",)),
        (Opcode.SW, None, ("r4", "r1")),
        (Opcode.SW, None, ("r2", "r3")),
    ]
    pool = []
    for index, (opcode, dest, srcs) in enumerate(shapes):
        for copy in range(2):
            # 600 bytes apart: copies land in different 64-byte blocks.
            pc = 4 * index + 600 * copy
            pool.append(Instruction(opcode, dest, srcs, pc=pc))
    return pool


POOL = _static_pool()
LOAD_PCS = tuple(i.pc for i in POOL if i.is_load)
STORE_PCS = tuple(i.pc for i in POOL if i.is_store)

instructions = st.tuples(
    st.sampled_from(range(len(POOL))),
    st.sampled_from(ADDRESSES),
    # Branch outcome, mostly taken as loop branches are, so that trained
    # branches are predicted taken and probe the BTB.
    st.sampled_from((True, True, True, False)),
)
between = st.one_of(
    st.none(),
    st.tuples(st.just("macro"), st.integers(0, 40)),
    st.tuples(st.just("drain")),
    st.tuples(st.just("stall"), st.integers(-5, 30),
              st.sampled_from((None, "mapping", "squash_branch",
                               "squash_memory"))),
)


def _stream(draws) -> list[DynamicInstruction]:
    trace = []
    for index, addr, taken in draws:
        static = POOL[index]
        trace.append(DynamicInstruction(
            static,
            addr=addr if static.is_memory else None,
            taken=taken if static.is_branch else None,
        ))
    return trace


def _apply(pipeline, op) -> None:
    """One framework primitive between spans."""
    if op is None:
        return
    if op[0] == "macro":
        _, dispatch = pipeline.macro_dispatch()
        pipeline.macro_commit(dispatch + op[1])
    elif op[0] == "drain":
        pipeline.drain()
    else:
        front = max(pipeline.next_fetch_cycle, pipeline.fetch_barrier)
        pipeline.stall_fetch_until(front + op[1], cause=op[2])


def _state(pipeline) -> dict:
    """Every piece of pipeline state the host path reads or writes."""
    sq = pipeline.sq
    return {
        "cursors": (
            pipeline.seq, pipeline.next_fetch_cycle, pipeline.fetch_barrier,
            pipeline.prev_dispatch_cycle, pipeline.prev_commit_cycle,
            pipeline.last_commit_cycle, pipeline._last_fetch_block,
            pipeline._ops_since_prune,
        ),
        "rob": vars(pipeline.rob),
        "rs": vars(pipeline.rs),
        "lq": vars(pipeline.lq),
        "sq": (sq._commit_ring, sq._head, sq._count, list(sq._window),
               sq._by_addr),
        "slots": (pipeline._fetch_slot, pipeline._commit_count,
                  pipeline._issue_counts),
        "fus": (pipeline.fus._busy, pipeline.fus._max_claimed),
        "regs": (pipeline.regs._ready, pipeline.regs.renames),
        "stores": (pipeline._store_by_seq, list(pipeline._store_seq_fifo)),
        "credit": pipeline._stall_credit,
        "bpred": vars(pipeline.bpred),
        "storesets": vars(pipeline.storesets),
        "caches": tuple(
            (cache._sets, cache.hits, cache.misses)
            for cache in (pipeline.icache.l1, pipeline.dcache.l1,
                          pipeline.l2)
        ),
    }


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    draws=st.lists(instructions, min_size=1, max_size=90),
    cuts=st.lists(st.tuples(st.integers(0, 12), between), max_size=14),
    pairs=st.lists(st.tuples(st.sampled_from(LOAD_PCS),
                             st.sampled_from(STORE_PCS)), max_size=3),
    prune_interval=st.integers(1, 9),
    # The stream repeats like a loop body, so the predictor trains and
    # branches come to be predicted taken.
    repeat=st.integers(1, 8),
    predictor_kind=st.sampled_from(("tournament", "bimodal", "gshare")),
    # The pool has six branch and jump PCs: one or three BTB entries
    # force evictions.  Two predictor index bits alias every table, and
    # a one-entry SSIT puts every trained memory op in one store set.
    btb_entries=st.sampled_from((1, 3, 4096)),
    predictor_bits=st.sampled_from((2, 12)),
    ssit_entries=st.sampled_from((1, 1024)),
)
def test_span_matches_reference_per_instruction(draws, cuts, pairs,
                                                prune_interval, repeat,
                                                predictor_kind, btb_entries,
                                                predictor_bits, ssit_entries):
    trace = _stream(draws * repeat)
    config = CoreConfig(predictor_kind=predictor_kind,
                        btb_entries=btb_entries,
                        predictor_bits=predictor_bits,
                        ssit_entries=ssit_entries)
    fast = FastOOOPipeline(config)
    reference = OOOPipeline(config)
    for pipeline in (fast, reference):
        # Small enough that prunes fire inside spans.
        pipeline.PRUNE_INTERVAL = prune_interval
        for load_pc, store_pc in pairs:
            pipeline.storesets.train_violation(load_pc, store_pc)

    start = 0
    # The last span takes whatever the cuts left.
    for length, op in cuts + [(len(trace), None)]:
        stop = min(start + length, len(trace))
        timing = fast.process_span(trace, start, stop)
        expected = None
        for dyn in trace[start:stop]:
            expected = reference.process(dyn)
        assert timing == expected
        for pipeline in (fast, reference):
            _apply(pipeline, op)
        assert fast._credit_total == sum(fast._stall_credit.values())
        assert _state(fast) == _state(reference)
        fast_result = fast.finish()
        reference_result = reference.finish()
        assert fast_result.cycles == reference_result.cycles
        assert (fast_result.stats.as_dict()
                == reference_result.stats.as_dict())
        start = stop
    assert start == len(trace)



class DictSlotOracle(OOOPipeline):
    """The reference model with the fetch and commit slots kept as
    per-cycle count dicts: the allocation code the ``(cycle, count)``
    pairs replaced, never pruned."""

    def __init__(self, config: CoreConfig) -> None:
        super().__init__(config)
        self.fetch_counts: dict[int, int] = {}
        self.commit_counts: dict[int, int] = {}

    def _alloc_fetch(self, pc: int) -> int:
        cfg = self.config
        counts = self.fetch_counts
        cycle = max(self.next_fetch_cycle, self.fetch_barrier)
        while counts.get(cycle, 0) >= cfg.fetch_width:
            cycle += 1
        block = pc // cfg.block_bytes
        if block != self._last_fetch_block:
            self.stats.icache_accesses += 1
            latency = self.icache.access(pc)
            if latency > cfg.l1i_latency:
                self.stats.icache_misses += 1
                cycle += latency - cfg.l1i_latency
                self._credit_stall("frontend", latency - cfg.l1i_latency)
            self._last_fetch_block = block
        counts[cycle] = counts.get(cycle, 0) + 1
        self.next_fetch_cycle = cycle
        self.stats.fetches += 1
        return cycle

    def _alloc_commit(self, complete: int, bucket: str | None = None) -> int:
        counts = self.commit_counts
        cycle = max(complete + 1, self.prev_commit_cycle)
        gap = cycle - self.prev_commit_cycle
        if gap:
            self._charge_commit_gap(gap, bucket)
        while counts.get(cycle, 0) >= self.config.commit_width:
            cycle += 1
            self.stats.cycles_host += 1
        counts[cycle] = counts.get(cycle, 0) + 1
        self.prev_commit_cycle = cycle
        if cycle > self.last_commit_cycle:
            self.last_commit_cycle = cycle
        self.stats.commits += 1
        return cycle

    def macro_dispatch(self) -> tuple[int, int]:
        seq = self.seq
        self.seq += 1
        counts = self.fetch_counts
        cycle = max(self.next_fetch_cycle, self.fetch_barrier)
        while counts.get(cycle, 0) >= self.config.fetch_width:
            cycle += 1
        counts[cycle] = counts.get(cycle, 0) + 1
        self.next_fetch_cycle = cycle
        dispatch = max(
            cycle + self.config.frontend_depth,
            self.rob.dispatch_ready_cycle(),
        )
        self.stats.rob_writes += 1
        return seq, dispatch


def _primitive_cycles(pipeline, op):
    """Apply one framework primitive; return the cycles it chose (a
    macro operation's fetch, dispatch and commit)."""
    if op is not None and op[0] == "macro":
        _, dispatch = pipeline.macro_dispatch()
        fetch = pipeline.next_fetch_cycle
        return fetch, dispatch, pipeline.macro_commit(dispatch + op[1])
    _apply(pipeline, op)
    return None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    draws=st.lists(instructions, min_size=1, max_size=60),
    cuts=st.lists(st.tuples(st.integers(0, 12), between), max_size=10),
    # Narrow fetch and commit so the slot counts fill.
    fetch_width=st.integers(1, 3),
    commit_width=st.integers(1, 3),
)
def test_slots_match_dict_oracle(draws, cuts, fetch_width, commit_width):
    trace = _stream(draws)
    config = CoreConfig(fetch_width=fetch_width, commit_width=commit_width)
    oracle = DictSlotOracle(config)
    reference = OOOPipeline(config)
    stepped = FastOOOPipeline(config)    # one-instruction spans
    spanned = FastOOOPipeline(config)    # the drawn spans
    pipelines = (oracle, reference, stepped, spanned)

    start = 0
    for length, op in cuts + [(len(trace), None)]:
        stop = min(start + length, len(trace))
        expected = None
        for index in range(start, stop):
            expected = oracle.process(trace[index])
            # Every instruction's fetch and commit cycle, on both tiers.
            assert reference.process(trace[index]) == expected
            assert stepped.process_span(trace, index, index + 1) == expected
        assert spanned.process_span(trace, start, stop) == expected
        cycles = [_primitive_cycles(pipeline, op) for pipeline in pipelines]
        assert cycles == [cycles[0]] * len(pipelines)
        start = stop

    # The ROB ring holds every commit cycle, host and macro, in order.
    assert len(trace) + len(cuts) <= config.rob_entries
    rings = [pipeline.rob._commit_ring for pipeline in pipelines]
    assert rings == [rings[0]] * len(pipelines)
    results = [pipeline.finish() for pipeline in pipelines]
    for result in results[1:]:
        assert result.cycles == results[0].cycles
        assert result.stats.as_dict() == results[0].stats.as_dict()
