"""Split invariance of the fast host pipeline's span entry.

``FastOOOPipeline.process_span`` keeps the pipeline cursors, ring heads
and counts, the FU high-water mark and the rename count in locals for a
whole span, writing them back at the end and before every slot-window
prune the span crosses.  These tests cut generated instruction streams
into spans of arbitrary length, interleave the framework's ``macro_*``,
``drain`` and ``stall_fetch_until`` primitives between spans, prune
every few instructions, and demand that after every span the fast
pipeline agrees with the interpreted model run one instruction at a
time: the span's last timing, ``finish()`` cycles and full stats, and
every piece of pipeline state.
"""

from hypothesis import given, settings, strategies as st

from repro.isa.instructions import DynamicInstruction, Instruction
from repro.isa.opcodes import Opcode
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
    st.integers(0, len(POOL) - 1),
    st.sampled_from(ADDRESSES),
    st.booleans(),                       # branch outcome
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
    for seq, (index, addr, taken) in enumerate(draws):
        static = POOL[index]
        trace.append(DynamicInstruction(
            seq, static,
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
        "slots": (pipeline._fetch_counts, pipeline._issue_counts,
                  pipeline._commit_counts),
        "fus": (pipeline.fus._busy, pipeline.fus._max_claimed),
        "regs": (pipeline.regs._ready, pipeline.regs._producer,
                 pipeline.regs.renames),
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
    conservative=st.booleans(),
    pairs=st.lists(st.tuples(st.sampled_from(LOAD_PCS),
                             st.sampled_from(STORE_PCS)), max_size=3),
    prune_interval=st.integers(1, 9),
)
def test_span_matches_reference_per_instruction(draws, cuts, conservative,
                                                pairs, prune_interval):
    trace = _stream(draws)
    fast = FastOOOPipeline(conservative_memory=conservative)
    reference = OOOPipeline(conservative_memory=conservative)
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

