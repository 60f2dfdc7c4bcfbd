"""Tier identity of ``OffloadEngine.offload`` against live host state.

The fast tier's offload twin reads the scoreboard and the store queue's
address index directly, caches Store-Sets predictions per configuration,
skips the violation scan when nothing can violate, charges D-cache
counters from counter deltas, and leaves the counters its configuration
fixes to one count per configuration that the fast pipeline's
``finish()`` fans out.  It also inlines the fat entry's dispatch and
commit, the store queue's push and the branch predictor's training.
These tests put host stores in flight at addresses the trace's loads
alias, train Store-Sets on some (load, store) pairs and the branch
predictor (of each kind) on some branches, run invocations back to back
on twin pipelines, and demand equal outcomes, statistics after
``finish()`` and host state from both tiers: the scoreboard, the store
queue, the caches, the predictor tables and history, and the fetch and
commit cursors with the ROB ring.
"""

from hypothesis import given, settings, strategies as st

from repro.core.mapper import ResourceAwareMapper
from repro.core.multifabric import FabricPool
from repro.core.offload import OffloadEngine
from repro.engine import use_fastpath
from repro.isa.builder import ProgramBuilder
from repro.isa.executor import FunctionalExecutor, Memory
from repro.ooo.config import CoreConfig
from repro.ooo.fastpath import make_pipeline
from repro.ooo.lsq import StoreRecord


def _program_trace():
    """``li r9`` on the host, then the offloaded segment: two stores
    younger loads of the same address may overtake, a branch, and the
    live-in ``r9``."""
    memory = Memory()
    memory.store_array(0x100, [0x200, 7, 9, 11])
    b = ProgramBuilder("offload")
    b.li("r9", 0x100)
    b.label("body")
    b.lw("r1", "r9", 0)        # r1 = 0x200
    b.mul("r2", "r1", "r1")    # long chain: the store's address is late
    b.div("r3", "r2", "r1")    # r3 = 0x200
    b.lw("r4", "r9", 4)
    b.sw("r3", "r4", 0)        # store 0x200
    b.li("r5", 0x200)
    b.lw("r6", "r5", 0)        # load 0x200, may issue before the store
    b.lw("r7", "r9", 8)
    b.add("r8", "r6", "r7")
    b.sw("r9", "r8", 12)       # store 0x10c
    b.lw("r10", "r9", 12)      # load 0x10c behind the store
    b.bne("r9", "r0", "next")
    b.label("next")
    b.addi("r11", "r10", 1)
    b.halt()
    trace = FunctionalExecutor().run(b.build(), memory).trace[:-1]
    return trace[0], trace[1:]


HOST_LI, SEGMENT = _program_trace()
KEY = (
    SEGMENT[0].pc,
    tuple(bool(d.taken) for d in SEGMENT if d.is_branch),
    len(SEGMENT),
)
LOAD_PCS = tuple(d.pc for d in SEGMENT if d.is_load)
STORE_PCS = tuple(d.pc for d in SEGMENT if d.is_store)
HOST_STORE_PCS = (0x900, 0x904)
#: The segment's memory addresses plus one it never touches.
ADDRESSES = tuple(sorted({d.addr for d in SEGMENT if d.is_memory})) + (0x300,)

host_stores = st.lists(
    st.tuples(
        st.sampled_from(ADDRESSES),
        st.sampled_from(HOST_STORE_PCS),
        st.integers(-3, 0),          # seq relative to the next dispatch
        # Invocations issue from about cycle 150, once the fabric is
        # configured: host stores resolve before, during and after them.
        st.integers(0, 500),         # addr_ready
        st.integers(0, 200),         # data_ready - addr_ready
    ),
    max_size=5,
)
training = st.lists(
    st.tuples(st.sampled_from(LOAD_PCS),
              st.sampled_from(STORE_PCS + HOST_STORE_PCS)),
    max_size=3,
)
BRANCH_PC = next(d.pc for d in SEGMENT if d.is_branch)
#: Host branch outcomes the predictor trains on first: the segment's
#: branch, a neighbour and an unrelated PC, so the chooser and both
#: tables start away from their reset values and the history is nonzero.
host_branches = st.lists(
    st.tuples(st.sampled_from((BRANCH_PC, BRANCH_PC + 4, 0x40)),
              st.booleans()),
    max_size=12,
)
predictor_kinds = st.sampled_from(("tournament", "bimodal", "gshare"))


def _offload_run(fast, speculation, stores, pairs, invocations,
                 kind="tournament", branches=()):
    """Offload ``SEGMENT`` ``invocations`` times on a fresh machine of one
    tier; returns everything the two tiers must agree on."""
    with use_fastpath(fast):
        pipeline = make_pipeline(CoreConfig(predictor_kind=kind))
        engine = OffloadEngine(pipeline=pipeline, speculation=speculation)
        pool = FabricPool(1)
    configuration = ResourceAwareMapper().map_trace(SEGMENT, KEY)
    assert configuration is not None
    pipeline.process(HOST_LI)
    for pc, taken in branches:
        pipeline.bpred.predict_and_update(pc, taken)
    for addr, pc, seq, addr_ready, data_wait in stores:
        # seq 0 is the dispatch's own: a too-young store the address
        # index alone must not report.
        pipeline.sq.push(StoreRecord(
            seq=pipeline.seq + seq, pc=pc, addr=addr, addr_ready=addr_ready,
            data_ready=addr_ready + data_wait, commit=addr_ready + data_wait,
        ))
    for load_pc, store_pc in pairs:
        pipeline.storesets.train_violation(load_pc, store_pc)
    outcomes = []
    for _ in range(invocations):
        cycle = max(pipeline.next_fetch_cycle, pipeline.fetch_barrier)
        fabric, ready = pool.acquire(configuration, cycle)
        outcomes.append(engine.offload(fabric, configuration, SEGMENT, ready))
    result = pipeline.finish()
    bpred, rob, sq = pipeline.bpred, pipeline.rob, pipeline.sq
    return (
        outcomes,
        result.cycles,
        result.stats.as_dict(),
        pipeline.regs._ready,
        pipeline.regs.renames,
        list(sq._window),
        (sq._commit_ring, sq._head, sq._count),
        pipeline.storesets._ssit,
        (pipeline.dcache.l1._sets, pipeline.l2._sets),
        (bpred.bimodal, bpred.gshare, bpred.chooser, bpred.history),
        (pipeline.seq, pipeline._fetch_slot, pipeline.next_fetch_cycle,
         pipeline.fetch_barrier),
        (pipeline.prev_commit_cycle, pipeline._commit_count,
         pipeline.last_commit_cycle),
        (rob._commit_ring, rob._head, rob._count, rob.last_commit_cycle),
    )


@given(stores=host_stores, pairs=training, invocations=st.integers(1, 4),
       kind=predictor_kinds, branches=host_branches)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_offload_twin_matches_reference(stores, pairs, invocations, kind,
                                        branches):
    for speculation in (True, False):
        reference = _offload_run(False, speculation, stores, pairs,
                                 invocations, kind, branches)
        fast = _offload_run(True, speculation, stores, pairs, invocations,
                            kind, branches)
        assert fast == reference, f"speculation={speculation}"


def test_offload_scenarios_reach_the_special_cases():
    """The segment reaches what the twin special-cases: intra-trace
    violations, a violation against an aliasing host store, and trained
    Store-Sets waits that avoid both."""
    late_load, forwarded_load = LOAD_PCS[2], LOAD_PCS[4]
    late_store, forwarding_store = STORE_PCS
    outcomes, *_ = _offload_run(True, True, [], [], 3)
    assert [o.violation for o in outcomes] == [
        (late_load, late_store), (forwarded_load, forwarding_store), None,
    ]
    trained = [(late_load, late_store), (forwarded_load, forwarding_store)]
    late_host_store = [(0x100, HOST_STORE_PCS[0], -1, 500, 10)]
    outcomes, *_ = _offload_run(True, True, late_host_store, trained, 2)
    assert [o.violation for o in outcomes] == [
        (LOAD_PCS[0], HOST_STORE_PCS[0]), None,
    ]
