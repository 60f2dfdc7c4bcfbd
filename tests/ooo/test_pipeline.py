"""Integration tests for the OOO pipeline timing model."""

import pytest

from repro.isa.builder import ProgramBuilder
from repro.isa.executor import FunctionalExecutor, Memory
from repro.ooo.config import CoreConfig
from repro.ooo.pipeline import OOOPipeline


def trace_of(build, memory=None):
    b = ProgramBuilder("t")
    build(b)
    b.halt()
    return FunctionalExecutor().run(b.build(), memory).trace


def run(build, memory=None, config=None, **kwargs):
    pipe = OOOPipeline(config, **kwargs)
    result = pipe.run_trace(trace_of(build, memory))
    return result, pipe


def test_timing_monotonicity_invariants():
    def body(b):
        b.li("r1", 5)
        with b.countdown("loop", "r2", 10):
            b.add("r3", "r1", "r2")
            b.mul("r4", "r3", "r1")

    pipe = OOOPipeline()
    for dyn in trace_of(body):
        t = pipe.process(dyn)
        assert t.fetch <= t.dispatch < t.issue < t.complete < t.commit


def test_commit_is_in_order():
    def body(b):
        b.li("r1", 9)
        b.div("r2", "r1", "r1")       # long latency
        b.addi("r3", "r1", 1)         # independent, completes early

    pipe = OOOPipeline()
    commits = [pipe.process(d).commit for d in trace_of(body)]
    assert commits == sorted(commits)


def test_independent_ops_issue_in_parallel():
    def body(b):
        for i in range(1, 5):
            b.li(f"r{i}", i)
        b.add("r5", "r1", "r2")
        b.add("r6", "r3", "r4")
        b.add("r7", "r1", "r3")
        b.add("r8", "r2", "r4")

    pipe = OOOPipeline()
    timings = [pipe.process(d) for d in trace_of(body)]
    adds = timings[4:8]
    assert len({t.issue for t in adds}) == 1  # 4 ALUs: all in one cycle


def test_dependent_chain_serializes():
    def body(b):
        b.li("r1", 1)
        for _ in range(6):
            b.add("r1", "r1", "r1")

    pipe = OOOPipeline()
    timings = [pipe.process(d) for d in trace_of(body)]
    issues = [t.issue for t in timings[1:7]]  # the six chained adds
    assert all(b2 > a for a, b2 in zip(issues, issues[1:]))


def test_divider_contention_blocks():
    def body(b):
        b.li("r1", 100)
        b.li("r2", 3)
        b.div("r3", "r1", "r2")
        b.div("r4", "r1", "r2")   # same unit, unpipelined

    pipe = OOOPipeline()
    timings = [pipe.process(d) for d in trace_of(body)]
    div1, div2 = timings[2], timings[3]
    assert div2.issue >= div1.issue + 12


def test_correctly_predicted_loop_has_few_mispredicts():
    def body(b):
        with b.countdown("loop", "r1", 200):
            b.addi("r2", "r2", 1)

    result, pipe = run(body)
    # One exit mispredict plus warm-up.
    assert result.stats.branch_mispredicts <= 6


def test_mispredicts_cost_cycles():
    # A data-dependent unpredictable branch pattern.
    def body_with_noise(b):
        b.li("r10", 0x1000)
        with b.countdown("loop", "r1", 200):
            b.lw("r2", "r10", 0)
            b.beq("r2", "r0", "skip")
            b.addi("r3", "r3", 1)
            b.label("skip")
            b.addi("r10", "r10", 4)

    mem = Memory()
    noise = [(i * 2654435761) % 2 for i in range(200)]
    mem.store_array(0x1000, noise)

    def body_biased(b):
        b.li("r10", 0x1000)
        with b.countdown("loop", "r1", 200):
            b.lw("r2", "r10", 0)
            b.beq("r2", "r0", "skip")
            b.addi("r3", "r3", 1)
            b.label("skip")
            b.addi("r10", "r10", 4)

    mem_biased = Memory()
    mem_biased.store_array(0x1000, [1] * 200)

    noisy, _ = run(body_with_noise, mem)
    biased, _ = run(body_biased, mem_biased)
    assert noisy.stats.branch_mispredicts > biased.stats.branch_mispredicts
    assert noisy.cycles > biased.cycles


def test_store_to_load_forwarding():
    def body(b):
        b.li("r1", 0x100)
        b.li("r2", 42)
        with b.countdown("loop", "r3", 50):
            b.sw("r1", "r2", 0)
            b.lw("r4", "r1", 0)

    result, _ = run(body)
    assert result.stats.store_forwards > 40


def test_memory_violation_detection_and_training():
    """A load aliasing a store whose data arrives late: the first encounter
    violates, then store-sets learns and later instances wait."""
    def body(b):
        b.li("r1", 0x100)
        b.li("r5", 64)
        with b.countdown("loop", "r3", 40):
            b.div("r2", "r5", "r3")   # slow producer of store data
            b.sw("r1", "r2", 0)
            b.lw("r4", "r1", 0)       # aliases the store

    trace = trace_of(body)
    pipe = OOOPipeline()
    result = pipe.run_trace(trace)
    assert result.stats.memory_violations >= 1
    load_pc = next(d.pc for d in trace if d.is_load)
    store_pc = next(d.pc for d in trace if d.is_store)
    assert pipe.storesets.same_set(load_pc, store_pc)
    # After training, the predictor prevents repeat violations.
    assert result.stats.memory_violations < 10


def test_conservative_memory_mode_has_no_violations():
    def body(b):
        b.li("r1", 0x100)
        b.li("r5", 64)
        with b.countdown("loop", "r3", 40):
            b.div("r2", "r5", "r3")
            b.sw("r1", "r2", 0)
            b.lw("r4", "r1", 0)

    result, _ = run(body, conservative_memory=True)
    assert result.stats.memory_violations == 0


def test_conservative_memory_is_slower_on_independent_streams():
    def body(b):
        b.li("r1", 0x100)
        b.li("r2", 0x8000)
        b.li("r5", 7)
        with b.countdown("loop", "r3", 100):
            b.sw("r1", "r5", 0)
            b.lw("r4", "r2", 0)     # never aliases the store
            b.addi("r1", "r1", 4)
            b.addi("r2", "r2", 4)

    fast, _ = run(body)
    slow, _ = run(body, conservative_memory=True)
    assert slow.cycles > fast.cycles


def test_cache_misses_slow_execution():
    stride = 4096  # distinct L1D sets/blocks every access

    def body(b):
        b.li("r1", 0x10000)
        with b.countdown("loop", "r3", 100):
            b.lw("r4", "r1", 0)
            b.addi("r1", "r1", stride)

    def body_hot(b):
        b.li("r1", 0x10000)
        with b.countdown("loop", "r3", 100):
            b.lw("r4", "r1", 0)

    cold, _ = run(body)
    hot, _ = run(body_hot)
    assert cold.stats.dcache_misses > hot.stats.dcache_misses
    assert cold.cycles > hot.cycles


def test_drain_empties_pipeline():
    def body(b):
        b.li("r1", 100)
        b.div("r2", "r1", "r1")

    pipe = OOOPipeline()
    timings = [pipe.process(d) for d in trace_of(body)]
    drained = pipe.drain()
    assert drained >= max(t.commit for t in timings)
    # Fetch after a drain cannot precede the drain point.
    next_fetch = pipe._alloc_fetch(0x0)
    assert next_fetch >= drained


def test_macro_dispatch_and_commit():
    pipe = OOOPipeline()

    def body(b):
        b.li("r1", 5)
        b.li("r2", 6)

    for d in trace_of(body):
        pipe.process(d)
    seq, dispatch = pipe.macro_dispatch()
    assert seq == 3  # after li, li, halt
    start = max(dispatch, pipe.regs.ready_cycle("r1"),
                pipe.regs.ready_cycle("r2"))
    commit = pipe.macro_commit(start + 10)
    assert commit > start + 10
    pipe.set_live_out("r9", start + 10)
    assert pipe.regs.ready_cycle("r9") == start + 10


def test_ipc_never_exceeds_width():
    def body(b):
        for _ in range(100):
            b.addi("r1", "r1", 1)
            b.addi("r2", "r2", 1)
            b.addi("r3", "r3", 1)
            b.addi("r4", "r4", 1)

    result, _ = run(body)
    assert result.ipc <= CoreConfig().issue_width


def test_stats_instruction_count_matches_trace():
    def body(b):
        with b.countdown("loop", "r1", 30):
            b.addi("r2", "r2", 1)

    trace = trace_of(body)
    pipe = OOOPipeline()
    result = pipe.run_trace(trace)
    assert result.instructions == len(trace)
    assert result.stats.fetches == len(trace)
    assert result.stats.commits == len(trace)
