"""Unit tests for the offload engine against a live host pipeline."""

import pytest

from repro.core.mapper import ResourceAwareMapper
from repro.core.offload import OffloadEngine
from repro.core.multifabric import FabricPool
from repro.isa.builder import ProgramBuilder
from repro.isa.executor import FunctionalExecutor, Memory
from repro.ooo.pipeline import OOOPipeline


def build_segment(build, memory=None):
    b = ProgramBuilder("t")
    build(b)
    b.halt()
    result = FunctionalExecutor().run(b.build(), memory)
    segment = result.trace[:-1]
    outcomes = tuple(bool(d.taken) for d in segment if d.is_branch)
    key = (segment[0].pc, outcomes, len(segment))
    return segment, key


def offload_once(build, memory=None, speculation=True):
    segment, key = build_segment(build, memory)
    config = ResourceAwareMapper().map_trace(segment, key)
    assert config is not None
    pipeline = OOOPipeline()
    pool = FabricPool(1)
    fabric, ready = pool.acquire(config, 0)
    engine = OffloadEngine(pipeline=pipeline, speculation=speculation)
    outcome = engine.offload(fabric, config, segment, ready)
    return outcome, pipeline


def simple_body(b):
    b.fli("f1", 3.0)
    b.fli("f2", 4.0)
    b.fmul("f3", "f1", "f2")
    b.fadd("f4", "f3", "f1")


def test_successful_offload_commits_fat_instruction():
    outcome, pipeline = offload_once(simple_body)
    assert outcome.success
    assert outcome.consumed == 4
    assert pipeline.stats.fabric_invocations == 1
    assert pipeline.stats.fabric_squashes == 0
    assert pipeline.stats.offloaded_instructions == 4
    assert pipeline.stats.commits == 1


def test_live_outs_reach_host_scoreboard():
    outcome, pipeline = offload_once(simple_body)
    assert pipeline.regs.ready_cycle("f3") > 0
    assert pipeline.regs.ready_cycle("f4") > 0
    assert pipeline.regs.ready_cycle("f4") <= outcome.complete + 1


def test_fabric_stores_enter_host_store_queue():
    mem = Memory()

    def body(b):
        b.li("r1", 0x100)
        b.li("r2", 9)
        b.sw("r1", "r2", 0)

    outcome, pipeline = offload_once(body, mem)
    assert outcome.success
    assert len(pipeline.sq) == 1
    assert pipeline.sq.youngest_alias(0x100, before_seq=10**9) is not None
    assert pipeline.stats.stores == 1


def test_offloaded_branches_train_host_predictor():
    def body(b):
        b.li("r1", 1)
        b.addi("r1", "r1", -1)
        b.bne("r1", "r0", "end")
        b.label("end")
        b.addi("r2", "r2", 1)

    outcome, pipeline = offload_once(body)
    assert outcome.success
    assert pipeline.bpred.lookups == 1


def test_rename_energy_charged_for_lives():
    outcome, pipeline = offload_once(simple_body)
    # 2 live-ins? (none: both fli) -> live-outs at least f3/f4 renamed.
    assert pipeline.stats.renames >= 2


def test_per_pool_fabric_op_counters():
    outcome, pipeline = offload_once(simple_body)
    s = pipeline.stats
    assert s.fabric_fp_alu_ops == 3    # fli, fli, fadd
    assert s.fabric_fp_muldiv_ops == 1  # fmul
    assert s.fabric_fu_ops == 4


def test_memory_violation_squashes_and_trains():
    """An intra-trace aliasing store whose *address* resolves late forces a
    violation under speculation."""
    mem = Memory()
    mem.store_array(0x100, [0x200, 7])

    def body(b):
        b.li("r9", 0x100)
        b.lw("r1", "r9", 0)       # r1 = 0x200 (slow-ish address chain)
        b.mul("r2", "r1", "r1")   # long dependency to stretch addr time
        b.div("r3", "r2", "r1")   # 0x200*0x200/0x200 = 0x200
        b.li("r4", 42)
        b.sw("r3", "r4", 0)       # store to 0x200, address late
        b.li("r5", 0x200)
        b.lw("r6", "r5", 0)       # load 0x200: issues before store addr
    outcome, pipeline = offload_once(body, mem)
    assert not outcome.success
    assert outcome.squash_reason == "memory"
    assert pipeline.stats.memory_violations == 1
    assert pipeline.stats.fabric_squashes == 1
    assert pipeline.stats.fabric_invocations == 0
    assert pipeline.storesets.same_set(*outcome.violation)


def test_conservative_mode_never_violates():
    mem = Memory()
    mem.store_array(0x100, [0x200, 7])

    def body(b):
        b.li("r9", 0x100)
        b.lw("r1", "r9", 0)
        b.mul("r2", "r1", "r1")
        b.div("r3", "r2", "r1")
        b.li("r4", 42)
        b.sw("r3", "r4", 0)
        b.li("r5", 0x200)
        b.lw("r6", "r5", 0)

    outcome, pipeline = offload_once(body, mem, speculation=False)
    assert outcome.success
    assert pipeline.stats.memory_violations == 0
