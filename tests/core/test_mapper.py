"""Tests for the resource-aware mapper (Algorithms 1-3) and the naive
baseline, including property-based structural checks."""

from hypothesis import given, settings, strategies as st

from repro.core.mapper import analyze_trace, ResourceAwareMapper
from repro.core.naive_mapper import NaiveMapper
from repro.fabric.config import FabricConfig
from repro.isa.builder import ProgramBuilder
from repro.isa.executor import FunctionalExecutor, Memory
from repro.isa.opcodes import Opcode, OpClass


def trace_of(build, memory=None):
    b = ProgramBuilder("t")
    build(b)
    b.halt()
    return FunctionalExecutor().run(b.build(), memory).trace


def segment_of(build, memory=None, length=32):
    trace = trace_of(build, memory)
    return trace[: min(length, len(trace) - 1)]  # drop HALT


def key_of(segment):
    outcomes = tuple(bool(d.taken) for d in segment if d.is_branch)
    return (segment[0].pc, outcomes, len(segment))


def map_with(mapper_cls, build, memory=None, **kw):
    segment = segment_of(build, memory)
    mapper = mapper_cls(**kw)
    return mapper.map_trace(segment, key_of(segment)), segment, mapper


# ---------------------------------------------------------------------------
# analyze_trace
# ---------------------------------------------------------------------------
def test_analyze_trace_dependences_and_liveins():
    def body(b):
        b.li("r1", 5)            # pos 0
        b.add("r2", "r1", "r9")  # pos 1: r1 in-trace, r9 live-in
        b.add("r1", "r2", "r2")  # pos 2: redefinition of r1

    segment = segment_of(body)
    ops, live_ins, last_def = analyze_trace(segment)
    assert live_ins == ("r9",)
    assert ops[1].operand_tokens == [("pos", 0), ("livein", "r9")]
    assert ops[2].operand_tokens == [("pos", 1), ("pos", 1)]
    assert last_def == {"r1": 2, "r2": 1}


def test_analyze_trace_skips_r0_and_transparent_ops():
    def body(b):
        b.add("r2", "r0", "r1")
        b.nop()
        b.jmp("next")
        b.label("next")
        b.li("r3", 1)

    segment = segment_of(body)
    ops, live_ins, _ = analyze_trace(segment)
    assert [op.dyn.opcode for op in ops] == [Opcode.ADD, Opcode.LI]
    assert ops[0].operand_tokens == [("livein", "r1")]


def test_analyze_trace_memory_roles_and_order():
    mem = Memory()

    def body(b):
        b.li("r1", 0x100)
        b.li("r2", 7)
        b.sw("r1", "r2", 0)
        b.lw("r3", "r1", 0)

    segment = segment_of(body, mem)
    ops, _, _ = analyze_trace(segment)
    store = ops[2]
    load = ops[3]
    assert store.mem_index == 0 and load.mem_index == 1
    assert store.operand_roles == ["base", "value"]
    assert load.operand_roles == ["base"]


# ---------------------------------------------------------------------------
# Resource-aware mapping
# ---------------------------------------------------------------------------
def simple_loop(b):
    b.li("r1", 0x100)
    b.fli("f1", 2.0)
    with b.countdown("loop", "r2", 5):
        b.flw("f2", "r1", 0)
        b.fmul("f3", "f2", "f1")
        b.fadd("f4", "f4", "f3")
        b.addi("r1", "r1", 4)


def test_mapping_succeeds_and_validates():
    mem = Memory()
    mem.store_array(0x100, [1.0] * 8)
    config, _, _ = map_with(ResourceAwareMapper, simple_loop, mem)
    assert config is not None
    config.validate()


def test_mapping_covers_all_nontransparent_instructions():
    mem = Memory()
    mem.store_array(0x100, [1.0] * 8)
    config, segment, _ = map_with(ResourceAwareMapper, simple_loop, mem)
    expected = sum(
        1 for d in segment
        if d.opclass.value not in ("jump", "nop")
    )
    assert config.length == expected


def test_dataflow_moves_strictly_forward():
    mem = Memory()
    mem.store_array(0x100, [1.0] * 8)
    config, _, _ = map_with(ResourceAwareMapper, simple_loop, mem)
    for op in config.placements:
        for src in op.sources:
            if src.kind == "inst":
                producer = config.op_at(src.producer_pos)
                assert producer.stripe < op.stripe


def test_live_outs_are_final_definitions():
    mem = Memory()
    mem.store_array(0x100, [1.0] * 8)
    config, segment, _ = map_with(ResourceAwareMapper, simple_loop, mem)
    # r1 and f4 are redefined every iteration: live-out = last definition.
    for reg, pos in config.live_outs.items():
        op = config.op_at(pos)
        assert op.dest_reg == reg
        later_defs = [
            p.pos for p in config.placements
            if p.dest_reg == reg and p.pos > pos
        ]
        assert later_defs == []


def test_branch_outcomes_embedded():
    """The configuration is keyed by the outcomes it was mapped for, and
    every branch of the trace sits on a PE to check them."""
    mem = Memory()
    mem.store_array(0x100, [1.0] * 8)
    config, segment, _ = map_with(ResourceAwareMapper, simple_loop, mem)
    expected = tuple(bool(d.taken) for d in segment if d.is_branch)
    assert expected and config.trace_key[1] == expected
    branches = [pos for pos, d in enumerate(segment) if d.is_branch]
    assert [op.pos for op in config.placements if op.is_branch] == branches


def test_memory_ops_keep_relative_order():
    mem = Memory()
    mem.store_array(0x100, [0] * 8)

    def body(b):
        b.li("r1", 0x100)
        b.li("r2", 1)
        b.sw("r1", "r2", 0)
        b.lw("r3", "r1", 0)
        b.sw("r1", "r3", 4)

    config, _, _ = map_with(ResourceAwareMapper, body, mem)
    mem_ops = sorted(
        (op for op in config.placements if op.mem_index is not None),
        key=lambda o: o.mem_index,
    )
    assert [o.opclass for o in mem_ops] == [
        OpClass.STORE, OpClass.LOAD, OpClass.STORE]
    assert [o.pc for o in mem_ops] == list(config.mem_op_pcs)
    assert [o.pos for o in mem_ops] == sorted(o.pos for o in mem_ops)


def test_two_livein_instructions_go_to_stripe_zero():
    def body(b):
        b.add("r3", "r1", "r2")   # two live-ins
        b.add("r4", "r3", "r3")

    config, _, _ = map_with(ResourceAwareMapper, body)
    two_livein = config.op_at(0)
    assert two_livein.stripe == 0


def test_too_many_liveins_fails():
    def body(b):
        # 17 distinct live-in registers > 16 live-in FIFOs.
        regs = [f"r{i}" for i in range(1, 18)]
        for i, reg in enumerate(regs[:-1]):
            b.add(f"r{i + 1}", reg, regs[i + 1])

    segment = segment_of(body)
    mapper = ResourceAwareMapper()
    assert mapper.map_trace(segment, key_of(segment)) is None


def test_trace_larger_than_fabric_fails():
    def body(b):
        # A 30-deep dependent chain cannot fit 16 stripes.
        b.li("r1", 1)
        for _ in range(30):
            b.add("r1", "r1", "r1")

    segment = segment_of(body, length=31)
    mapper = ResourceAwareMapper(FabricConfig(num_stripes=16))
    assert mapper.map_trace(segment, key_of(segment)) is None


def test_mapping_cycles_accounted():
    mem = Memory()
    mem.store_array(0x100, [1.0] * 8)
    config, segment, _ = map_with(ResourceAwareMapper, simple_loop, mem)
    assert config.mapping_cycles >= config.stripes_used
    assert config.mapping_cycles < 10 * len(segment)


# ---------------------------------------------------------------------------
# Naive baseline comparison (the Figure 2 effects)
# ---------------------------------------------------------------------------
def test_naive_mapper_produces_valid_mappings():
    mem = Memory()
    mem.store_array(0x100, [1.0] * 8)
    config, _, _ = map_with(NaiveMapper, simple_loop, mem)
    assert config is not None
    config.validate()


def test_naive_fails_where_resource_aware_succeeds():
    """Figure 2(b): late two-live-in instructions strand the naive mapper.

    Five independent single-live-in adds occupy all four stripe-0 integer
    ALUs under in-order first-fit placement; the two-live-in instruction
    then has no two-port PE left.  The resource-aware mapper's priority-3
    rule places the two-live-in instruction first.
    """
    def body(b):
        b.addi("r11", "r1", 1)
        b.addi("r12", "r2", 1)
        b.addi("r13", "r3", 1)
        b.addi("r14", "r4", 1)
        b.add("r15", "r5", "r6")   # two live-ins, arrives last

    naive_config, _, _ = map_with(NaiveMapper, body)
    aware_config, _, _ = map_with(ResourceAwareMapper, body)
    assert naive_config is None
    assert aware_config is not None


def test_resource_aware_is_no_deeper_than_naive():
    """ASAP dataflow scheduling uses no more stripes than in-order
    first-fit (depth drives the invocation's critical path)."""
    mem = Memory()
    mem.store_array(0x100, [1.0] * 16)

    def body(b):
        b.li("r1", 0x100)
        b.fli("f1", 3.0)
        with b.countdown("loop", "r2", 6):
            b.flw("f2", "r1", 0)
            b.fmul("f3", "f2", "f1")
            b.fadd("f4", "f4", "f3")
            b.fsub("f5", "f3", "f1")
            b.fadd("f6", "f6", "f5")
            b.addi("r1", "r1", 4)

    naive_config, _, _ = map_with(NaiveMapper, body, mem)
    aware_config, _, _ = map_with(ResourceAwareMapper, body, mem)
    assert naive_config is not None and aware_config is not None
    assert aware_config.stripes_used <= naive_config.stripes_used


# ---------------------------------------------------------------------------
# Property-based structural checks
# ---------------------------------------------------------------------------
REGS = [f"r{i}" for i in range(1, 9)]
int_op = st.tuples(
    st.sampled_from(["add", "sub", "and_", "xor", "min_"]),
    st.sampled_from(REGS),
    st.sampled_from(REGS),
    st.sampled_from(REGS),
)


@given(ops=st.lists(int_op, min_size=1, max_size=24))
@settings(max_examples=40, deadline=None)
def test_mapper_output_always_validates(ops):
    def body(b):
        for name, d, a, c in ops:
            getattr(b, name)(d, a, c)

    segment = segment_of(body)
    mapper = ResourceAwareMapper()
    config = mapper.map_trace(segment, key_of(segment))
    if config is None:
        return  # infeasible traces are allowed; invalid ones are not
    config.validate()
    # Every placement sits on a PE of a pool that can execute it.
    from repro.ooo.fus import POOL_OF
    for op in config.placements:
        assert POOL_OF[op.opclass] == op.pool


@given(ops=st.lists(int_op, min_size=1, max_size=24))
@settings(max_examples=40, deadline=None)
def test_mapper_respects_pe_capacity_per_stripe(ops):
    def body(b):
        for name, d, a, c in ops:
            getattr(b, name)(d, a, c)

    segment = segment_of(body)
    config = ResourceAwareMapper().map_trace(segment, key_of(segment))
    if config is None:
        return
    from collections import Counter
    per_stripe_pool = Counter((op.stripe, op.pool) for op in config.placements)
    fabric_pools = FabricConfig().stripe_pools
    for (stripe, pool), count in per_stripe_pool.items():
        assert count <= fabric_pools[pool]
    # No two ops share a PE.
    pes = [(op.stripe, op.pe_index) for op in config.placements]
    assert len(pes) == len(set(pes))


@given(ops=st.lists(int_op, min_size=1, max_size=20))
@settings(max_examples=40, deadline=None)
def test_naive_and_aware_agree_on_dependences(ops):
    """Both mappers must encode the same producer-consumer edges."""
    def body(b):
        for name, d, a, c in ops:
            getattr(b, name)(d, a, c)

    segment = segment_of(body)
    aware = ResourceAwareMapper().map_trace(segment, key_of(segment))
    naive = NaiveMapper().map_trace(segment, key_of(segment))
    if aware is None or naive is None:
        return
    def edges(config):
        return {
            (op.pos, src.producer_pos)
            for op in config.placements
            for src in op.sources
            if src.kind == "inst"
        }
    assert edges(aware) == edges(naive)
