"""Tests for the fabric dataflow timing engine (hand-built configurations)."""

import pytest

from repro.fabric.config import FabricConfig
from repro.fabric.configuration import Configuration, OperandSource, PlacedOp
from repro.fabric.fabric import InvocationContext, SpatialFabric
from repro.isa.opcodes import Opcode, OpClass


def placed(pos, opcode, opclass, stripe, sources=(), roles=None, pool="int_alu",
           dest=None, mem_index=None, pc=None):
    return PlacedOp(
        pos=pos,
        opcode=opcode,
        opclass=opclass,
        stripe=stripe,
        pe_index=0,
        pool=pool,
        sources=tuple(sources),
        source_roles=tuple(roles) if roles is not None else ("src",) * len(sources),
        dest_reg=dest,
        pc=pc if pc is not None else pos * 4,
        mem_index=mem_index,
    )


def inst_src(producer_pos, hops):
    return OperandSource("inst", producer_pos=producer_pos, hops=hops)


def livein(reg):
    return OperandSource("livein", reg=reg)


def make_config(placements, live_ins=(), live_outs=None, mem=()):
    return Configuration(
        trace_key=("t", 0),
        placements=placements,
        live_ins=tuple(live_ins),
        live_outs=live_outs or {},
        mem_op_pcs=tuple(pc for pc, _ in mem),
    )


def flat_cache(addr):
    return 2  # constant L1-hit latency


def ctx(start=0, live_in_ready=None, mem_addrs=None, speculative=True, **kw):
    return InvocationContext(
        start_lower_bound=start,
        live_in_ready=live_in_ready or {},
        mem_addrs=mem_addrs or {},
        dcache_access=flat_cache,
        speculative=speculative,
        **kw,
    )


def fresh_fabric(config=None):
    fabric = SpatialFabric(config or FabricConfig())
    return fabric


def configure(fabric, configuration, cycle=0):
    fabric.configure(configuration, cycle)
    return fabric


# ---------------------------------------------------------------------------
# Dataflow timing
# ---------------------------------------------------------------------------
def test_chain_latency_accumulates():
    cfg = make_config([
        placed(0, Opcode.ADD, OpClass.INT_ALU, 0, [livein("r1")], dest="r2"),
        placed(1, Opcode.ADD, OpClass.INT_ALU, 1, [inst_src(0, 1)], dest="r3"),
        placed(2, Opcode.ADD, OpClass.INT_ALU, 2, [inst_src(1, 1)], dest="r4"),
    ], live_ins=["r1"], live_outs={"r4": 2})
    fabric = configure(fresh_fabric(), cfg)
    result = fabric.execute(cfg, ctx(start=10))
    # livein arrives 10+bus(1)=11; each ALU adds 1 cycle, adjacent hops free.
    assert result.finish_times[0] == 12
    assert result.finish_times[1] == 13
    assert result.finish_times[2] == 14
    assert result.liveout_ready["r4"] == 15  # +bus


def test_multi_hop_route_adds_pass_register_latency():
    cfg = make_config([
        placed(0, Opcode.ADD, OpClass.INT_ALU, 0, [livein("r1")], dest="r2"),
        placed(1, Opcode.ADD, OpClass.INT_ALU, 4, [inst_src(0, 4)], dest="r3"),
    ], live_ins=["r1"], live_outs={"r3": 1})
    fabric = configure(fresh_fabric(), cfg)
    result = fabric.execute(cfg, ctx(start=0))
    # producer finishes at 2; 4 hops -> 3 extra pass-register cycles.
    assert result.finish_times[1] == 2 + 3 + 1


def test_independent_ops_run_in_parallel():
    cfg = make_config([
        placed(0, Opcode.ADD, OpClass.INT_ALU, 0, [livein("r1")], dest="r2"),
        placed(1, Opcode.ADD, OpClass.INT_ALU, 0, [livein("r3")], dest="r4"),
    ], live_ins=["r1", "r3"], live_outs={"r2": 0, "r4": 1})
    fabric = configure(fresh_fabric(), cfg)
    result = fabric.execute(cfg, ctx())
    assert result.finish_times[0] == result.finish_times[1]


def test_live_in_readiness_delays_start():
    cfg = make_config([
        placed(0, Opcode.ADD, OpClass.INT_ALU, 0, [livein("r1")], dest="r2"),
    ], live_ins=["r1"], live_outs={"r2": 0})
    fabric = configure(fresh_fabric(), cfg)
    result = fabric.execute(cfg, ctx(start=0, live_in_ready={"r1": 50}))
    assert result.finish_times[0] == 52  # 50 + bus + 1


def test_datapath_and_fifo_accounting():
    cfg = make_config([
        placed(0, Opcode.ADD, OpClass.INT_ALU, 0, [livein("r1")], dest="r2"),
        placed(1, Opcode.ADD, OpClass.INT_ALU, 3, [inst_src(0, 3)], dest="r3"),
    ], live_ins=["r1"], live_outs={"r3": 1})
    fabric = configure(fresh_fabric(), cfg)
    result = fabric.execute(cfg, ctx())
    assert result.fu_ops == 2
    assert result.datapath_transfers == 3
    assert result.fifo_ops == 2  # one live-in + one live-out


# ---------------------------------------------------------------------------
# Pipelined invocations
# ---------------------------------------------------------------------------
def test_back_to_back_invocations_pipeline():
    cfg = make_config([
        placed(0, Opcode.ADD, OpClass.INT_ALU, 0, [livein("r1")], dest="r2"),
        placed(1, Opcode.FMUL, OpClass.FP_MUL, 1, [inst_src(0, 1)],
               pool="fp_muldiv", dest="f1"),
    ], live_ins=["r1"], live_outs={"f1": 1})
    fabric = configure(fresh_fabric(), cfg)
    first = fabric.execute(cfg, ctx(start=0))
    second = fabric.execute(cfg, ctx(start=0))
    assert second.start >= first.start + first.structural_ii
    # Pipelined: second starts long before the first completes... and the
    # initiation interval is far smaller than the invocation latency.
    assert second.start - first.start < first.complete - first.start + 1


def test_unpipelined_divider_raises_initiation_interval():
    cfg_div = make_config([
        placed(0, Opcode.FDIV, OpClass.FP_DIV, 0, [livein("f1")],
               pool="fp_muldiv", dest="f2"),
    ], live_ins=["f1"], live_outs={"f2": 0})
    fabric = configure(fresh_fabric(), cfg_div)
    first = fabric.execute(cfg_div, ctx())
    second = fabric.execute(cfg_div, ctx())
    assert second.start - first.start >= 12  # divider occupancy


def test_fifo_depth_bounds_inflight_invocations():
    config = FabricConfig(fifo_depth=2)
    cfg = make_config([
        placed(0, Opcode.ADD, OpClass.INT_ALU, 0, [livein("r1")], dest="r2"),
    ], live_ins=["r1"], live_outs={"r2": 0})
    fabric = configure(SpatialFabric(config), cfg)
    results = [fabric.execute(cfg, ctx(live_in_ready={"r1": 100})) for _ in range(3)]
    # With depth 2, the third invocation waits for the first to drain.
    assert results[2].start > results[1].start


def test_execute_requires_matching_configuration():
    cfg = make_config([
        placed(0, Opcode.ADD, OpClass.INT_ALU, 0, [livein("r1")], dest="r2"),
    ], live_ins=["r1"], live_outs={"r2": 0})
    fabric = fresh_fabric()
    with pytest.raises(ValueError, match="not configured"):
        fabric.execute(cfg, ctx())


# ---------------------------------------------------------------------------
# Memory ordering
# ---------------------------------------------------------------------------
def make_store_load(same_addr=True):
    """A store (late data) followed by a load in trace order."""
    store_addr = 0x100
    load_addr = 0x100 if same_addr else 0x200
    placements = [
        placed(0, Opcode.FDIV, OpClass.FP_DIV, 0, [livein("f1")],
               pool="fp_muldiv", dest="f2"),                    # slow data
        placed(1, Opcode.SW, OpClass.STORE, 1,
               [livein("r1"), inst_src(0, 1)], roles=["base", "value"],
               pool="ldst", mem_index=0, pc=0x40),
        placed(2, Opcode.LW, OpClass.LOAD, 1, [livein("r2")],
               roles=["base"], pool="ldst", dest="r3", mem_index=1, pc=0x44),
    ]
    cfg = make_config(placements, live_ins=["f1", "r1", "r2"],
                      live_outs={"r3": 2},
                      mem=[(0x40, "store"), (0x44, "load")])
    return cfg, {0: store_addr, 1: load_addr}


def test_speculative_load_bypasses_slow_store():
    cfg, addrs = make_store_load(same_addr=False)
    fabric = configure(fresh_fabric(), cfg)
    result = fabric.execute(cfg, ctx(mem_addrs=addrs, speculative=True))
    load = [e for e in result.mem_events if e.kind == "load"][0]
    store = [e for e in result.mem_events if e.kind == "store"][0]
    assert load.start < store.finish
    assert result.violations == []


def test_conservative_load_waits_for_all_older_stores():
    cfg, addrs = make_store_load(same_addr=False)
    fabric = configure(fresh_fabric(), cfg)
    result = fabric.execute(cfg, ctx(mem_addrs=addrs, speculative=False))
    load = [e for e in result.mem_events if e.kind == "load"][0]
    store = [e for e in result.mem_events if e.kind == "store"][0]
    assert load.start >= store.finish
    assert result.violations == []


def test_aliasing_speculative_load_detects_violation_or_forwards():
    cfg, addrs = make_store_load(same_addr=True)
    fabric = configure(fresh_fabric(), cfg)
    result = fabric.execute(cfg, ctx(mem_addrs=addrs, speculative=True))
    # The store's address resolves early (base is a live-in), so the load
    # forwards rather than violating; its data arrives after the store's.
    load = [e for e in result.mem_events if e.kind == "load"][0]
    store = [e for e in result.mem_events if e.kind == "store"][0]
    assert load.finish > store.finish
    assert result.violations == []


def test_predicted_store_dependence_delays_load():
    cfg, addrs = make_store_load(same_addr=True)
    fabric = configure(fresh_fabric(), cfg)
    result = fabric.execute(
        cfg,
        ctx(mem_addrs=addrs, speculative=True, predicted_store_pos={1: 1}),
    )
    load = [e for e in result.mem_events if e.kind == "load"][0]
    store = [e for e in result.mem_events if e.kind == "store"][0]
    assert load.start >= store.finish
    assert result.violations == []


def test_extra_mem_wait_applies():
    cfg, addrs = make_store_load(same_addr=False)
    fabric = configure(fresh_fabric(), cfg)
    result = fabric.execute(
        cfg, ctx(mem_addrs=addrs, speculative=True, extra_mem_wait={1: 500})
    )
    load = [e for e in result.mem_events if e.kind == "load"][0]
    assert load.start >= 500


# ---------------------------------------------------------------------------
# Configuration lifetime bookkeeping (Table 5 inputs)
# ---------------------------------------------------------------------------
def test_lifetime_recorded_on_reconfiguration():
    cfg_a = make_config([
        placed(0, Opcode.ADD, OpClass.INT_ALU, 0, [livein("r1")], dest="r2"),
    ], live_ins=["r1"], live_outs={"r2": 0})
    cfg_b = Configuration(
        trace_key=("u", 1),
        placements=[placed(0, Opcode.ADD, OpClass.INT_ALU, 0,
                           [livein("r1")], dest="r2")],
        live_ins=("r1",),
        live_outs={"r2": 0},
        mem_op_pcs=(),
    )
    fabric = fresh_fabric()
    fabric.configure(cfg_a, 0)
    for _ in range(5):
        fabric.execute(cfg_a, ctx())
    fabric.configure(cfg_b, 100)
    # Closing A's lifetime charges its five invocations to the books.
    assert sum(fabric.stripe_placed_invocations) == 5
    fabric.execute(cfg_b, ctx(start=100))
    assert fabric.lifetime_invocations == [5]
    assert fabric.flush_lifetime() == [5, 1]
    books = (fabric.stripe_placed_invocations[0],
             fabric.stripe_invocations[0], sum(fabric.stripe_invocations),
             sum(fabric.stripe_placed_invocations))
    assert books == (6, 6, 6, 6)
    assert not any(fabric.stripe_placed_invocations[1:])
    # A second flush charges nothing more.
    assert fabric.flush_lifetime() == [5, 1]
    assert sum(fabric.stripe_placed_invocations) == 6


def test_power_gating_tracks_active_pes():
    cfg = make_config([
        placed(0, Opcode.ADD, OpClass.INT_ALU, 0, [livein("r1")], dest="r2"),
        placed(1, Opcode.ADD, OpClass.INT_ALU, 1, [inst_src(0, 1)], dest="r3"),
    ], live_ins=["r1"], live_outs={"r3": 1})
    fabric = fresh_fabric()
    fabric.configure(cfg, 0)
    fabric.execute(cfg, ctx())
    fabric.flush_lifetime()
    assert sum(fabric.stripe_placed_invocations) == 2
    assert sum(fabric.stripe_invocations) == 2   # one op per stripe
    total = fabric.config.num_stripes * fabric.config.pes_in_stripe(0)
    assert sum(fabric.stripe_placed_invocations) < total
