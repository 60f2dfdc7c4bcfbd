"""Fabric timing corner cases not covered by the main execution tests."""

from repro.fabric.config import FabricConfig
from repro.fabric.fabric import InvocationContext, SpatialFabric
from tests.fabric.test_execution import (
    configure,
    ctx,
    inst_src,
    livein,
    make_config,
    placed,
)
from repro.isa.opcodes import Opcode, OpClass


def test_liveout_includes_bus_crossing():
    cfg = make_config([
        placed(0, Opcode.ADD, OpClass.INT_ALU, 0, [livein("r1")], dest="r2"),
    ], live_ins=["r1"], live_outs={"r2": 0})
    fabric = configure(SpatialFabric(), cfg)
    result = fabric.execute(cfg, ctx(start=0))
    bus = fabric.config.global_bus_latency
    assert result.liveout_ready["r2"] == result.finish_times[0] + bus


def test_complete_covers_all_finish_times_plus_drain():
    cfg = make_config([
        placed(0, Opcode.ADD, OpClass.INT_ALU, 0, [livein("r1")], dest="r2"),
        placed(1, Opcode.FDIV, OpClass.FP_DIV, 1, [inst_src(0, 1)],
               pool="fp_muldiv", dest="f1"),
    ], live_ins=["r1"], live_outs={"f1": 1})
    fabric = configure(SpatialFabric(), cfg)
    result = fabric.execute(cfg, ctx())
    assert result.complete >= max(result.finish_times.values())


def test_occupancy_cycles_first_vs_steady_state():
    cfg = make_config([
        placed(0, Opcode.ADD, OpClass.INT_ALU, 0, [livein("r1")], dest="r2"),
        placed(1, Opcode.ADD, OpClass.INT_ALU, 1, [inst_src(0, 1)], dest="r3"),
    ], live_ins=["r1"], live_outs={"r3": 1})
    fabric = configure(SpatialFabric(), cfg)
    first = fabric.execute(cfg, ctx())
    second = fabric.execute(cfg, ctx())
    # First invocation charges its full latency; pipelined followers only
    # their start-to-start gap.
    assert first.occupancy_cycles == first.complete - first.start
    assert second.occupancy_cycles <= first.occupancy_cycles
    assert second.occupancy_cycles >= 1


def test_reconfiguration_resets_pipelining_state():
    cfg_a = make_config([
        placed(0, Opcode.ADD, OpClass.INT_ALU, 0, [livein("r1")], dest="r2"),
    ], live_ins=["r1"], live_outs={"r2": 0})
    fabric = configure(SpatialFabric(), cfg_a)
    for _ in range(4):
        fabric.execute(cfg_a, ctx())
    from repro.fabric.configuration import Configuration

    cfg_b = Configuration(
        trace_key=("other",),
        placements=[placed(0, Opcode.ADD, OpClass.INT_ALU, 0,
                           [livein("r1")], dest="r2")],
        live_ins=("r1",),
        live_outs={"r2": 0},
        branch_outcomes=(),
        mem_op_pcs=(),
        mem_op_kinds=(),
    )
    ready = fabric.configure(cfg_b, 1000)
    result = fabric.execute(cfg_b, ctx(start=ready))
    # No initiation-interval carryover from the old configuration.
    assert result.start == ready
    assert result.liveout_ready.keys() == {"r2"}


def test_store_store_order_preserved_without_speculation():
    placements = [
        placed(0, Opcode.FDIV, OpClass.FP_DIV, 0, [livein("f1")],
               pool="fp_muldiv", dest="f2"),
        placed(1, Opcode.SW, OpClass.STORE, 1,
               [livein("r1"), inst_src(0, 1)], roles=["base", "value"],
               pool="ldst", mem_index=0, pc=0x40),
        placed(2, Opcode.SW, OpClass.STORE, 1,
               [livein("r2"), livein("r3")], roles=["base", "value"],
               pool="ldst", mem_index=1, pc=0x44),
    ]
    cfg = make_config(placements, live_ins=["f1", "r1", "r2", "r3"],
                      live_outs={},
                      mem=[(0x40, "store"), (0x44, "store")])
    fabric = configure(SpatialFabric(), cfg)
    result = fabric.execute(
        cfg, ctx(mem_addrs={0: 0x100, 1: 0x200}, speculative=False)
    )
    first, second = result.mem_events
    assert second.finish > first.finish  # in-order execution


def test_store_store_issue_relaxed_with_speculation():
    placements = [
        placed(0, Opcode.FDIV, OpClass.FP_DIV, 0, [livein("f1")],
               pool="fp_muldiv", dest="f2"),
        placed(1, Opcode.SW, OpClass.STORE, 1,
               [livein("r1"), inst_src(0, 1)], roles=["base", "value"],
               pool="ldst", mem_index=0, pc=0x40),
        placed(2, Opcode.SW, OpClass.STORE, 1,
               [livein("r2"), livein("r3")], roles=["base", "value"],
               pool="ldst", mem_index=1, pc=0x44),
    ]
    cfg = make_config(placements, live_ins=["f1", "r1", "r2", "r3"],
                      live_outs={},
                      mem=[(0x40, "store"), (0x44, "store")])
    fabric = configure(SpatialFabric(), cfg)
    result = fabric.execute(
        cfg, ctx(mem_addrs={0: 0x100, 1: 0x200}, speculative=True)
    )
    first, second = result.mem_events
    # The second store's data is ready immediately (live-ins); the buffer
    # lets it finish before the divider-fed first store.
    assert second.finish < first.finish
