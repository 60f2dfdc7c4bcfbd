"""Tests for heterogeneous fabric geometries (CCA-like triangle)."""

import pytest

from repro.core.mapper import ResourceAwareMapper
from repro.core.tables import MappingTables, pos_token
from repro.energy.area import FabricAreaModel
from repro.fabric.config import cca_like, FabricConfig
from repro.fabric.stripe import build_stripes
from repro.isa.builder import ProgramBuilder
from repro.isa.executor import FunctionalExecutor


def test_per_stripe_pools_length_validated():
    with pytest.raises(ValueError):
        FabricConfig(num_stripes=4, per_stripe_pools=({"int_alu": 1},) * 3)


def test_cca_like_shape():
    cfg = cca_like(num_rows=4, top_width=6)
    assert cfg.num_stripes == 4
    widths = [cfg.pools_for(s)["int_alu"] for s in range(4)]
    assert widths == [6, 5, 4, 3]          # shrinking triangle
    assert cfg.pass_regs_per_fu == 0       # no multi-row bypass
    assert cfg.channels_in_stripe(0) == 0


def test_heterogeneous_stripes_built_correctly():
    cfg = cca_like()
    stripes = build_stripes(cfg)
    assert len(stripes[0].pes) > len(stripes[-1].pes)
    assert stripes[0].pass_registers == 0


def test_zero_channel_tables_cannot_route_far():
    tables = MappingTables(4, [0, 0, 0, 0])
    tables.define(pos_token(0), stripe=0)
    # Adjacent consumption is free (direct wires)...
    assert tables.in_reuse_set(pos_token(0), boundary=1)
    # ...but no pass registers means no reach beyond the next stripe.
    assert not tables.can_route(pos_token(0), to_boundary=2)


def test_cca_like_rejects_deep_traces():
    b = ProgramBuilder("deep")
    b.li("r1", 1)
    for _ in range(8):
        b.add("r1", "r1", "r1")     # 9-deep chain > 4 rows
    b.halt()
    trace = FunctionalExecutor().run(b.build()).trace[:-1]
    key = (0, (), len(trace))
    assert ResourceAwareMapper(cca_like()).map_trace(trace, key) is None
    assert ResourceAwareMapper().map_trace(trace, key) is not None


def test_cca_like_accepts_shallow_integer_subgraphs():
    b = ProgramBuilder("shallow")
    b.add("r3", "r1", "r2")
    b.add("r4", "r3", "r3")   # consumes only the previous row's value:
    b.add("r5", "r4", "r4")   # no pass registers needed
    b.halt()
    trace = FunctionalExecutor().run(b.build()).trace[:-1]
    key = (0, (), len(trace))
    config = ResourceAwareMapper(cca_like()).map_trace(trace, key)
    assert config is not None
    config.validate()


def test_heterogeneous_area_sums_per_stripe():
    model = FabricAreaModel(cca_like())
    total = model.fabric_area_mm2()
    uniform = FabricAreaModel(FabricConfig(num_stripes=4)).fabric_area_mm2()
    assert 0 < total < uniform  # the triangle is smaller than 4 full stripes
