"""Unit tests for the multi-fabric pool (Table 5's 1/2/4-fabric study)."""

import pytest

from repro.core.multifabric import FabricPool
from repro.fabric.configuration import Configuration, OperandSource, PlacedOp
from repro.isa.opcodes import Opcode, OpClass


def make_config(name):
    op = PlacedOp(
        pos=0,
        opcode=Opcode.ADD,
        opclass=OpClass.INT_ALU,
        stripe=0,
        pe_index=0,
        pool="int_alu",
        sources=(OperandSource("livein", reg="r1"),),
        source_roles=("src",),
        dest_reg="r2",
    )
    return Configuration(
        trace_key=(name,),
        placements=[op],
        live_ins=("r1",),
        live_outs={"r2": 0},
        mem_op_pcs=(),
    )


def test_pool_requires_a_fabric():
    with pytest.raises(ValueError):
        FabricPool(0)


def test_reuse_of_resident_configuration():
    pool = FabricPool(1)
    cfg = make_config("a")
    fabric1, ready1 = pool.acquire(cfg, 0)
    assert ready1 > 0  # first configure pays reconfiguration latency
    fabric2, ready2 = pool.acquire(cfg, 100)
    assert fabric2 is fabric1
    assert ready2 == 100  # no reconfiguration
    assert pool.reconfigurations == 1


def test_two_fabrics_hold_two_configurations():
    pool = FabricPool(2)
    a, b = make_config("a"), make_config("b")
    fa, _ = pool.acquire(a, 0)
    fb, _ = pool.acquire(b, 0)
    assert fa is not fb
    # Both stay resident: re-acquiring neither reconfigures.
    pool.acquire(a, 50)
    pool.acquire(b, 50)
    assert pool.reconfigurations == 2


def test_lru_evicts_least_recently_used():
    pool = FabricPool(2)
    a, b, c = make_config("a"), make_config("b"), make_config("c")
    fa, _ = pool.acquire(a, 0)
    fb, _ = pool.acquire(b, 0)
    pool.acquire(a, 10)          # a is now most recent
    fc, _ = pool.acquire(c, 20)  # evicts b
    assert fc is fb
    assert not any(f.is_configured_for(("b",)) for f in pool.fabrics)


def test_hysteresis_protects_fresh_configurations():
    pool = FabricPool(1)
    a, b = make_config("a"), make_config("b")
    pool.acquire(a, 0)
    assert pool.acquire(b, 10, reconfig_hysteresis=100) is None
    acquired = pool.acquire(b, 200, reconfig_hysteresis=100)
    assert acquired is not None


def test_alternating_keys_on_one_fabric_thrash():
    pool = FabricPool(1)
    a, b = make_config("a"), make_config("b")
    for i in range(6):
        pool.acquire(a if i % 2 == 0 else b, i * 100)
    assert pool.reconfigurations == 6


def test_lifetimes_collected_across_fabrics():
    pool = FabricPool(2)
    a, b = make_config("a"), make_config("b")
    fa, ready = pool.acquire(a, 0)
    from repro.fabric.fabric import InvocationContext
    ctx = InvocationContext(
        start_lower_bound=ready,
        live_in_ready={},
        mem_addrs={},
        dcache_access=lambda addr: 2,
    )
    fa.execute(a, ctx)
    fa.execute(a, ctx)
    fb, _ = pool.acquire(b, 100)
    lifetimes = pool.lifetimes()
    assert sorted(lifetimes) == [2]
    assert pool.total_invocations == 2
