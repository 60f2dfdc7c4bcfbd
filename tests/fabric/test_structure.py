"""Unit tests for fabric geometry: config, PEs, stripes, FIFOs."""

import pytest

from repro.fabric.config import FabricConfig
from repro.fabric.fifos import FifoModel
from repro.fabric.pe import PE, pe_busy
from repro.fabric.stripe import build_stripes, Stripe
from repro.isa.opcodes import OpClass
from repro.ooo.fus import POOL_OF


def test_default_geometry_matches_table4():
    cfg = FabricConfig()
    assert cfg.num_stripes == 16
    assert cfg.pes_in_stripe(0) == 12      # 4+1+4+1+2
    assert cfg.pass_regs_per_fu == 3
    assert cfg.channels_in_stripe(0) == 36
    assert cfg.fifo_depth == 8
    assert cfg.livein_fifos == 16
    assert cfg.liveout_fifos == 16


def test_config_validation():
    with pytest.raises(ValueError):
        FabricConfig(num_stripes=0)
    with pytest.raises(ValueError):
        FabricConfig(fifo_depth=0)


def test_stripe0_pes_have_two_input_ports():
    stripes = build_stripes(FabricConfig())
    assert all(pe.input_ports == 2 for pe in stripes[0])
    assert all(pe.input_ports == 1 for pe in stripes[1])


def test_stripe_pool_composition():
    stripe = Stripe(0, FabricConfig())
    pools = [pe.pool for pe in stripe.pes]
    assert pools.count("int_alu") == 4
    assert pools.count("int_muldiv") == 1
    assert pools.count("fp_alu") == 4
    assert pools.count("fp_muldiv") == 1
    assert pools.count("ldst") == 2
    assert len(stripe.pes) == 12


def test_pe_functionality_constraint():
    """The mapper places an op only on PEs of its op class's pool."""
    pe = PE(stripe=0, index=0, pool="int_alu", input_ports=2)
    assert POOL_OF[OpClass.INT_ALU] == pe.pool
    assert POOL_OF[OpClass.BRANCH] == pe.pool   # branches run on int ALUs
    assert POOL_OF[OpClass.FP_MUL] != pe.pool
    assert POOL_OF[OpClass.LOAD] != pe.pool


def test_pe_occupancy_pipelining():
    assert pe_busy(OpClass.INT_ALU, 1) == 1
    assert pe_busy(OpClass.INT_DIV, 12) == 12   # divider blocks
    assert pe_busy(OpClass.INT_MUL, 3) == 1     # multiplier pipelined
    # Reservation buffer hides load latency from the PE.
    assert pe_busy(OpClass.LOAD, 1) == 1


def test_reconfig_latency_scales_with_stripes():
    cfg = FabricConfig()
    assert cfg.reconfig_latency(1) < cfg.reconfig_latency(8)
    assert cfg.reconfig_latency(0) == cfg.reconfig_latency(1)


def test_fifo_admission_and_capacity():
    fifo = FifoModel(2)
    assert fifo.admit_ready_cycle() == 0
    fifo.push(10)
    fifo.push(20)
    assert fifo._count == 2
    assert fifo.admit_ready_cycle() == 11   # oldest entry drains at 10
    fifo.push(30)
    assert fifo.admit_ready_cycle() == 21


def test_fifo_rejects_zero_depth():
    with pytest.raises(ValueError):
        FifoModel(0)
