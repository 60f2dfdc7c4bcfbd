"""Tests for the area model (Table 6) and the CACTI stand-in."""

import pytest

from repro.energy.area import (
    BULLDOZER_2CORE_MM2,
    FabricAreaModel,
    MODULE_AREAS_UM2,
    PAPER_CONFIG_CACHE_MM2,
    PAPER_FABRIC_MM2,
)
from repro.energy.cacti import SramModel
from repro.fabric.config import FabricConfig


def test_table6_module_areas_match_paper():
    assert MODULE_AREAS_UM2["sparc_exu_alu"] == 4660
    assert MODULE_AREAS_UM2["sparc_mul_top"] == 47752
    assert MODULE_AREAS_UM2["sparc_exu_div"] == 11227
    assert MODULE_AREAS_UM2["fpu_add"] == 34370
    assert MODULE_AREAS_UM2["fpu_mul"] == 62488
    assert MODULE_AREAS_UM2["fpu_div"] == 13769
    assert MODULE_AREAS_UM2["data_path"] == 4717
    assert MODULE_AREAS_UM2["fifo"] == 848


def test_datapath_block_comparable_to_integer_alu():
    """The paper's observation: a datapath block is almost as large as an
    OpenSparc T1 integer ALU."""
    ratio = MODULE_AREAS_UM2["data_path"] / MODULE_AREAS_UM2["sparc_exu_alu"]
    assert 0.8 < ratio < 1.2


def test_fifo_much_smaller_than_alu():
    assert MODULE_AREAS_UM2["fifo"] < MODULE_AREAS_UM2["sparc_exu_alu"] / 4


def test_eight_stripe_fabric_matches_paper_headline():
    model = FabricAreaModel()
    assert model.fabric_area_mm2(8) == pytest.approx(PAPER_FABRIC_MM2, rel=0.05)


def test_fabric_area_scales_linearly_in_stripes():
    model = FabricAreaModel()
    a8 = model.fabric_area_mm2(8)
    a16 = model.fabric_area_mm2(16)
    fifo = model.fifo_area_um2() / 1e6
    assert a16 - fifo == pytest.approx(2 * (a8 - fifo), rel=1e-9)


def test_fabric_is_small_next_to_bulldozer_cores():
    model = FabricAreaModel()
    assert model.fabric_area_mm2(8) < BULLDOZER_2CORE_MM2 / 8


def test_config_cache_area_matches_paper_order():
    sram = SramModel(entries=16, block_bytes=16)
    assert sram.area_mm2 == pytest.approx(PAPER_CONFIG_CACHE_MM2, rel=0.5)
    assert sram.area_mm2 < 0.01


def test_sram_area_scales_with_block():
    small = SramModel(entries=16, block_bytes=16)
    big = SramModel(entries=16, block_bytes=64)
    assert big.area_mm2 > small.area_mm2


def test_custom_geometry():
    cfg = FabricConfig(stripe_pools={"int_alu": 2, "int_muldiv": 1,
                                     "fp_alu": 2, "fp_muldiv": 1, "ldst": 1})
    slim = FabricAreaModel(cfg)
    assert slim.stripe_area_um2() < FabricAreaModel().stripe_area_um2()
