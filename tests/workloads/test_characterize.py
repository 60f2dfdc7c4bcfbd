"""Tests for workload characterization."""

import pytest

from repro.workloads import generate_trace
from repro.workloads.characterize import characterize, pool_demand, WorkloadProfile

SCALE = 0.1


def profile_of(abbrev):
    return characterize(abbrev, generate_trace(abbrev, SCALE).trace)


def test_empty_trace():
    profile = characterize("empty", [])
    assert profile.dynamic_instructions == 0
    assert profile.pool_mix == {}


def test_mix_fractions_sum_to_one():
    profile = profile_of("KM")
    assert sum(profile.pool_mix.values()) == pytest.approx(1.0)
    assert sum(profile.class_mix.values()) == pytest.approx(1.0)


def test_fp_kernel_dominated_by_fp_pools():
    profile = profile_of("HS")
    fp = profile.pool_mix.get("fp_alu", 0) + profile.pool_mix.get("fp_muldiv", 0)
    assert fp > 0.25


def test_int_kernel_has_no_fp():
    profile = profile_of("BFS")
    assert profile.pool_mix.get("fp_alu", 0.0) == 0.0
    assert profile.pool_mix.get("fp_muldiv", 0.0) == 0.0


def test_memory_fractions_consistent():
    profile = profile_of("NW")
    assert profile.memory_fraction == pytest.approx(
        profile.load_fraction + profile.store_fraction
    )
    assert profile.memory_fraction > 0.25  # NW is memory heavy


def test_branch_statistics():
    profile = profile_of("KM")
    assert 0.0 < profile.branch_fraction < 0.3
    assert 0.5 < profile.taken_fraction <= 1.0  # loop-dominated
    assert profile.mean_block_run > 3


def test_unique_pcs_bounded_by_static_size():
    result = generate_trace("KM", SCALE)
    profile = characterize("KM", result.trace)
    assert profile.unique_pcs <= result.program.static_size()


def test_pool_demand_normalized_to_int_alu():
    profile = profile_of("KM")
    demand = pool_demand(profile)
    assert demand["int_alu"] == pytest.approx(1.0)
    assert set(demand) == {"int_alu", "int_muldiv", "fp_alu",
                           "fp_muldiv", "ldst"}


def test_dominant_pool():
    mix = profile_of("BFS").pool_mix
    assert max(mix, key=mix.get) == "int_alu"
