"""Tests for the workload-driven fabric tuner (future-work feature)."""

import pytest

from repro.core.tuning import evaluate_mix, FabricTuner, TunedMix
from repro.fabric.config import FabricConfig
from repro.workloads import generate_trace
from repro.workloads.characterize import characterize, WorkloadProfile

SCALE = 0.1


def profile_of(abbrev):
    return characterize(abbrev, generate_trace(abbrev, SCALE).trace)


def test_budget_must_cover_every_pool():
    with pytest.raises(ValueError):
        FabricTuner(pe_budget=4)


def test_propose_requires_profiles():
    with pytest.raises(ValueError):
        FabricTuner().propose([])


def test_proposal_respects_budget_and_minimums():
    tuner = FabricTuner(pe_budget=12)
    mix = tuner.propose([profile_of("KM"), profile_of("BFS")])
    assert mix.total_pes == 12
    assert all(count >= 1 for count in mix.pools.values())


def test_int_workload_gets_integer_heavy_mix():
    tuner = FabricTuner(pe_budget=12)
    mix = tuner.propose([profile_of("BFS")])
    assert mix.pools["int_alu"] > mix.pools["fp_alu"]
    assert mix.pools["ldst"] >= 2  # BFS is load heavy


def test_fp_workload_gets_fp_capacity():
    tuner = FabricTuner(pe_budget=12)
    mix = tuner.propose([profile_of("HS")])
    assert mix.pools["fp_alu"] >= 2


def test_fabric_config_from_mix():
    tuner = FabricTuner(pe_budget=10)
    mix = tuner.propose([profile_of("KM")])
    config = tuner.fabric_config(mix)
    assert config.pes_in_stripe(0) == 10
    assert config.num_stripes == FabricConfig().num_stripes


def test_evaluate_mix_reports_sane_numbers():
    run = generate_trace("KM", 0.25)
    tuner = FabricTuner(pe_budget=12)
    mix = tuner.propose([characterize("KM", run.trace)])
    evaluation = evaluate_mix(run, tuner.fabric_config(mix))
    assert evaluation.speedup > 0.5
    assert evaluation.fabric_area_mm2 > 0
    assert 0.0 <= evaluation.fabric_coverage <= 1.0
    assert evaluation.speedup_per_mm2 > 0


def test_tuned_mix_beats_budget_matched_default_density():
    """A KM-tuned 12-PE stripe should not lose to the default 12-PE stripe
    on KM itself (it reallocates idle FP-divider/LDST slack)."""
    run = generate_trace("KM", 0.25)
    profile = characterize("KM", run.trace)
    tuner = FabricTuner(pe_budget=12)
    tuned = evaluate_mix(run, tuner.fabric_config(tuner.propose([profile])))
    default = evaluate_mix(run, FabricConfig())
    assert tuned.speedup >= default.speedup * 0.9
