"""Cycle-accounting conservation sweep and breakdown unit tests.

The conservation property — every bucket non-negative, buckets mutually
exclusive, and their sum exactly equal to the run's total cycles — must
hold on *every* suite benchmark in every execution mode, because
``repro diff`` relies on it to attribute cycle deltas completely.
"""

import dataclasses

import pytest

from repro.harness.experiments import (
    PerformanceResult,
    figure8_accounting,
    figure8_performance,
    speedup_warnings,
)
from repro.harness.runner import run_baseline, run_dynaspam
from repro.obs.accounting import (
    BUCKET_FIELDS,
    BUCKET_HELP,
    BUCKETS,
    bucket_breakdown,
    check_conservation,
    render_breakdown,
    render_conservation,
    render_utilization,
)
from repro.ooo.stats import PipelineStats
from repro.workloads import ALL_ABBREVS

SCALE = 0.05

MODES = {
    "host": lambda abbrev: run_baseline(abbrev, SCALE).stats,
    "mapping": lambda abbrev: run_dynaspam(
        abbrev, SCALE, mode="mapping_only").stats,
    "spec": lambda abbrev: run_dynaspam(abbrev, SCALE).stats,
}


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("abbrev", ALL_ABBREVS)
def test_conservation_across_suite(abbrev, mode):
    stats = MODES[mode](abbrev)
    breakdown = bucket_breakdown(stats.as_dict())
    assert set(breakdown["buckets"]) == set(BUCKETS)
    assert all(v >= 0 for v in breakdown["buckets"].values()), breakdown
    assert sum(breakdown["buckets"].values()) == stats.cycles, breakdown
    assert breakdown["residual"] == 0
    assert breakdown["conserved"] is True
    assert check_conservation(stats.as_dict()) == []


def test_buckets_are_exclusive_stat_fields():
    # Exclusivity is structural: each bucket reads its own counter, and
    # every counter is a real PipelineStats field.
    fields = list(BUCKET_FIELDS.values())
    assert len(fields) == len(set(fields))
    stat_names = {f.name for f in dataclasses.fields(PipelineStats)}
    assert set(fields) <= stat_names
    assert set(BUCKET_HELP) == set(BUCKETS)


def test_breakdown_reports_residual_on_leaky_stats():
    stats = {"cycles": 100, "cycles_host": 60, "cycles_offload": 30}
    breakdown = bucket_breakdown(stats)
    assert breakdown["residual"] == 10
    assert breakdown["conserved"] is False
    problems = check_conservation(stats)
    assert any("residual 10" in p for p in problems)


def test_breakdown_flags_negative_bucket():
    stats = {"cycles": 10, "cycles_host": 15, "cycles_drain": -5}
    breakdown = bucket_breakdown(stats)
    assert breakdown["residual"] == 0
    assert breakdown["conserved"] is False
    assert any("negative" in p for p in check_conservation(stats))


def test_render_breakdown_has_delta_columns():
    host = bucket_breakdown({"cycles": 100, "cycles_host": 100})
    spec = bucket_breakdown(
        {"cycles": 80, "cycles_host": 50, "cycles_offload": 30})
    text = render_breakdown({"host": host, "spec": spec}, baseline="host")
    assert "d(spec-host)" in text
    assert "-20" in text          # total delta
    assert "TOTAL" in text
    conservation = render_conservation({"host": host, "spec": spec})
    assert conservation.count("PASS") == 2


def test_render_utilization_handles_idle_fabric():
    assert "no invocations" in render_utilization({})
    assert "no invocations" in render_utilization(
        {"total_invocations": 0})


def test_fabric_utilization_summary_is_sane():
    run = run_dynaspam("KM", SCALE)
    util = run.fabric_utilization
    assert util["total_invocations"] > 0
    assert 0.0 < util["placed_pe_ratio"] <= 1.0
    assert 0.0 < util["stripe_fill"] <= 1.0
    assert len(util["per_stripe"]) == util["num_stripes"]
    for entry in util["per_stripe"]:
        assert 0.0 <= entry["occupancy"] <= 1.0
    # Per-stripe placed counts must add up to the pool-wide numerator.
    placed = sum(e["placed_pe_invocations"] for e in util["per_stripe"])
    assert placed == pytest.approx(
        util["placed_pe_ratio"] * util["total_pes"]
        * util["total_invocations"])


def test_figure8_accounting_covers_suite_and_conserves():
    accounting, utilization = figure8_accounting(
        figure8_performance(SCALE).runs)
    assert set(accounting) == set(ALL_ABBREVS)
    assert set(utilization) == set(ALL_ABBREVS)
    for by_series in accounting.values():
        assert set(by_series) == {"baseline", "mapping", "no_spec", "spec"}
        for breakdown in by_series.values():
            assert breakdown["conserved"] is True


def test_speedup_warnings_flag_sub_unity_geomean():
    result = PerformanceResult(scale=1.0)
    result.speedups = {
        "AA": {"mapping": 0.9, "no_spec": 1.2, "spec": 1.5},
        "BB": {"mapping": 0.8, "no_spec": 1.1, "spec": 1.4},
    }
    warnings = speedup_warnings(result)
    assert len(warnings) == 1
    assert "'mapping'" in warnings[0]
    assert "BB" in warnings[0]          # names the worst benchmark
    result.speedups = {"AA": {"mapping": 1.0, "no_spec": 1.0, "spec": 1.0}}
    assert speedup_warnings(result) == []
