"""Tests for the run cache and experiment drivers (tiny scales)."""

import pytest

from repro.harness import (
    clear_run_cache,
    figure8_performance,
    run_baseline,
    run_dynaspam,
    table3_benchmarks,
    table4_parameters,
    table6_area,
)
from repro.harness.runner import geomean

SCALE = 0.08


def setup_module(module):
    clear_run_cache()


def test_baseline_runs_are_cached():
    first = run_baseline("KM", SCALE)
    second = run_baseline("KM", SCALE)
    assert first is second


def test_dynaspam_runs_cached_by_configuration():
    a = run_dynaspam("KM", SCALE)
    b = run_dynaspam("KM", SCALE)
    c = run_dynaspam("KM", SCALE, speculation=False)
    assert a is b
    assert c is not a


def test_clear_run_cache():
    a = run_baseline("KM", SCALE)
    clear_run_cache()
    b = run_baseline("KM", SCALE)
    assert a is not b


def test_geomean():
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert geomean([]) == 0.0
    assert geomean([1.42]) == pytest.approx(1.42)


def test_table3_lists_all_eleven():
    text = table3_benchmarks()
    for abbrev in ("BP", "BFS", "BT", "HS", "KM", "LD", "KNN", "NW",
                   "PF", "PTF", "SRAD"):
        assert f" {abbrev} " in text or f"| {abbrev}" in text or abbrev in text


def test_table4_reflects_core_config():
    text = table4_parameters()
    assert "192-entry ROB" in text
    assert "8-wide issue" in text
    assert "2 LDST units" in text


def test_table6_render():
    result = table6_area()
    text = result.render()
    assert "sparc_exu_alu" in text
    assert "2.9 mm^2" in text


def test_table7_feature_matrix():
    from repro.harness.experiments import table7_related_work

    text = table7_related_work()
    assert "DynaSpAM" in text and "CCA" in text
    # DynaSpAM's distinguishing row: the only engine with every feature.
    dynaspam_row = [line for line in text.splitlines()
                    if line.lstrip().startswith("DynaSpAM")][0]
    assert dynaspam_row.count("yes") == 5


def test_dynaspam_cache_distinguishes_every_knob():
    """The seed cache keyed on a knob subset; the key now freezes the
    full config, so e.g. hot_threshold sweeps can't serve stale results."""
    from repro.core import DynaSpAMConfig
    from repro.harness.runner import run_dynaspam

    a = run_dynaspam("KM", SCALE)
    b = run_dynaspam("KM", SCALE, config=DynaSpAMConfig(hot_threshold=6))
    c = run_dynaspam("KM", SCALE, config=DynaSpAMConfig(hot_threshold=6))
    assert a is not b
    assert b is c


def test_figure8_runs_at_tiny_scale():
    result = figure8_performance(SCALE)
    assert set(result.speedups) == {
        "BP", "BFS", "BT", "HS", "KM", "LD", "KNN", "NW", "PF", "PTF", "SRAD"
    }
    for series in ("mapping", "no_spec", "spec"):
        value = result.series_geomean(series)
        assert 0.3 < value < 4.0
    text = result.render()
    assert "GEOMEAN" in text


def test_traced_run_bypasses_cache_but_seeds_it():
    from repro.harness.runner import (
        clear_run_cache,
        dynaspam_spec,
        execute_spec,
        peek_cached,
    )
    from repro.obs import MemorySink

    clear_run_cache()
    spec = dynaspam_spec("KM", 0.05)
    sink = MemorySink()
    traced = execute_spec(spec, sink=sink)
    assert len(sink) > 0
    # The traced result seeded the cache; an untraced lookup now hits.
    assert peek_cached(spec.key) is traced
    # A second traced call simulates fresh (new events), same numbers.
    second_sink = MemorySink()
    again = execute_spec(spec, sink=second_sink)
    assert len(second_sink) == len(sink)
    assert again.cycles == traced.cycles
    assert again.stats.as_dict() == traced.stats.as_dict()
    clear_run_cache()
