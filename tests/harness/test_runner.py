"""Tests for the run cache and experiment drivers (tiny scales)."""

from collections import Counter

import pytest

import repro.harness.diskcache as diskcache
from repro.harness import (
    figure8_performance,
    run_dynaspam,
    table3_benchmarks,
    table4_parameters,
    table5_lifetime,
    table6_area,
)
from repro.harness.runner import dynaspam_spec, geomean, peek_cached
from repro.obs.runtime import TRACER
from repro.workloads import ALL_ABBREVS, suite

SCALE = 0.08


@pytest.fixture
def isolated_disk(tmp_path):
    """An empty disk cache, the only place a run is kept."""
    diskcache.configure(enabled=True, root=str(tmp_path))
    yield tmp_path
    diskcache.configure()


def _simulated() -> int:
    return TRACER.counters().get("runs_simulated", 0)


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


def test_dynaspam_cache_distinguishes_every_knob(isolated_disk):
    """The seed cache keyed on a knob subset; the key now freezes the
    full config, so e.g. hot_threshold sweeps can't serve stale results."""
    from repro.core import DynaSpAMConfig

    before = _simulated()
    a = run_dynaspam("KM", SCALE)
    b = run_dynaspam("KM", SCALE, config=DynaSpAMConfig(hot_threshold=6))
    c = run_dynaspam("KM", SCALE, config=DynaSpAMConfig(hot_threshold=6))
    # The knob change missed; the repeat read b's entry back from disk.
    assert _simulated() - before == 2
    assert len(list((isolated_disk / "runs").rglob("*.pkl"))) == 2
    assert c.stats.as_dict() == b.stats.as_dict()
    assert peek_cached(dynaspam_spec("KM", SCALE).key).stats.as_dict() \
        == a.stats.as_dict()


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


def test_traced_run_bypasses_cache_but_seeds_it(isolated_disk):
    from repro.obs import MemorySink

    spec = dynaspam_spec("KM", 0.05)
    sink = MemorySink()
    traced = run_dynaspam("KM", 0.05, sink=sink)
    assert len(sink) > 0
    # The traced result seeded the disk cache; an untraced lookup hits.
    before = _simulated()
    assert peek_cached(spec.key).stats.as_dict() == traced.stats.as_dict()
    assert run_dynaspam("KM", 0.05).cycles == traced.cycles
    assert _simulated() == before
    # A second traced call simulates fresh (new events), same numbers.
    second_sink = MemorySink()
    again = run_dynaspam("KM", 0.05, sink=second_sink)
    assert _simulated() == before + 1
    assert len(second_sink) == len(sink)
    assert again.cycles == traced.cycles
    assert again.stats.as_dict() == traced.stats.as_dict()


def test_cached_report_does_not_regenerate_the_trace(isolated_disk):
    from repro.harness.runner import simulation_report

    suite.clear_trace_cache()
    first = simulation_report("KM", 0.05)
    suite.clear_trace_cache()
    simulated = _simulated()
    again = simulation_report("KM", 0.05)
    assert suite._TRACE_CACHE == {}
    assert _simulated() == simulated
    assert again == first


def test_serial_sweeps_keep_one_trace_and_generate_each_once(monkeypatch):
    """A serial sweep runs each kernel's runs back to back, so the one
    trace ``generate_trace`` keeps is generated once per kernel."""
    generated = Counter()
    build = suite.get_benchmark

    def counting_get_benchmark(abbrev):
        generated[abbrev] += 1
        return build(abbrev)

    monkeypatch.setattr(suite, "get_benchmark", counting_get_benchmark)
    diskcache.configure(enabled=False)
    suite.clear_trace_cache()
    try:
        for sweep in (figure8_performance, table5_lifetime):
            generated.clear()
            sweep(0.05, jobs=1)
            assert len(suite._TRACE_CACHE) <= 1, sweep.__name__
            assert generated == Counter(dict.fromkeys(ALL_ABBREVS, 1)), \
                sweep.__name__
    finally:
        diskcache.configure()
        suite.clear_trace_cache()
