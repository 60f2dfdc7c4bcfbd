"""Unit tests for the simulator-throughput benchmark (`repro perfbench`)."""

import json

import pytest

from repro.harness.perfbench import (
    ENGINES,
    MODES,
    PERFBENCH_SCHEMA_VERSION,
    _geomean,
    compare_perfbench,
    perfbench_report,
    render_perfbench,
)


def test_geomean():
    assert _geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert _geomean([]) == 0.0
    # Non-positive cells are skipped rather than zeroing the geomean.
    assert _geomean([0.0, 5.0]) == pytest.approx(5.0)


def _tiny_report(**kwargs):
    return perfbench_report(scale=0.02, kernels=["KM"], repeat=1, **kwargs)


def test_report_shape_and_rates():
    report = _tiny_report()
    assert report["perfbench_schema_version"] == PERFBENCH_SCHEMA_VERSION
    assert report["experiment"] == "perfbench"
    assert report["code_fingerprint"]
    assert report["kernels"] == ["KM"]
    assert set(report["engines"]) == set(ENGINES)
    for engine in ENGINES:
        summary = report["engines"][engine]
        assert len(summary["cells"]) == len(MODES)
        assert summary["geomean_instr_per_sec"] > 0
        assert summary["total_instructions"] > 0
        for cell in summary["cells"]:
            assert cell["engine"] == engine
            assert cell["kernel"] == "KM"
            assert cell["instructions"] > 0
            assert cell["instr_per_sec"] > 0
            assert cell["simulated_cycles"] > 0
            if cell["mode"] == "accelerate":
                assert cell["invocations"] > 0
    assert report["speedup"] > 0
    # Trace generation runs before the first timed cell; its time and the
    # process's peak memory are reported beside the throughput.
    assert report["trace_generation_seconds"] > 0
    assert report["peak_rss_mb"] > 0
    # The report must be JSON-serializable as produced.
    json.dumps(report, sort_keys=True)


def test_single_engine_report_has_no_speedup():
    report = perfbench_report(
        scale=0.02, kernels=["KM"], modes=("baseline",), engines=("fast",)
    )
    assert "speedup" not in report
    assert list(report["engines"]) == ["fast"]


def test_profile_section():
    report = _tiny_report(profile=True)
    profile = report["profile"]
    assert profile["sort"] == "cumulative"
    assert 0 < len(profile["top"]) <= 10
    for entry in profile["top"]:
        assert entry["calls"] > 0
        assert entry["cumtime"] >= entry["tottime"] >= 0
    assert set(profile) == {"sort", "top"}


def test_render_perfbench():
    report = _tiny_report()
    text = render_perfbench(report)
    assert "fast" in text
    assert "interpreted" in text
    assert "speedup" in text
    assert "traces generated in" in text and "peak RSS" in text


def test_compare_warns_when_the_code_differs():
    report = _tiny_report()
    same = compare_perfbench(report, dict(report))
    assert not any("fingerprint" in w for w in same["warnings"])
    other = dict(report, code_fingerprint="0" * 64)
    differs = compare_perfbench(report, other)
    assert any("code fingerprints differ" in w for w in differs["warnings"])
