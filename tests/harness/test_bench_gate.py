"""The bench regression gate script."""

import importlib.util
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location(
    "check_bench_regression",
    REPO_ROOT / "scripts" / "check_bench_regression.py",
)
gate = importlib.util.module_from_spec(_spec)
sys.modules["check_bench_regression"] = gate
_spec.loader.exec_module(gate)


def _report(**overrides):
    doc = {
        "wall_clock_seconds": 10.0,
        "cold": True,
        "cache": {"runs_simulated": 5, "hit_ratio": 0.0, "disk": {}},
        "geomean": {"spec": 2.0, "no_spec": 1.5, "mapping": 0.9},
    }
    doc.update(overrides)
    return doc


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_gate_passes_within_budget(tmp_path, capsys):
    current = _write(tmp_path, "current.json", _report())
    baseline = _write(tmp_path, "baseline.json", _report())
    assert gate.main([current, baseline, "--require-cold"]) == 0
    assert "OK" in capsys.readouterr().out


def test_gate_fails_on_wall_clock_regression(tmp_path, capsys):
    current = _write(tmp_path, "current.json",
                     _report(wall_clock_seconds=20.0))
    baseline = _write(tmp_path, "baseline.json", _report())
    assert gate.main([current, baseline]) == 1
    assert "wall clock regressed" in capsys.readouterr().err


def test_gate_fails_on_geomean_drift(tmp_path, capsys):
    current = _write(tmp_path, "current.json",
                     _report(geomean={"spec": 2.5, "no_spec": 1.5,
                                      "mapping": 0.9}))
    baseline = _write(tmp_path, "baseline.json", _report())
    assert gate.main([current, baseline]) == 1
    assert "geomean[spec] drifted" in capsys.readouterr().err
