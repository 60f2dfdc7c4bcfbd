"""Tests for the content-addressed on-disk cache and its runner wiring."""

import hashlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro.harness.diskcache as diskcache
from repro.core import DynaSpAMConfig
from repro.harness.diskcache import DiskCache
from repro.harness.runner import (
    baseline_spec,
    clear_run_cache,
    dynaspam_spec,
    run_dynaspam,
)
from repro.ooo.config import CoreConfig
from repro.workloads import ALL_ABBREVS, generate_trace
from repro.workloads.suite import clear_trace_cache

SCALE = 0.05
REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def cache(tmp_path):
    return DiskCache(root=tmp_path, namespace="test", fingerprint="f0")


@pytest.fixture
def isolated_disk(tmp_path):
    """Route the process-wide cache into a temp dir for one test."""
    diskcache.configure(enabled=True, root=str(tmp_path))
    yield tmp_path
    diskcache.configure()


def test_round_trip(cache):
    value = {"cycles": 123, "nested": [1, 2, (3, 4)]}
    assert cache.put(("run", "KM", 0.5), value)
    loaded = cache.get(("run", "KM", 0.5))
    assert loaded == value
    assert cache.stats() == {
        "hits": 1, "misses": 0, "errors": 0, "writes": 1,
    }


def test_miss_on_unknown_key(cache):
    assert cache.get(("nope",)) is None
    assert cache.misses == 1


def test_version_bump_invalidates(tmp_path):
    old = DiskCache(root=tmp_path, version=1, fingerprint="f0")
    new = DiskCache(root=tmp_path, version=2, fingerprint="f0")
    old.put("key", "value")
    assert new.get("key") is None


def test_code_fingerprint_invalidates(tmp_path):
    before = DiskCache(root=tmp_path, fingerprint="aaa")
    after = DiskCache(root=tmp_path, fingerprint="bbb")
    before.put("key", "value")
    assert after.get("key") is None


def test_config_hash_separates_entries(cache):
    key_a = ("run", "KM", 0.5, (("hot_threshold", 3),))
    key_b = ("run", "KM", 0.5, (("hot_threshold", 5),))
    assert cache.path_for(key_a) != cache.path_for(key_b)
    cache.put(key_a, "a")
    assert cache.get(key_b) is None


def test_corrupted_file_falls_back_to_miss(cache):
    cache.put("key", {"fine": True})
    path = cache.path_for("key")
    path.write_bytes(b"\x80\x05 this is not a pickle")
    assert cache.get("key") is None
    assert cache.errors == 1
    assert not path.exists(), "corrupted entry should be dropped"
    # A subsequent put/get pair works again.
    cache.put("key", {"fine": True})
    assert cache.get("key") == {"fine": True}


def test_truncated_pickle_falls_back(cache):
    cache.put("key", list(range(1000)))
    path = cache.path_for("key")
    path.write_bytes(path.read_bytes()[:20])
    assert cache.get("key") is None


def test_writes_are_atomic_no_temp_litter(cache):
    for i in range(5):
        cache.put(("k", i), i)
    litter = [p for p in cache.root.rglob("*.tmp")]
    assert litter == []


def test_env_dir_override(monkeypatch, tmp_path):
    monkeypatch.setenv(diskcache.ENV_CACHE_DIR, str(tmp_path / "elsewhere"))
    assert diskcache.default_cache_dir() == tmp_path / "elsewhere"


def test_env_disable(monkeypatch):
    diskcache.configure()  # clear any explicit override
    monkeypatch.setenv(diskcache.ENV_DISK_CACHE, "0")
    assert diskcache.shared_cache("runs") is None
    monkeypatch.setenv(diskcache.ENV_DISK_CACHE, "1")
    assert diskcache.shared_cache("runs") is not None
    diskcache.configure()


def test_configure_disable_wins_over_env(monkeypatch):
    monkeypatch.setenv(diskcache.ENV_DISK_CACHE, "1")
    diskcache.configure(enabled=False)
    assert diskcache.shared_cache("runs") is None
    diskcache.configure()


def test_runner_round_trips_through_disk(isolated_disk):
    clear_run_cache()
    first = run_dynaspam("KM", SCALE)
    clear_run_cache()
    second = run_dynaspam("KM", SCALE)  # must load from disk
    assert second is not first
    assert second.cycles == first.cycles
    assert second.stats.as_dict() == first.stats.as_dict()
    runs_cache = diskcache.shared_cache("runs")
    assert runs_cache.hits >= 1


def test_run_key_covers_every_dynaspam_knob():
    base = dynaspam_spec("KM", SCALE).key
    for knob, value in (
        ("hot_threshold", 5),
        ("ready_threshold", 7),
        ("smart_trace_selection", True),
        ("num_fabrics", 2),
        ("tcache_entries", 128),
        ("config_cache_entries", 8),
        ("reconfig_hysteresis", 10),
    ):
        other = dynaspam_spec(
            "KM", SCALE, config=DynaSpAMConfig(**{knob: value})
        ).key
        assert other != base, f"{knob} missing from the run key"


def test_baseline_key_covers_core_config():
    base = baseline_spec("KM", SCALE).key
    other = baseline_spec(
        "KM", SCALE, core_config=CoreConfig(rob_entries=64)
    ).key
    assert other != base


def test_run_keys_pickle_and_repr_stably():
    key = dynaspam_spec("KM", SCALE).key
    clone = pickle.loads(pickle.dumps(key))
    assert clone == key
    assert repr(clone) == repr(key)


def test_cold_run_persists_runs_only(isolated_disk):
    clear_run_cache()
    clear_trace_cache()
    generate_trace("KM", SCALE)
    run_dynaspam("KM", SCALE)
    clear_run_cache()
    assert [p.name for p in isolated_disk.iterdir()] == ["runs"]


def trace_digests() -> dict[str, str]:
    """Per-kernel digest of a freshly generated trace at ``SCALE``: every
    dynamic instruction, the final registers and the memory image."""
    clear_trace_cache()
    digests = {}
    for abbrev in ALL_ABBREVS:
        run = generate_trace(abbrev, SCALE)
        digest = hashlib.sha256()
        for dyn in run.trace:
            digest.update(repr((dyn.seq, dyn.pc, dyn.opcode.value, dyn.addr,
                                dyn.taken, dyn.next_pc)).encode())
        digest.update(repr(run.registers.snapshot()).encode())
        digest.update(repr(sorted(run.memory._words.items())).encode())
        digests[abbrev] = digest.hexdigest()
    return digests


def test_traces_are_identical_across_hash_seeds():
    """Each process regenerates traces instead of sharing a trace file, so
    generation must not depend on string hashing."""
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=str(REPO_ROOT / "src"), REPRO_DISK_CACHE="0")
    child = subprocess.run(
        [sys.executable, "-c",
         "import json\n"
         "from tests.harness.test_diskcache import trace_digests\n"
         "print(json.dumps(trace_digests()))"],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT, timeout=300,
        check=True,
    )
    assert json.loads(child.stdout) == trace_digests()
