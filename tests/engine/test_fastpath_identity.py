"""Bit-identity of the compiled fast path against the interpreted model.

The compiled fast path (``repro.ooo.fastpath`` + ``repro.fabric.compiled``
+ DynaSpAM's occurrence probe) is an *implementation* choice, never a
modeling choice: every cycle count, statistic, report byte, and traced
event sequence must be exactly what the interpreted reference model
produces.  These tests sweep the full kernel suite across execution
modes under both engine settings and demand byte equality, not
closeness, of the serialized results — with nothing removed from stats
and nothing filtered from event streams.
"""

import json
from types import SimpleNamespace

import pytest

from repro.core import DynaSpAM, DynaSpAMConfig
from repro.engine import fastpath_enabled, set_fastpath, use_fastpath
from repro.ooo.fastpath import FastOOOPipeline, make_pipeline
from repro.ooo.pipeline import OOOPipeline
from repro.workloads import ALL_ABBREVS, generate_trace

SCALE = 0.04

#: (mode, speculation) variants covering every engine code path: the
#: plain host pipeline, fabric execution, speculation off (conservative
#: memory context), and the mapping-only ablation.
VARIANTS = (
    ("baseline", True),
    ("accelerate", True),
    ("accelerate", False),
    ("mapping_only", True),
)


def _run_cell(abbrev: str, mode: str, speculation: bool, fast: bool) -> str:
    """One simulation with the engine forced, serialized canonically.

    Machines are constructed directly — not through the harness run
    caches — so both engine settings genuinely simulate.
    """
    tr = generate_trace(abbrev, SCALE)
    with use_fastpath(fast):
        if mode == "baseline":
            result = make_pipeline().run_trace(tr.trace)
        else:
            machine = DynaSpAM(
                ds_config=DynaSpAMConfig(mode=mode, speculation=speculation)
            )
            result = machine.run(tr.trace, tr.program)
    return json.dumps(
        {"cycles": result.cycles, "stats": result.stats.as_dict()},
        sort_keys=True,
    )


@pytest.mark.parametrize("abbrev", ALL_ABBREVS)
def test_engine_bit_identity(abbrev):
    for mode, speculation in VARIANTS:
        interpreted = _run_cell(abbrev, mode, speculation, fast=False)
        fast = _run_cell(abbrev, mode, speculation, fast=True)
        assert fast == interpreted, (
            f"{abbrev} {mode} spec={speculation}: engines diverge"
        )


def test_simulation_report_bit_identity(tmp_path, monkeypatch):
    """The full ``repro run --json`` report is byte-identical across the
    two engine settings.

    Each setting gets its own disk-cache root and a cleared in-memory
    layer, so neither can serve the other's simulation back.
    """
    from repro.harness import diskcache
    from repro.harness.runner import clear_run_cache, simulation_report

    reports = {}
    for fast in (False, True):
        clear_run_cache()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / f"f{int(fast)}"))
        diskcache.configure()  # drop memoized cache objects, re-read env
        with use_fastpath(fast):
            reports[fast] = json.dumps(
                simulation_report("NW", SCALE), sort_keys=True
            )
    clear_run_cache()
    diskcache.configure()
    assert reports[True] == reports[False]


def _event_stream(fast: bool, predict_memo: bool = True):
    from repro.obs import MemorySink

    tr = generate_trace("KM", SCALE)
    sink = MemorySink()
    with use_fastpath(fast):
        machine = DynaSpAM(
            ds_config=DynaSpAMConfig(
                mode="accelerate", predict_memo=predict_memo
            ),
            sink=sink,
        )
        machine.run(tr.trace, tr.program)
    return [
        (e.seq, e.type, e.cycle, tuple(sorted(e.data.items())))
        for e in sink.events
    ]


def test_traced_event_streams_identical():
    """Tracing sees the same event sequence from both engine settings —
    exactly, ``seq`` numbering included."""
    streams = {fast: _event_stream(fast) for fast in (True, False)}
    assert streams[True], "traced run produced no events"
    assert streams[True] == streams[False]


def test_traced_event_streams_identical_across_memo():
    """The predicted-trace-key memo (``DynaSpAMConfig.predict_memo``) is
    an implementation choice too: tracing sees the same event sequence
    with it on or off, ``seq`` numbering included and nothing filtered."""
    streams = {
        memo: _event_stream(fast=True, predict_memo=memo)
        for memo in (True, False)
    }
    assert streams[True], "traced run produced no events"
    assert streams[True] == streams[False]


def test_flipped_branch_occurrence_rejected_by_fast_segment():
    """The occurrence probe must reject an occurrence whose embedded
    branch flipped — that occurrence has a different trace key and must
    take the general walk (which detects the squash).  The interpreted
    reference never takes the probe."""
    configuration = SimpleNamespace(
        _occurrence_probe=(3, ((1, 0x44, True),))
    )
    matching = [
        SimpleNamespace(pc=0x40, taken=None),
        SimpleNamespace(pc=0x44, taken=True),
        SimpleNamespace(pc=0x48, taken=None),
    ]
    flipped = [
        SimpleNamespace(pc=0x40, taken=None),
        SimpleNamespace(pc=0x44, taken=False),
        SimpleNamespace(pc=0x48, taken=None),
    ]
    truncated = matching[:2]
    with use_fastpath(True):
        machine = DynaSpAM(ds_config=DynaSpAMConfig(mode="accelerate"))
    assert machine._segment_fast(matching, 0, configuration) == matching
    assert machine._segment_fast(flipped, 0, configuration) is None
    assert machine._segment_fast(truncated, 0, configuration) is None
    with use_fastpath(False):
        reference = DynaSpAM(ds_config=DynaSpAMConfig(mode="accelerate"))
    assert reference._segment_fast(matching, 0, configuration) is None


def test_engine_flag_roundtrip(monkeypatch):
    previous = set_fastpath(True)
    try:
        assert fastpath_enabled()
        with use_fastpath(False):
            assert not fastpath_enabled()
            with use_fastpath(True):
                assert fastpath_enabled()
            assert not fastpath_enabled()
        assert fastpath_enabled()
        assert isinstance(make_pipeline(), FastOOOPipeline)
        set_fastpath(False)
        pipeline = make_pipeline()
        assert type(pipeline) is OOOPipeline
    finally:
        set_fastpath(previous)


def test_hot_structures_stay_bounded():
    """Slot windows, FU occupancy, and store indexes must not grow with
    trace length — the in-place pruning contract of the fast path."""
    tr = generate_trace("KM", 0.3)
    with use_fastpath(True):
        pipeline = make_pipeline()
        assert isinstance(pipeline, FastOOOPipeline)
        result = pipeline.run_trace(tr.trace)
    instructions = result.stats.instructions
    bound = 3 * OOOPipeline.PRUNE_INTERVAL
    assert instructions > bound, "trace too short to exercise pruning"
    assert len(pipeline._fetch_counts) < bound
    assert len(pipeline._issue_counts) < bound
    assert len(pipeline._commit_counts) < bound
    for pool_busy in pipeline.fus._busy.values():
        assert len(pool_busy) < bound
    entries = pipeline.sq.entries
    assert len(pipeline.sq._window) <= entries
    assert len(pipeline.sq._by_addr) <= entries
    assert len(pipeline._store_by_seq) <= 2 * entries + 1
