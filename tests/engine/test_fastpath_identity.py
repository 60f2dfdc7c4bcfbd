"""Bit-identity of the compiled fast path against the interpreted model.

The compiled fast path (``repro.ooo.fastpath`` + ``repro.fabric.compiled``
+ the offload engine's occurrence check) is an *implementation* choice,
never a modeling choice: every cycle count, statistic, report byte, and traced
event sequence must be exactly what the interpreted reference model
produces.  These tests sweep the full kernel suite across execution
modes, and across the DynaSpAM knobs that change how traces are cut,
mapped and placed, under both engine settings and demand byte equality,
not closeness, of the serialized results — with nothing removed from
stats and nothing filtered from event streams.

Tier against tier cannot catch a regression in the framework code both
tiers share, so the same runs are also checked against committed
sha256 digests in ``golden_runs.json``.  Regenerate that file only for
an intended change of results::

    PYTHONPATH=src python -m tests.engine.test_fastpath_identity
"""

import functools
import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

import repro.core.offload as offload_module
import repro.fabric.fabric as fabric_module
from repro.core import DynaSpAM, DynaSpAMConfig
from repro.core.mapper import ResourceAwareMapper
from repro.core.offload import OffloadEngine
from repro.engine import fastpath_enabled, set_fastpath, use_fastpath
from repro.fabric.fabric import SpatialFabric
from repro.isa.builder import ProgramBuilder
from repro.isa.executor import FunctionalExecutor
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

GOLDEN_PATH = Path(__file__).with_name("golden_runs.json")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _variant_name(mode: str, speculation: bool) -> str:
    return f"{mode}/{'spec' if speculation else 'nospec'}"


@functools.lru_cache(maxsize=None)
def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def _run_cell(abbrev: str, fast: bool, scale: float = SCALE,
              **knobs) -> str:
    """One simulation with the engine forced, serialized canonically;
    ``knobs`` are ``DynaSpAMConfig`` fields.

    Machines are constructed directly — not through the harness run
    caches — so both engine settings genuinely simulate.
    """
    tr = generate_trace(abbrev, scale)
    with use_fastpath(fast):
        if knobs.get("mode") == "baseline":
            result = make_pipeline().run_trace(tr.trace)
        else:
            machine = DynaSpAM(ds_config=DynaSpAMConfig(**knobs))
            result = machine.run(tr.trace, tr.program)
    return json.dumps(
        {"cycles": result.cycles, "stats": result.stats.as_dict()},
        sort_keys=True,
    )


@pytest.mark.parametrize("abbrev", ALL_ABBREVS)
def test_engine_bit_identity(abbrev):
    golden = _golden()["runs"][abbrev]
    for mode, speculation in VARIANTS:
        knobs = {"mode": mode, "speculation": speculation}
        interpreted = _run_cell(abbrev, False, **knobs)
        fast = _run_cell(abbrev, True, **knobs)
        assert fast == interpreted, (
            f"{abbrev} {mode} spec={speculation}: engines diverge"
        )
        assert _digest(fast) == golden[_variant_name(mode, speculation)], (
            f"{abbrev} {mode} spec={speculation}: differs from the golden run"
        )


#: DynaSpAM knob sets the sweep above leaves at their defaults, each
#: changing how traces are cut, mapped or placed on fabrics.
KNOBS = (
    {"mapper": "naive"},
    {"smart_trace_selection": True},
    {"smart_trace_selection": True, "speculation": False},
    {"num_fabrics": 4},
    {"trace_length": 16},
    {"trace_length": 40},
)
KNOB_SCALE = 0.1


@pytest.mark.parametrize("abbrev", ALL_ABBREVS)
def test_knob_tier_identity(abbrev):
    for knobs in KNOBS:
        assert (_run_cell(abbrev, False, KNOB_SCALE, **knobs)
                == _run_cell(abbrev, True, KNOB_SCALE, **knobs)), (
            f"{abbrev} {knobs}: engines diverge")


def test_simulation_report_bit_identity(tmp_path, monkeypatch):
    """The full ``repro run --json`` report is byte-identical across the
    two engine settings.

    Each setting gets its own disk-cache root, so neither can serve the
    other's simulation back.
    """
    from repro.harness import diskcache
    from repro.harness.runner import simulation_report

    reports = {}
    for fast in (False, True):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / f"f{int(fast)}"))
        diskcache.configure()  # drop memoized cache objects, re-read env
        with use_fastpath(fast):
            reports[fast] = json.dumps(
                simulation_report("NW", SCALE), sort_keys=True
            )
    diskcache.configure()
    assert reports[True] == reports[False]


def _event_stream(fast: bool):
    from repro.obs import MemorySink

    tr = generate_trace("KM", SCALE)
    sink = MemorySink()
    with use_fastpath(fast):
        machine = DynaSpAM(
            ds_config=DynaSpAMConfig(mode="accelerate"), sink=sink
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
    assert (_digest(json.dumps(streams[True]))
            == _golden()["km_event_stream"]), "differs from the golden stream"


def test_flipped_branch_occurrence_rejected_by_fast_segment():
    """The fast tier's occurrence check takes a key-matched occurrence as
    a slice of the trace, and rejects one whose embedded branch flipped
    or that the trace cuts short: those have another key or none, and
    must take the full walk, which detects the squash.  The reference
    tier always walks."""
    b = ProgramBuilder("probe")
    b.li("r1", 3)
    b.label("loop")
    b.addi("r1", "r1", -1)
    b.add("r2", "r2", "r1")
    b.bne("r1", "r0", "loop")
    b.halt()
    # li, then three iterations: the third one's bne falls through.
    trace = FunctionalExecutor().run(b.build()).trace
    segment = trace[1:4]
    configuration = ResourceAwareMapper().map_trace(
        segment, (segment[0].pc, (True,), 3))
    assert configuration is not None
    with use_fastpath(True):
        engine = OffloadEngine(pipeline=make_pipeline())
    assert engine.occurrence(trace, 1, configuration) == segment
    assert engine.occurrence(trace, 4, configuration) == trace[4:7]
    assert (trace[9].pc, trace[9].taken) == (segment[2].pc, False)
    assert engine.occurrence(trace, 7, configuration) is None
    assert engine.occurrence(trace[:6], 4, configuration) is None
    with use_fastpath(False):
        reference = OffloadEngine(pipeline=make_pipeline())
    assert reference.occurrence(trace, 1, configuration) is None


def _spy(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def spy(self, *args, **kwargs):
        calls[name] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, spy)


def test_engine_captured_at_construction(monkeypatch):
    """A machine keeps the tier it was built on: flipping the switch
    before it runs changes nothing, down to the fabric timing walk and
    the offload bookkeeping."""
    tr = generate_trace("KM", SCALE)
    with use_fastpath(True):
        machine = DynaSpAM(ds_config=DynaSpAMConfig(mode="accelerate"))
    calls = Counter()
    _spy(monkeypatch, SpatialFabric, "walk", calls)
    _spy(monkeypatch, OffloadEngine, "_offload_plan", calls)
    with use_fastpath(False):
        result = machine.run(tr.trace, tr.program)
    assert result.stats.fabric_invocations > 0
    assert calls["_offload_plan"] >= result.stats.fabric_invocations
    assert calls["walk"] == calls["_offload_plan"]


def test_fast_offload_builds_no_invocation_records(monkeypatch):
    """The fast tier times an invocation from plain values: an
    accelerate run of KM never builds the reference walk's context,
    result or memory events (the same patches stop the reference)."""
    def refuse(*args, **kwargs):
        raise AssertionError("built an invocation record")

    for name in ("InvocationContext", "InvocationResult", "MemEvent"):
        monkeypatch.setattr(fabric_module, name, refuse)
    monkeypatch.setattr(offload_module, "InvocationContext", refuse)
    tr = generate_trace("KM", SCALE)
    with use_fastpath(True):
        machine = DynaSpAM(ds_config=DynaSpAMConfig(mode="accelerate"))
    assert machine.run(tr.trace, tr.program).stats.fabric_invocations > 0
    with use_fastpath(False):
        reference = DynaSpAM(ds_config=DynaSpAMConfig(mode="accelerate"))
    with pytest.raises(AssertionError, match="invocation record"):
        reference.run(tr.trace, tr.program)


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
    """Issue slots, FU occupancy, and store indexes must not grow with
    trace length — the in-place pruning contract of the fast path."""
    tr = generate_trace("KM", 0.3)
    with use_fastpath(True):
        pipeline = make_pipeline()
        assert isinstance(pipeline, FastOOOPipeline)
        result = pipeline.run_trace(tr.trace)
    instructions = result.stats.instructions
    bound = 3 * OOOPipeline.PRUNE_INTERVAL
    assert instructions > bound, "trace too short to exercise pruning"
    assert len(pipeline._issue_counts) < bound
    for pool_busy in pipeline.fus._busy.values():
        assert len(pool_busy) < bound
    entries = pipeline.sq.entries
    assert len(pipeline.sq._window) <= entries
    assert len(pipeline.sq._by_addr) <= entries
    assert len(pipeline._store_by_seq) <= 2 * entries + 1


def _make_golden() -> dict:
    """Digests of every golden run, from both tiers (which must agree)."""
    runs = {}
    for abbrev in ALL_ABBREVS:
        runs[abbrev] = {}
        for mode, speculation in VARIANTS:
            cells = {_run_cell(abbrev, fast, mode=mode,
                               speculation=speculation)
                     for fast in (False, True)}
            assert len(cells) == 1, f"{abbrev} {mode}: engines diverge"
            runs[abbrev][_variant_name(mode, speculation)] = _digest(
                cells.pop())
    streams = [json.dumps(_event_stream(fast)) for fast in (False, True)]
    assert streams[0] == streams[1], "traced event streams diverge"
    return {"scale": SCALE, "runs": runs,
            "km_event_stream": _digest(streams[0])}


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(_make_golden(), indent=1) + "\n")
