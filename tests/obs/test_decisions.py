"""Decision records: fold units, fate conservation, lost-cycles attribution.

The tentpole contract (ISSUE 8): every trace-window candidate produces
exactly one terminal ``tcache.window`` record, every trace identity lands
in exactly one :data:`~repro.obs.decisions.TRACE_FATES` fate, and the
``repro why`` join attributes >= 95% of non-host cycles to named decision
records.  The sweep below checks conservation on the whole suite across
the three simulation modes, so a new lifecycle path that leaks identities
out of the fate lattice fails here, not in a downstream dashboard.
"""

import pytest

from repro.core.mapper import MAP_FAIL_REASONS, MappingFailure
from repro.core.tcache import WINDOW_CLOSE_REASONS
from repro.harness.runner import simulation_report
from repro.obs import DecisionSink, TRACE_FATES, decisions_from_events
from repro.obs.events import Event
from repro.workloads import ALL_ABBREVS

SCALE = 0.05

KEY_A = (0x40, (True,), 32)
KEY_B = (0x80, (), 16)


def _events(*specs):
    """Build a synthetic stream: each spec is ``(type, data)``."""
    return [
        Event(seq, etype, seq, data) for seq, (etype, data) in enumerate(specs)
    ]


# ---------------------------------------------------------------------------
# Fold units
# ---------------------------------------------------------------------------
def test_window_records_fold_by_reason_and_identity():
    sink = decisions_from_events(_events(
        ("tcache.window", {"key": KEY_A, "reason": "branch_limit",
                           "hot": False}),
        ("tcache.window", {"key": KEY_A, "reason": "branch_limit",
                           "hot": True}),
        ("tcache.window", {"key": KEY_B, "reason": "length_cap",
                           "hot": False}),
    ))
    block = sink.as_dict()
    assert block["windows"]["total"] == 3
    assert block["windows"]["by_reason"] == {
        "branch_limit": 2, "length_cap": 1,
    }
    assert block["trace_fates"]["identities"] == 2
    # KEY_A went hot on its second window; KEY_B never did.
    assert sink.trace_fates() == {
        KEY_A: "hot_never_mapped", KEY_B: "never_hot",
    }


def test_fate_precedence_is_exclusive():
    """One identity walking the whole lifecycle gets the topmost fate."""
    sink = decisions_from_events(_events(
        ("tcache.window", {"key": KEY_A, "reason": "smart_close",
                           "hot": True}),
        ("map.start", {"key": KEY_A}),
        ("map.done", {"key": KEY_A}),
        ("ccache.ready", {"key": KEY_A}),
        ("offload.commit", {"key": KEY_A}),
        ("offload.squash", {"key": KEY_A, "cause": "branch",
                            "branch_pc": 0x50}),
    ))
    assert sink.trace_fates() == {KEY_A: "offloaded"}
    counts = sink.fate_counts()
    assert sum(counts.values()) == 1
    assert set(counts) == set(TRACE_FATES)


@pytest.mark.parametrize("events, fate", [
    ([("tcache.window", {"key": KEY_A, "reason": "length_cap",
                         "hot": False})], "never_hot"),
    ([("tcache.hot", {"key": KEY_A})], "hot_never_mapped"),
    ([("tcache.hot", {"key": KEY_A}),
      ("map.abort", {"key": KEY_A, "actual": KEY_B})], "map_aborted"),
    ([("map.start", {"key": KEY_A}),
      ("map.fail", {"key": KEY_A, "reason": "out_of_stripes"})],
     "unmappable"),
    ([("map.start", {"key": KEY_A}), ("map.done", {"key": KEY_A})],
     "mapped_never_ready"),
    ([("map.done", {"key": KEY_A}), ("ccache.ready", {"key": KEY_A})],
     "ready_never_offloaded"),
    ([("ccache.ready", {"key": KEY_A}),
      ("offload.commit", {"key": KEY_A})], "offloaded"),
])
def test_single_identity_fates(events, fate):
    sink = decisions_from_events(_events(*events))
    assert sink.trace_fates() == {KEY_A: fate}


def test_squash_offender_tallies():
    sink = decisions_from_events(_events(
        ("offload.squash", {"key": KEY_A, "cause": "branch",
                            "branch_pc": 0x50}),
        ("offload.squash", {"key": KEY_A, "cause": "branch",
                            "branch_pc": 0x50}),
        ("offload.squash", {"key": KEY_A, "cause": "memory",
                            "load_pc": 0x60, "store_pc": 0x64}),
        ("offload.defer", {"key": KEY_A}),
    ))
    block = sink.as_dict()
    inv = block["invocations"]
    assert inv["squashed_branch"] == 2
    assert inv["squashed_memory"] == 1
    assert inv["deferred"] == 1
    assert inv["squash_branch_pcs"] == [{"pc": "0x50", "count": 2}]
    assert inv["squash_memory_pairs"] == [
        {"load_pc": "0x60", "store_pc": "0x64", "count": 1}
    ]
    # Host-engine work is not a decision: the block carries modeled
    # outcomes only, identical under either engine tier.
    assert set(block) == {"windows", "trace_fates", "mapping", "invocations"}


def test_unknown_event_types_are_ignored():
    sink = DecisionSink()
    sink.emit(Event(0, "pipeline.phase", 0, {"phase": "host"}))
    assert sink.as_dict()["trace_fates"]["identities"] == 0


# ---------------------------------------------------------------------------
# Closed vocabularies
# ---------------------------------------------------------------------------
def test_mapping_failure_reason_must_be_registered():
    exc = MappingFailure("deadlock", "deadlock: no instruction is ready")
    assert exc.reason == "deadlock"
    assert str(exc) == "deadlock: no instruction is ready"
    with pytest.raises(ValueError, match="unregistered"):
        MappingFailure("ran_out_of_luck", "free-text reasons are banned")


def test_mapping_failure_detail_defaults_to_reason():
    exc = MappingFailure("deadlock")
    assert str(exc) == "deadlock"


# ---------------------------------------------------------------------------
# Whole-suite conservation sweep
# ---------------------------------------------------------------------------
MODES = [
    ("mapping_only", True),
    ("accelerate", True),
    ("accelerate", False),
]


@pytest.mark.parametrize("mode, speculation", MODES)
def test_fate_conservation_across_the_suite(mode, speculation):
    for abbrev in ALL_ABBREVS:
        report = simulation_report(
            abbrev, SCALE, mode=mode, speculation=speculation,
            decisions=True,
        )
        block = report["decisions"]
        fates = block["trace_fates"]
        label = f"{abbrev} {mode} spec={speculation}"
        assert fates["conserved"], label
        assert sum(fates["counts"].values()) == fates["identities"], label
        assert set(fates["counts"]) == set(TRACE_FATES), label
        for reason in block["windows"]["by_reason"]:
            assert reason in WINDOW_CLOSE_REASONS, label
        for reason in fates["unmappable_reasons"]:
            assert reason in MAP_FAIL_REASONS, label
        # Every identity saw at least one closed window or a direct
        # lifecycle event; window totals cover all identity windows.
        assert block["windows"]["total"] >= fates["identities"], label


def test_attribution_covers_non_host_cycles_when_accelerating():
    """The headline ``repro why`` gate: >= 95% of non-host cycles joined
    to at least one named decision record (cycle-weighted)."""
    for abbrev in ALL_ABBREVS:
        report = simulation_report(abbrev, SCALE, decisions=True)
        attribution = report["decisions"]["attribution"]
        assert attribution["attributed_fraction"] >= 0.95, (
            f"{abbrev}: {attribution}"
        )


def test_decisions_block_is_strictly_additive():
    """Same report with and without decisions — the block is the only
    difference (the bit-identity contract for the opt-in path)."""
    plain = simulation_report("KM", SCALE)
    with_decisions = dict(simulation_report("KM", SCALE, decisions=True))
    block = with_decisions.pop("decisions")
    assert with_decisions == plain
    assert block["trace_fates"]["conserved"]
