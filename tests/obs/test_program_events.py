"""Event-bus smoke over frontend-ingested corpus programs.

The lifecycle taxonomy was grown against the Table 3 kernels; ``PROG:*``
benchmarks arrive through a different front door (``repro.lang`` text IR
-> passes -> ISA lowering -> content-hash registration).  This smoke test
pins that the bus wiring, window terminal records, and fate conservation
hold on that path too — a frontend regression that stops emitting (or
double-emits) lifecycle events fails here.
"""

import pathlib
from collections import Counter

import pytest

from repro.harness.runner import program_simulation_report
from repro.obs import MemorySink, TRACE_FATES

CORPUS = pathlib.Path(__file__).resolve().parents[2] / "corpus"

#: One branchy and one straight-line-loop program — cheap but they cover
#: both window close flavors (branch_limit and length_cap).
PROGRAMS = ("bfs_frontier.spam", "sum_loop.spam")


@pytest.mark.parametrize("name", PROGRAMS)
def test_corpus_program_emits_conserved_decisions(name):
    sink = MemorySink()
    report = program_simulation_report(
        str(CORPUS / name), sink=sink, decisions=True,
    )
    assert report["program"]["abbrev"].startswith("PROG:")

    # The user sink rode the tee next to the decision fold: both saw the
    # same stream.
    counts = Counter(event.type for event in sink)
    assert counts["tcache.window"] > 0
    assert counts["tcache.detect"] > 0

    block = report["decisions"]
    fates = block["trace_fates"]
    assert fates["conserved"]
    assert fates["identities"] > 0
    assert counts["tcache.window"] == block["windows"]["total"]
    assert set(fates["counts"]) == set(TRACE_FATES)
    assert block["attribution"]["attributed_fraction"] >= 0.95
