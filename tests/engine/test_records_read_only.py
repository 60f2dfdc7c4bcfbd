"""Shared trace records are read-only.

``FunctionalExecutor.run`` interns its records: one object per static
instruction, branch outcome and effective address, appended at every
trace position where that instruction executes the same way.  A consumer
that wrote to a record would change every position sharing it.  This test
snapshots every slot of every record of three kernels' traces, runs every
consumer of a trace over them, and demands that no slot changed and that
each position still holds its record.  It lives in ``tests/engine``, so
CI runs it under both engine tiers.
"""

import pytest

from repro.core import DynaSpAM, DynaSpAMConfig
from repro.isa.executor import FunctionalExecutor
from repro.isa.instructions import DynamicInstruction
from repro.obs.decisions import DecisionSink
from repro.ooo.fastpath import make_pipeline
from repro.workloads import get_benchmark
from tests.fabric.test_functional import cosimulate

SCALE = 0.05

#: ``DynaSpAMConfig`` variants: every mode with and without speculation,
#: then smart trace selection, the naive mapper and two fabrics.
CONFIGS = tuple(
    {"mode": mode, "speculation": speculation}
    for mode in ("baseline", "mapping_only", "accelerate")
    for speculation in (True, False)
) + (
    {"smart_trace_selection": True},
    {"mapper": "naive"},
    {"num_fabrics": 2},
)


def _snapshot(trace):
    """Each position's record and every slot of it, with value types
    (``static`` by identity)."""
    return [
        (id(dyn), id(dyn.static))
        + tuple((type(value), value)
                for value in (getattr(dyn, name)
                              for name in DynamicInstruction.__slots__
                              if name != "static"))
        for dyn in trace
    ]


@pytest.mark.parametrize("abbrev", ["KM", "NW", "BFS"])
def test_consumers_leave_every_record_unchanged(abbrev):
    program, memory = get_benchmark(abbrev).build(SCALE)
    trace = FunctionalExecutor().run(program, memory).trace
    before = _snapshot(trace)
    assert len({id(dyn) for dyn in trace}) < len(trace)  # records are shared

    make_pipeline().run_trace(trace)
    invocations = 0
    for fields in CONFIGS:
        result = DynaSpAM(ds_config=DynaSpAMConfig(**fields)).run(
            trace, program)
        invocations += result.stats.fabric_invocations
    sink = DecisionSink()
    DynaSpAM(sink=sink).run(trace, program)
    assert sink.windows_total > 0 and sink.committed > 0
    verified, cosim = cosimulate(abbrev, SCALE, trace)
    assert verified > 0 and cosim.mismatches == []
    assert invocations > 0

    assert _snapshot(trace) == before
