"""The fast tier's per-configuration plan, built from the configuration
alone.

``compile_offload_plan`` reads an occurrence's length off the trace key,
its embedded branches off the placed branch ops zipped with the key's
outcomes, and its memory positions off the placed memory ops.  That is
exact only because the mapper places every instruction but jumps and
nops, each at its trace position, and maps only key-matched occurrences.
No kernel puts a jump or a nop inside an offloaded trace, and a plan that
reads the key's outcomes in reverse passes the kernel identity sweep, so
these tests run a loop whose hot traces hold a jump, a nop and mixed,
non-palindromic outcomes, check every offloaded occurrence against its
plan, and hold the two tiers equal on it.
"""

import json

import pytest

from repro.core import DynaSpAM, DynaSpAMConfig
from repro.core.offload import OffloadEngine
from repro.engine import use_fastpath
from repro.fabric.compiled import compile_offload_plan
from repro.isa.builder import ProgramBuilder
from repro.isa.executor import FunctionalExecutor
from repro.workloads import generate_trace


def _jump_nop_loop():
    """400 iterations of a body whose ``beq`` alternates: the odd path
    takes a ``jmp``, the even one a ``nop``."""
    b = ProgramBuilder("jump_nop_loop")
    b.li("r1", 400)
    b.li("r9", 0x100)
    b.label("loop")
    b.andi("r3", "r1", 1)
    b.beq("r3", "r0", "even")
    b.addi("r4", "r4", 1)
    b.jmp("join")
    b.label("even")
    b.nop()
    b.addi("r4", "r4", 2)
    b.label("join")
    b.sw("r9", "r4", 0)
    b.lw("r5", "r9", 0)
    b.addi("r1", "r1", -1)
    b.bne("r1", "r0", "loop")
    b.halt()
    program = b.build()
    return FunctionalExecutor().run(program).trace, program


LOOP_TRACE, LOOP_PROGRAM = _jump_nop_loop()


def _run(trace, program, fast, **knobs):
    with use_fastpath(fast):
        machine = DynaSpAM(ds_config=DynaSpAMConfig(**knobs))
        result = machine.run(trace, program)
    return machine, result


def test_jump_nop_loop_tiers_identical():
    """Tier identity on traces whose key length exceeds their placements
    and whose outcomes are mixed and not palindromic: a plan that counted
    placements for the length, or reversed the outcomes, diverges here."""
    cells = {}
    for fast in (False, True):
        machine, result = _run(LOOP_TRACE, LOOP_PROGRAM, fast,
                               trace_length=16)
        cells[fast] = json.dumps(
            {"cycles": result.cycles, "stats": result.stats.as_dict()},
            sort_keys=True)
    assert result.stats.fabric_invocations == 60
    assert result.stats.fabric_squashes == 1
    offloaded = [entry.configuration
                 for entry in machine.ccache._store.values()
                 if entry.offload_count]
    assert any(len(c.placements) < c.trace_key[2] for c in offloaded)
    assert any(c.trace_key[1] != c.trace_key[1][::-1] for c in offloaded)
    assert cells[True] == cells[False]


#: Runs whose every offloaded occurrence is checked against its plan:
#: the loop above, and kernels across the knobs that change how traces
#: are cut, mapped and placed on fabrics.
PLAN_CELLS = (
    pytest.param("loop", {"trace_length": 16}, id="loop"),
    pytest.param("loop", {"trace_length": 16, "mapper": "naive",
                          "smart_trace_selection": True},
                 id="loop-naive-smart"),
    pytest.param("KM", {}, id="KM"),
    pytest.param("NW", {}, id="NW"),
    pytest.param("BFS", {"num_fabrics": 4}, id="BFS-fabrics4"),
    pytest.param("KM", {"mapper": "naive"}, id="KM-naive"),
    pytest.param("NW", {"smart_trace_selection": True}, id="NW-smart"),
)


@pytest.mark.parametrize("name,knobs", PLAN_CELLS)
def test_plan_matches_every_offloaded_occurrence(monkeypatch, name, knobs):
    """The plan's length, branches and memory positions are what each
    occurrence the fast tier offloads shows."""
    seen = []
    offload = OffloadEngine.offload

    def spy(self, fabric, configuration, segment, fabric_ready):
        outcome = offload(self, fabric, configuration, segment, fabric_ready)
        if outcome.success:
            seen.append((configuration, segment))
        return outcome

    monkeypatch.setattr(OffloadEngine, "offload", spy)
    if name == "loop":
        trace, program = LOOP_TRACE, LOOP_PROGRAM
    else:
        tr = generate_trace(name, 0.1)
        trace, program = tr.trace, tr.program
    _run(trace, program, True, **knobs)
    assert seen
    for configuration, segment in seen:
        plan = compile_offload_plan(configuration)
        assert plan.length == len(segment)
        assert plan.branches == tuple(
            (pos, dyn.pc, bool(dyn.taken))
            for pos, dyn in enumerate(segment) if dyn.is_branch)
        assert plan.mem_positions == tuple(
            pos for pos, dyn in enumerate(segment) if dyn.is_memory)


def test_configuration_accepts_no_attribute_outside_its_fields():
    """Whatever an engine derives from a configuration lives in that
    engine: after a fast-tier run, no configuration it offloaded carries
    anything but its fields, nor accepts anything more."""
    machine, result = _run(LOOP_TRACE, LOOP_PROGRAM, True, trace_length=16)
    assert result.stats.fabric_invocations
    configurations = [entry.configuration
                      for entry in machine.ccache._store.values()
                      if entry.offload_count]
    assert configurations
    for configuration in configurations:
        assert not hasattr(configuration, "__dict__")
        with pytest.raises(AttributeError):
            configuration.plan = None
