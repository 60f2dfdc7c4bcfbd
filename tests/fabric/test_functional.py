"""Functional fabric execution: mapped traces compute correct values.

The strongest correctness property in the repository: for every hot trace
of every benchmark, evaluating the resource-aware mapper's configuration
as a dataflow over *values* reproduces the oracle's live-out registers,
store values, and branch results exactly.
"""

import pytest

from repro.core.mapper import ResourceAwareMapper
from repro.core.naive_mapper import NaiveMapper
from repro.core.tcache import TraceWindowBuilder
from repro.fabric.functional import (
    CoSimulator,
    FabricExecutionError,
    FunctionalFabric,
)
from repro.isa.builder import ProgramBuilder
from repro.isa.executor import FunctionalExecutor, Memory
from repro.isa.opcodes import Opcode
from repro.workloads import ALL_ABBREVS, get_benchmark

SCALE = 0.12


def build_run(build, memory=None):
    b = ProgramBuilder("t")
    build(b)
    b.halt()
    program = b.build()
    memory = memory if memory is not None else Memory()
    result = FunctionalExecutor().run(program, memory)
    return program, result


def map_segment(segment):
    outcomes = tuple(bool(d.taken) for d in segment if d.is_branch)
    key = (segment[0].pc, outcomes, len(segment))
    return ResourceAwareMapper().map_trace(segment, key)


def test_simple_arith_values():
    def body(b):
        b.li("r1", 6)
        b.li("r2", 7)
        b.mul("r3", "r1", "r2")
        b.addi("r4", "r3", 1)

    program, run = build_run(body)
    segment = run.trace[:-1]
    config = map_segment(segment)
    fabric = FunctionalFabric()
    result = fabric.execute(config, {}, Memory(), segment)
    assert result.live_outs["r3"] == 42
    assert result.live_outs["r4"] == 43


@pytest.mark.parametrize("opcode, operand, expected", [
    (Opcode.REM, 0.5, 0),   # the divisor truncates to 0: remainder 0
    (Opcode.AND, 2.5, 2),   # bitwise ops truncate their second operand
    (Opcode.OR, 2.5, 7),
    (Opcode.XOR, 2.5, 5),
    (Opcode.ADD, 0.5, 7),   # an integer register holds int(7.5)
])
def test_fabric_shares_the_executor_value_semantics(opcode, operand,
                                                    expected):
    """An integer op on a float operand computes on the fabric what the
    executor computes on the host, down to the destination's type."""
    def body(b):
        b.li("r1", 7)
        b.fli("f1", operand)
        b.raw(opcode, "r2", ("r1", "f1"))

    program, run = build_run(body)
    segment = run.trace[:-1]
    result = FunctionalFabric().execute(
        map_segment(segment), {}, Memory(), segment
    )
    assert run.registers.read("r2") == expected
    assert result.live_outs["r2"] == expected


def test_live_in_values_flow_through():
    def body(b):
        b.fadd("f3", "f1", "f2")
        b.fmul("f4", "f3", "f1")

    program, run = build_run(body)
    segment = run.trace[:-1]
    config = map_segment(segment)
    result = FunctionalFabric().execute(
        config, {"f1": 2.0, "f2": 3.0}, Memory(), segment
    )
    assert result.live_outs["f3"] == 5.0
    assert result.live_outs["f4"] == 10.0


def test_missing_live_in_raises():
    def body(b):
        b.add("r3", "r1", "r2")

    program, run = build_run(body)
    segment = run.trace[:-1]
    config = map_segment(segment)
    with pytest.raises(FabricExecutionError, match="live-in"):
        FunctionalFabric().execute(config, {"r1": 1}, Memory(), segment)


def test_store_buffer_forwards_to_later_load():
    mem = Memory()

    def body(b):
        b.li("r1", 0x100)
        b.li("r2", 99)
        b.sw("r1", "r2", 0)
        b.lw("r3", "r1", 0)

    program, run = build_run(body, mem)
    segment = run.trace[:-1]
    config = map_segment(segment)
    scratch = Memory()  # the store has not reached memory yet
    result = FunctionalFabric().execute(config, {}, scratch, segment)
    assert result.live_outs["r3"] == 99
    assert scratch.load(0x100) == 99  # committed at the end


def test_commit_false_leaves_memory_untouched():
    def body(b):
        b.li("r1", 0x40)
        b.li("r2", 5)
        b.sw("r1", "r2", 0)

    program, run = build_run(body, Memory())
    segment = run.trace[:-1]
    config = map_segment(segment)
    scratch = Memory()
    result = FunctionalFabric().execute(config, {}, scratch, segment,
                                        commit=False)
    assert result.stores == [(0x40, 5)]
    assert scratch.load(0x40) == 0


def test_branch_results_recorded():
    def body(b):
        b.li("r1", 3)
        b.label("loop")
        b.addi("r1", "r1", -1)
        b.bne("r1", "r0", "loop")

    program, run = build_run(body)
    segment = run.trace[:5]  # li + two iterations (taken, taken)
    config = map_segment(segment)
    result = FunctionalFabric().execute(config, {}, Memory(), segment)
    assert result.branch_results == [True, True]


def cosimulate(abbrev, scale, trace, mapper_cls=ResourceAwareMapper):
    """Map every distinct hot window of ``abbrev``'s ``trace`` at ``scale``
    and co-simulate the whole trace against a fresh memory image."""
    builder = TraceWindowBuilder(max_length=32)
    mapper = mapper_cls()
    configs = {}
    occurrences = {}
    for index, dyn in enumerate(trace):
        window = builder.feed(dyn)
        if window is None:
            continue
        key = window.key
        if key not in configs:
            configs[key] = mapper.map_trace(window.instructions, key)
        if configs[key] is not None:
            # The window closed at ``index``; it starts that many back.
            start = index + 1 - window.length
            occurrences[start] = (window.instructions, configs[key])

    program, memory = get_benchmark(abbrev).build(scale)
    cosim = CoSimulator(program, memory)
    verified = cosim.run(trace, occurrences)
    return verified, cosim


def cosim_benchmark(abbrev, mapper_cls=ResourceAwareMapper):
    """Map every distinct hot window and co-simulate the whole trace."""
    program, memory = get_benchmark(abbrev).build(SCALE)
    run = FunctionalExecutor(max_instructions=20_000_000).run(
        program, memory
    )
    return cosimulate(abbrev, SCALE, run.trace, mapper_cls)


@pytest.mark.parametrize("abbrev", sorted(ALL_ABBREVS))
def test_every_benchmark_mapping_computes_correct_values(abbrev):
    verified, cosim = cosim_benchmark(abbrev)
    assert verified > 10, f"{abbrev}: too few invocations verified"
    assert cosim.mismatches == []


@pytest.mark.parametrize("abbrev", ["KM", "NW", "BFS"])
def test_naive_mapper_also_computes_correct_values(abbrev):
    verified, cosim = cosim_benchmark(abbrev, mapper_cls=NaiveMapper)
    assert verified > 5
    assert cosim.mismatches == []
