"""Unit tests for the functional executor and memory model."""

import pytest

from repro.isa.builder import ProgramBuilder
from repro.isa.executor import ExecutionLimitExceeded, FunctionalExecutor, Memory
from repro.isa.opcodes import Opcode


def run(build, memory=None, **kwargs):
    b = ProgramBuilder("t")
    build(b)
    b.halt()
    return FunctionalExecutor(**kwargs).run(b.build(), memory)


def test_arithmetic_semantics():
    def body(b):
        b.li("r1", 10)
        b.li("r2", 3)
        b.add("r3", "r1", "r2")
        b.sub("r4", "r1", "r2")
        b.mul("r5", "r1", "r2")
        b.div("r6", "r1", "r2")
        b.rem("r7", "r1", "r2")
        b.min_("r8", "r1", "r2")
        b.max_("r9", "r1", "r2")

    regs = run(body).registers
    assert regs.read("r3") == 13
    assert regs.read("r4") == 7
    assert regs.read("r5") == 30
    assert regs.read("r6") == 3
    assert regs.read("r7") == 1
    assert regs.read("r8") == 3
    assert regs.read("r9") == 10


def test_division_by_zero_is_defined():
    def body(b):
        b.li("r1", 5)
        b.div("r2", "r1", "r0")
        b.rem("r3", "r1", "r0")
        b.fli("f1", 5.0)
        b.fli("f2", 0.0)
        b.fdiv("f3", "f1", "f2")

    regs = run(body).registers
    assert regs.read("r2") == 0
    assert regs.read("r3") == 0
    assert regs.read("f3") == 0.0


def test_float_semantics():
    def body(b):
        b.fli("f1", 2.0)
        b.fli("f2", 8.0)
        b.fadd("f3", "f1", "f2")
        b.fmul("f4", "f1", "f2")
        b.fsqrt("f5", "f4")
        b.fslt("r1", "f1", "f2")
        b.cvtfi("r2", "f2")
        b.cvtif("f6", "r1")

    regs = run(body).registers
    assert regs.read("f3") == 10.0
    assert regs.read("f4") == 16.0
    assert regs.read("f5") == 4.0
    assert regs.read("r1") == 1
    assert regs.read("r2") == 8
    assert regs.read("f6") == 1.0


def test_shift_and_bitwise():
    def body(b):
        b.li("r1", 0b1010)
        b.shl("r2", "r1", 2)
        b.shr("r3", "r1", 1)
        b.andi("r4", "r1", 0b0110)
        b.xori("r5", "r1", 0b1111)

    regs = run(body).registers
    assert regs.read("r2") == 0b101000
    assert regs.read("r3") == 0b101
    assert regs.read("r4") == 0b0010
    assert regs.read("r5") == 0b0101


def test_memory_round_trip():
    mem = Memory()

    def body(b):
        b.li("r1", 0x100)
        b.li("r2", 77)
        b.sw("r1", "r2", 4)
        b.lw("r3", "r1", 4)

    result = run(body, mem)
    assert result.registers.read("r3") == 77
    assert mem.load(0x104) == 77


def test_trace_records_memory_addresses():
    mem = Memory()
    mem.store(0x200, 5)

    def body(b):
        b.li("r1", 0x200)
        b.lw("r2", "r1", 0)
        b.sw("r1", "r2", 8)

    trace = run(body, mem).trace
    load = trace[1]
    store = trace[2]
    assert load.is_load and load.addr == 0x200
    assert store.is_store and store.addr == 0x208


def test_trace_records_branch_outcomes_and_next_pc():
    def body(b):
        b.li("r1", 2)
        b.label("loop")
        b.addi("r1", "r1", -1)
        b.bne("r1", "r0", "loop")

    result = run(body)
    branches = [d for d in result.trace if d.is_branch]
    assert [d.taken for d in branches] == [True, False]
    assert branches[0].next_pc == result.program.label_pc["loop"]
    assert branches[1].next_pc == branches[1].pc + 4


def test_jump_redirects():
    def body(b):
        b.jmp("skip")
        b.label("dead")
        b.li("r1", 99)
        b.label("skip")
        b.li("r2", 1)

    regs = run(body).registers
    assert regs.read("r1") == 0
    assert regs.read("r2") == 1


def test_instruction_limit_guards_infinite_loops():
    def body(b):
        b.label("spin")
        b.jmp("spin")
        b.label("unreachable")

    with pytest.raises(ExecutionLimitExceeded):
        run(body, max_instructions=100)


def test_memory_alignment_enforced():
    mem = Memory()
    with pytest.raises(ValueError):
        mem.load(3)
    with pytest.raises(ValueError):
        mem.store(-4, 1)


def test_memory_arrays():
    mem = Memory()
    mem.store_array(0x40, [1, 2, 3])
    assert mem.load_array(0x40, 3) == [1, 2, 3]
    assert len(mem) == 3


def test_halt_is_in_trace():
    def body(b):
        b.li("r1", 1)

    trace = run(body).trace
    assert trace[-1].opcode is Opcode.HALT
