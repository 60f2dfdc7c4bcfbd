"""Differential test: the predecoded executor against the reference step.

``FunctionalExecutor.run`` decodes each PC into a handler on its first
execution; ``FunctionalExecutor._step`` is the per-instruction reference
semantics.  Every test here runs both on the same ``Program`` object and
demands identical dynamic traces (every ``DynamicInstruction`` field with
its value type, ``static`` by identity), identical final registers and
memory words (with value types), and identical errors: the
instruction-limit error at the same limit, the fell-off-program error, the
misaligned-address error, and whatever an operation itself raises.

Generated programs mix straight-line runs, counted loops, forward branches
and jumps with every instruction kind; an enumerated section then pins
each ALU operation's register and immediate forms against integer, FP and
``r0`` destinations, and the 11 kernels and the ``.spam`` corpus run
through both executors as well.
"""

import itertools
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.builder import ProgramBuilder
from repro.isa.executor import (
    ExecutionLimitExceeded,
    ExecutionResult,
    FunctionalExecutor,
    Memory,
)
from repro.isa.instructions import DynamicInstruction, Instruction
from repro.isa.opcodes import OpClass, Opcode, opclass_of
from repro.isa.program import BasicBlock, Program
from repro.isa.registers import ArchRegisterFile
from repro.lang import load_module, lower_module
from repro.workloads import ALL_ABBREVS, get_benchmark

CORPUS = sorted((Path(__file__).resolve().parents[2] / "corpus").glob("*.spam"))

# ---------------------------------------------------------------------------
# Reference run and comparison
# ---------------------------------------------------------------------------
def reference_run(program, memory, max_instructions=5_000_000):
    """``run``'s contract, one ``_step`` per dynamic instruction."""
    step = FunctionalExecutor(max_instructions)._step
    regs = ArchRegisterFile()
    trace = []
    pc = program.entry_pc
    while True:
        if len(trace) >= max_instructions:
            raise ExecutionLimitExceeded(
                f"{program.name}: exceeded {max_instructions} dynamic instructions"
            )
        inst = program.by_pc.get(pc)
        if inst is None:
            raise RuntimeError(f"{program.name}: fell off program at pc=0x{pc:x}")
        addr, taken, next_pc, halted = step(program, inst, regs, memory, pc)
        trace.append(DynamicInstruction(len(trace), inst, addr, taken, next_pc))
        if halted:
            return ExecutionResult(program, trace, regs, memory)
        pc = next_pc


def typed(value):
    """A value with its type; ``repr`` tells -0.0 from 0.0 and matches nan."""
    return type(value).__name__, repr(value)


FIELDS = tuple(name for name in DynamicInstruction.__slots__ if name != "static")


def clone(memory: Memory) -> Memory:
    copy = Memory()
    for addr, value in memory._words.items():
        copy.store(addr, value)
    return copy


def words(memory: Memory) -> dict:
    return {addr: typed(value) for addr, value in memory._words.items()}


def outcome(run):
    try:
        return run()
    except Exception as exc:  # noqa: BLE001 - compared against the reference
        return exc


def assert_same(program, image: Memory, max_instructions=5_000_000):
    """Run both executors on copies of ``image``; return the reference
    outcome (an ``ExecutionResult`` or the exception it raised)."""
    fast_memory, ref_memory = clone(image), clone(image)
    fast = outcome(lambda: FunctionalExecutor(max_instructions).run(
        program, fast_memory))
    ref = outcome(lambda: reference_run(program, ref_memory, max_instructions))
    if isinstance(ref, Exception):
        assert (type(fast), str(fast)) == (type(ref), str(ref))
    else:
        assert not isinstance(fast, Exception), repr(fast)
        assert fast.dynamic_count == ref.dynamic_count == len(ref.trace)
        for got, want in zip(fast.trace, ref.trace):
            assert got.static is want.static
            assert ([typed(getattr(got, name)) for name in FIELDS]
                    == [typed(getattr(want, name)) for name in FIELDS]), want
        assert ({reg: typed(v) for reg, v in fast.registers.snapshot().items()}
                == {reg: typed(v) for reg, v in ref.registers.snapshot().items()})
    assert words(fast_memory) == words(ref_memory)
    return ref


# ---------------------------------------------------------------------------
# Generated programs
# ---------------------------------------------------------------------------
INT = ("r1", "r2", "r3", "r4", "r5")
FP = ("f1", "f2", "f3", "f4")
COUNTER = "r6"  # loop counter: generated operations never write it
BASE = "r7"     # memory base register, never written
SHIFT = "r8"    # small shift amount, never written

BASE_ADDR = 0x100
WORDS = 8
LOG = 0x400  # offset of the value log from BASE_ADDR
ALIGNED = tuple(4 * i for i in range(WORDS))

#: Every operation that writes a register from registers or an immediate,
#: grouped by how ``_step`` reads its operands.
ALU = tuple(op for op in Opcode if opclass_of(op) not in (
    OpClass.LOAD, OpClass.STORE, OpClass.BRANCH, OpClass.JUMP, OpClass.NOP))
UNARY = (Opcode.ABS, Opcode.MOV, Opcode.FMOV, Opcode.FSQRT, Opcode.FABS,
         Opcode.FNEG, Opcode.CVTIF, Opcode.CVTFI)
IMMEDIATE = (Opcode.LI, Opcode.FLI)
BINARY = tuple(op for op in ALU if op not in UNARY + IMMEDIATE)
SHIFTS = (Opcode.SHL, Opcode.SHR)
BITWISE = (Opcode.AND, Opcode.OR, Opcode.XOR) + SHIFTS
DIVISIONS = (Opcode.DIV, Opcode.REM, Opcode.FDIV)  # drawn three times as often
#: Operations whose sources are floating point.
FP_OPS = frozenset(op for op in ALU if op.name.startswith("F")
                   or op is Opcode.CVTFI)

ints = st.sampled_from((-7, -3, -1, 0, 1, 2, 5, 9, 255, -256, 1 << 20))
floats = st.sampled_from((-2.5, -0.5, -0.0, 0.0, 0.5, 1.5, 3.25, 1e30))
#: Immediates: zero and fractional divisors included.
immediates = st.sampled_from((0, 1, 2, 3, -1, -2, 7, 0.0, 0.5, -1.5, 2.25))
dests = st.sampled_from(("r0",) + INT + ("r0",) + FP)  # r0 weighted up


def operands(fp: bool):
    """Mostly registers of the operation's class, sometimes any register."""
    home = FP if fp else INT
    return st.sampled_from(home * 3 + INT + FP + ("r0", COUNTER))


@st.composite
def operations(draw, wild_addresses: bool):
    """One generated instruction as ``(opcode, dest, srcs, imm)`` tuples
    (a multiply into an integer register is followed by a mask, which keeps
    repeated squaring inside a loop from growing integers without bound).
    Memory operations address the seeded words through ``BASE`` unless
    ``wild_addresses``, which also draws arbitrary bases and misaligned or
    negative offsets."""
    kind = draw(st.sampled_from(("binary", "binary", "binary", "unary",
                                 "immediate", "load", "store")))
    if kind == "load" or kind == "store":
        op = draw(st.sampled_from(("LW", "FLW") if kind == "load"
                                  else ("SW", "FSW")))
        if wild_addresses:
            base = draw(st.sampled_from((BASE,) + INT + FP))
            offset = draw(st.sampled_from(ALIGNED + (2, -0x400)))
        else:
            base, offset = BASE, draw(st.sampled_from(ALIGNED))
        if kind == "load":
            return [(Opcode[op], draw(dests), (base,), offset)]
        value = draw(operands(op == "FSW"))
        return [(Opcode[op], None, (base, value), offset)]
    if kind == "immediate":
        return [(draw(st.sampled_from(IMMEDIATE)), draw(dests), (),
                 draw(immediates | ints | floats))]
    if kind == "unary":
        op = draw(st.sampled_from(UNARY))
        return [(op, draw(dests), (draw(operands(op in FP_OPS)),), None)]
    op = draw(st.sampled_from(BINARY + DIVISIONS * 2))
    dest = draw(dests)
    # A float shifted or masked raises TypeError; the enumerated forms
    # below cover that, so generated programs keep running past them.
    first = draw(st.sampled_from(INT + ("r0", COUNTER)) if op in BITWISE
                 else operands(op in FP_OPS))
    if draw(st.booleans()):
        second = SHIFT if op in SHIFTS else draw(operands(op in FP_OPS))
        emitted = [(op, dest, (first, second), None)]
    else:
        imm = draw(st.integers(-1, 5) | st.just(1.5) if op in SHIFTS
                   else immediates)
        emitted = [(op, dest, (first,), imm)]
    if op in (Opcode.MUL, Opcode.FMUL) and dest in INT:
        emitted.append((Opcode.AND, dest, (dest,), 0xFFFF))
    return emitted


def emit_all(b: ProgramBuilder, groups, log) -> None:
    """Emit generated instructions.  Each register write is then stored to
    a log word of its own, so a wrong intermediate value shows in memory
    even when a later write overwrites the register."""
    for group in groups:
        for opcode, dest, srcs, imm in group:
            b.raw(opcode, dest, srcs, imm)
            if dest is not None and dest != "r0":
                b.sw(BASE, dest, next(log))


@st.composite
def programs(draw):
    """Straight-line runs, counted loops, forward branches and jumps over
    a register file seeded with mixed-sign ints and floats; returns the
    program and its initial memory image."""
    b = ProgramBuilder("gen")
    for reg in INT:
        b.li(reg, draw(ints))
    for reg in FP:
        b.fli(reg, draw(floats))
    b.li(BASE, BASE_ADDR)
    b.li(SHIFT, draw(st.integers(0, 5)))
    body = st.lists(operations(draw(st.sampled_from((False, False, True)))),
                    min_size=2, max_size=5)
    log = itertools.count(LOG, 4)
    for k, kind in enumerate(draw(st.lists(
            st.sampled_from(("straight", "loop", "branch", "jump")),
            min_size=3, max_size=8))):
        if kind == "straight":
            emit_all(b, draw(body), log)
        elif kind == "loop":
            b.li(COUNTER, draw(st.integers(1, 3)))
            b.label(f"loop{k}")
            emit_all(b, draw(body), log)
            b.addi(COUNTER, COUNTER, -1)
            b.bne(COUNTER, "r0", f"loop{k}")
        elif kind == "branch":
            fp = draw(st.booleans())
            b.raw(draw(st.sampled_from((Opcode.BEQ, Opcode.BNE, Opcode.BLT,
                                        Opcode.BGE))),
                  None, (draw(operands(fp)), draw(operands(fp))),
                  target=f"skip{k}")
            emit_all(b, draw(body), log)
            b.label(f"skip{k}")
        else:
            b.jmp(f"skip{k}")
            b.label(f"dead{k}")
            emit_all(b, draw(body), log)
            b.label(f"skip{k}")
    b.halt()
    image = Memory()
    image.store_array(BASE_ADDR, draw(st.lists(
        ints | floats, min_size=WORDS, max_size=WORDS)))
    return b.build(), image


def test_generated_programs_match_reference():
    seen = Counter()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=programs())
    def check(case):
        program, image = case
        ref = assert_same(program, image)
        if isinstance(ref, ExecutionResult):
            # The instruction limit fires at the same count: one short of
            # the dynamic length raises on both sides, the exact length
            # does not.
            count = ref.dynamic_count
            assert isinstance(assert_same(program, image, count),
                              ExecutionResult)
            for limit in (count - 1, count // 2):
                assert isinstance(assert_same(program, image, limit),
                                  ExecutionLimitExceeded)
            seen["completed"] += 1
        elif "misaligned" in str(ref):
            seen["misaligned"] += 1
        else:
            seen[type(ref).__name__] += 1

    check()
    # Not vacuous: most programs run to HALT, and errors occur too.
    assert seen["completed"] >= 100 and seen["misaligned"] >= 10, seen


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=programs(), hole=st.integers(0, 10_000))
def test_fall_off_matches_reference(case, hole):
    program, image = case
    del program.by_pc[program.instructions[hole % len(program)].pc]
    assert_same(program, image)


# ---------------------------------------------------------------------------
# Every ALU operation form, enumerated
# ---------------------------------------------------------------------------
#: Source registers: a positive, a negative and a zero int; a negative, a
#: fractional and a zero float (zero and fractional divisors, negative
#: FSQRT and CVTFI inputs).
SOURCES = {"r2": 7, "r3": -3, "r4": 0, "f2": -2.5, "f3": 0.5, "f4": 0.0}
FORM_IMMEDIATES = (3, -2, 0, 0.5, -1.5)


def _one_op(opcode, dest, srcs, imm) -> None:
    b = ProgramBuilder(opcode.value)
    for reg, value in SOURCES.items():
        (b.li if reg.startswith("r") else b.fli)(reg, value)
    b.raw(opcode, dest, srcs, imm)
    b.halt()
    assert_same(b.build(), Memory())


@pytest.mark.parametrize("opcode", ALU, ids=lambda op: op.value)
def test_every_alu_form_matches_reference(opcode):
    for dest in ("r1", "f1", "r0"):
        if opcode in IMMEDIATE:
            for imm in FORM_IMMEDIATES:
                _one_op(opcode, dest, (), imm)
            continue
        for first in SOURCES:
            if opcode in UNARY:
                _one_op(opcode, dest, (first,), None)
                continue
            for second in SOURCES:
                _one_op(opcode, dest, (first, second), None)
            for imm in FORM_IMMEDIATES:
                _one_op(opcode, dest, (first,), imm)


# ---------------------------------------------------------------------------
# Errors on hand-built programs
# ---------------------------------------------------------------------------
def test_misaligned_address_message_matches():
    for offset in (2, -0x400):
        b = ProgramBuilder("misaligned")
        b.li("r1", BASE_ADDR)
        b.lw("r2", "r1", offset)
        b.halt()
        ref = assert_same(b.build(), Memory())
        assert isinstance(ref, ValueError)
        assert "misaligned or negative address" in str(ref)


@pytest.mark.parametrize("inst", [
    Instruction(Opcode.ADD, "r1", ("r2", "x9")),       # unknown source
    Instruction(Opcode.ADD, None, ("r1", "r2")),       # missing destination
    Instruction(Opcode.MOV, "x9", ("r1",)),            # unknown destination
    Instruction(Opcode.ABS, "r1", ()),                 # missing source
    Instruction(Opcode.ADD, "r1", ("r2",)),            # missing immediate
    Instruction(Opcode.LI, "r1", imm=None),            # uncoercible immediate
    Instruction(Opcode.LI, "r0", imm=None),            # ... dropped by r0
    Instruction(Opcode.LW, "r1", ("r0",), imm="x"),    # uncoercible offset
    Instruction(Opcode.SW, None, ("r0",), imm=0),      # missing store value
    Instruction(Opcode.BEQ, None, ("r0", "r0")),       # taken, no target
    Instruction(Opcode.BNE, None, ("r0", "r0")),       # not taken, no target
    Instruction(Opcode.JMP),                           # no target
], ids=str)
def test_malformed_instructions_match_reference(inst):
    """Instructions the builder would reject run through ``_step``."""
    entry, end = BasicBlock("entry"), BasicBlock("end")
    entry.append(inst)
    end.append(Instruction(Opcode.HALT))
    assert_same(Program([entry, end]), Memory())


def test_limit_inside_an_endless_loop_matches():
    b = ProgramBuilder("spin")
    b.label("top")
    b.addi("r1", "r1", 1)
    b.sw("r0", "r1", 0)
    b.jmp("top")
    b.label("end")
    b.halt()
    for limit in (0, 1, 2, 7, 100):
        ref = assert_same(b.build(), Memory(), limit)
        assert isinstance(ref, ExecutionLimitExceeded)


# ---------------------------------------------------------------------------
# Real programs
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("abbrev", ALL_ABBREVS)
def test_kernels_match_reference(abbrev):
    program, memory = get_benchmark(abbrev).build(0.05)
    assert isinstance(assert_same(program, memory, 20_000_000), ExecutionResult)


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_programs_match_reference(path):
    lowered = lower_module(load_module(path.read_text(), filename=str(path)),
                           name=path.stem)
    assert isinstance(assert_same(lowered.program, Memory()), ExecutionResult)


def test_corpus_is_present():
    assert len(CORPUS) >= 10
