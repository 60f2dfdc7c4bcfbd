"""Functional executor: runs a program and emits its dynamic trace.

The cycle-level simulators in ``repro.ooo`` and ``repro.core`` are
trace-driven: they consume the correct-path dynamic instruction stream this
executor produces.  Each ``DynamicInstruction`` carries the resolved branch
outcome and effective memory address, which is everything a timing model
needs; values stay inside the executor.

``FunctionalExecutor.run`` predecodes: the first execution of a PC turns
its static instruction into a handler with the operation, the source
register dicts, the immediate, the successor PCs and the destination write
bound, so each later execution costs one dict probe and one call.
``FunctionalExecutor._step`` stays the per-instruction reference semantics:
``repro.fabric.functional.CoSimulator`` steps with it, and the handlers
reproduce it exactly, down to value types and errors
(``tests/isa/test_executor_decode.py`` checks the two against each other).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable

from repro.isa.instructions import DynamicInstruction, Instruction, WORD_SIZE
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.isa.registers import ALL_REGS, ZERO_REG, ArchRegisterFile


class ExecutionLimitExceeded(Exception):
    """Raised when a program runs past the dynamic instruction limit."""


class Memory:
    """Word-granular sparse memory.

    Addresses are byte addresses and must be word (4-byte) aligned; values
    are Python ints or floats.  Unwritten locations read as zero.
    """

    __slots__ = ("_words",)

    def __init__(self) -> None:
        self._words: dict[int, float | int] = {}

    def load(self, addr: int) -> float | int:
        self._check(addr)
        return self._words.get(addr, 0)

    def store(self, addr: int, value: float | int) -> None:
        self._check(addr)
        self._words[addr] = value

    @staticmethod
    def _check(addr: int) -> None:
        if addr < 0 or addr % WORD_SIZE:
            raise ValueError(f"misaligned or negative address 0x{addr:x}")

    def store_array(self, base: int, values) -> None:
        """Store a sequence of words starting at ``base``."""
        for i, value in enumerate(values):
            self.store(base + i * WORD_SIZE, value)

    def load_array(self, base: int, count: int) -> list[float | int]:
        """Load ``count`` consecutive words starting at ``base``."""
        return [self.load(base + i * WORD_SIZE) for i in range(count)]

    def __len__(self) -> int:
        return len(self._words)


@dataclass
class ExecutionResult:
    """Outcome of a functional run."""

    program: Program
    trace: list[DynamicInstruction]
    registers: ArchRegisterFile
    memory: Memory
    dynamic_count: int = field(init=False)

    def __post_init__(self) -> None:
        self.dynamic_count = len(self.trace)


class FunctionalExecutor:
    """Interprets a ``Program`` against a ``Memory`` image."""

    def __init__(self, max_instructions: int = 5_000_000) -> None:
        self.max_instructions = max_instructions

    def run(
        self, program: Program, memory: Memory | None = None
    ) -> ExecutionResult:
        """Execute ``program`` to completion and return its dynamic trace,
        decoding each PC into a handler on its first execution."""
        memory = memory if memory is not None else Memory()
        regs = ArchRegisterFile()
        trace: list[DynamicInstruction] = []
        handlers: dict[int, Callable[[int], int | None]] = {}
        handler_at = handlers.get
        by_pc = program.by_pc
        pc = program.entry_pc

        for seq in range(self.max_instructions):
            handler = handler_at(pc)
            if handler is None:
                inst = by_pc.get(pc)
                if inst is None:
                    raise RuntimeError(
                        f"{program.name}: fell off program at pc=0x{pc:x}"
                    )
                handler = handlers[pc] = _decode(
                    self, program, inst, pc, regs, memory, trace.append
                )
            pc = handler(seq)
            if pc is None:
                break
        else:
            raise ExecutionLimitExceeded(
                f"{program.name}: exceeded {self.max_instructions} dynamic instructions"
            )

        return ExecutionResult(program, trace, regs, memory)

    def _step(
        self,
        program: Program,
        inst: Instruction,
        regs: ArchRegisterFile,
        memory: Memory,
        pc: int,
    ) -> tuple[int | None, bool | None, int, bool]:
        """Execute one instruction; return (mem addr, taken, next pc, halted)."""
        op = inst.opcode
        fallthrough = pc + WORD_SIZE

        def src(i: int):
            return regs.read(inst.srcs[i])

        def second_operand():
            """Second ALU operand: register if present, else immediate."""
            if len(inst.srcs) >= 2:
                return regs.read(inst.srcs[1])
            return inst.imm

        addr: int | None = None
        taken: bool | None = None
        next_pc = fallthrough
        halted = False

        if op is Opcode.ADD:
            regs.write(inst.dest, src(0) + second_operand())
        elif op is Opcode.SUB:
            regs.write(inst.dest, src(0) - second_operand())
        elif op is Opcode.AND:
            regs.write(inst.dest, src(0) & int(second_operand()))
        elif op is Opcode.OR:
            regs.write(inst.dest, src(0) | int(second_operand()))
        elif op is Opcode.XOR:
            regs.write(inst.dest, src(0) ^ int(second_operand()))
        elif op is Opcode.SHL:
            regs.write(inst.dest, src(0) << int(second_operand()))
        elif op is Opcode.SHR:
            regs.write(inst.dest, src(0) >> int(second_operand()))
        elif op is Opcode.SLT:
            regs.write(inst.dest, 1 if src(0) < second_operand() else 0)
        elif op is Opcode.SLE:
            regs.write(inst.dest, 1 if src(0) <= second_operand() else 0)
        elif op is Opcode.SEQ:
            regs.write(inst.dest, 1 if src(0) == second_operand() else 0)
        elif op is Opcode.MIN:
            regs.write(inst.dest, min(src(0), second_operand()))
        elif op is Opcode.MAX:
            regs.write(inst.dest, max(src(0), second_operand()))
        elif op is Opcode.ABS:
            regs.write(inst.dest, abs(src(0)))
        elif op in (Opcode.MOV, Opcode.FMOV):
            regs.write(inst.dest, src(0))
        elif op in (Opcode.LI, Opcode.FLI):
            regs.write(inst.dest, inst.imm)
        elif op is Opcode.MUL:
            regs.write(inst.dest, src(0) * second_operand())
        elif op is Opcode.DIV:
            divisor = second_operand()
            regs.write(inst.dest, 0 if divisor == 0 else int(src(0) / divisor))
        elif op is Opcode.REM:
            divisor = int(second_operand())
            regs.write(inst.dest, 0 if divisor == 0 else src(0) % divisor)
        elif op is Opcode.FADD:
            regs.write(inst.dest, src(0) + second_operand())
        elif op is Opcode.FSUB:
            regs.write(inst.dest, src(0) - second_operand())
        elif op is Opcode.FMUL:
            regs.write(inst.dest, src(0) * second_operand())
        elif op is Opcode.FDIV:
            divisor = second_operand()
            regs.write(inst.dest, 0.0 if divisor == 0 else src(0) / divisor)
        elif op is Opcode.FSQRT:
            value = src(0)
            regs.write(inst.dest, math.sqrt(value) if value > 0 else 0.0)
        elif op is Opcode.FMIN:
            regs.write(inst.dest, min(src(0), second_operand()))
        elif op is Opcode.FMAX:
            regs.write(inst.dest, max(src(0), second_operand()))
        elif op is Opcode.FABS:
            regs.write(inst.dest, abs(src(0)))
        elif op is Opcode.FNEG:
            regs.write(inst.dest, -src(0))
        elif op is Opcode.FSLT:
            regs.write(inst.dest, 1 if src(0) < second_operand() else 0)
        elif op is Opcode.FSLE:
            regs.write(inst.dest, 1 if src(0) <= second_operand() else 0)
        elif op is Opcode.CVTIF:
            regs.write(inst.dest, float(src(0)))
        elif op is Opcode.CVTFI:
            regs.write(inst.dest, int(src(0)))
        elif op in (Opcode.LW, Opcode.FLW):
            addr = int(src(0)) + int(inst.imm or 0)
            regs.write(inst.dest, memory.load(addr))
        elif op in (Opcode.SW, Opcode.FSW):
            addr = int(src(0)) + int(inst.imm or 0)
            memory.store(addr, src(1))
        elif op is Opcode.BEQ:
            taken = src(0) == src(1)
        elif op is Opcode.BNE:
            taken = src(0) != src(1)
        elif op is Opcode.BLT:
            taken = src(0) < src(1)
        elif op is Opcode.BGE:
            taken = src(0) >= src(1)
        elif op is Opcode.JMP:
            next_pc = program.target_pc(inst)
        elif op is Opcode.HALT:
            halted = True
        elif op is Opcode.NOP:
            pass
        else:  # pragma: no cover - exhaustive over the ISA
            raise RuntimeError(f"unimplemented opcode {op}")

        if taken is not None:
            next_pc = program.target_pc(inst) if taken else fallthrough

        return addr, taken, next_pc, halted


# ---------------------------------------------------------------------------
# Predecoding
# ---------------------------------------------------------------------------
def _identity(value):
    """MOV's operation, and the coercion of an ``r0`` write (whose value
    lands in a throwaway dict: computed, then dropped)."""
    return value


def _rem(a, b):
    divisor = int(b)
    return 0 if divisor == 0 else a % divisor


#: The ISA's value semantics, shared by the predecoded handlers and
#: ``repro.fabric.functional.FunctionalFabric``.
#:
#: ``dest <- op(src0, second operand)``, each exactly as ``_step`` computes
#: it (the second operand is ``srcs[1]`` when present, else ``imm``).
BINARY_OPS = {
    Opcode.ADD: operator.add,
    Opcode.SUB: operator.sub,
    Opcode.AND: lambda a, b: a & int(b),
    Opcode.OR: lambda a, b: a | int(b),
    Opcode.XOR: lambda a, b: a ^ int(b),
    Opcode.SHL: lambda a, b: a << int(b),
    Opcode.SHR: lambda a, b: a >> int(b),
    Opcode.SLT: lambda a, b: 1 if a < b else 0,
    Opcode.SLE: lambda a, b: 1 if a <= b else 0,
    Opcode.SEQ: lambda a, b: 1 if a == b else 0,
    Opcode.MIN: min,
    Opcode.MAX: max,
    Opcode.MUL: operator.mul,
    Opcode.DIV: lambda a, b: 0 if b == 0 else int(a / b),
    Opcode.REM: _rem,
    Opcode.FADD: operator.add,
    Opcode.FSUB: operator.sub,
    Opcode.FMUL: operator.mul,
    Opcode.FDIV: lambda a, b: 0.0 if b == 0 else a / b,
    Opcode.FMIN: min,
    Opcode.FMAX: max,
    Opcode.FSLT: lambda a, b: 1 if a < b else 0,
    Opcode.FSLE: lambda a, b: 1 if a <= b else 0,
}

#: ``dest <- op(src0)``.
UNARY_OPS = {
    Opcode.ABS: abs,
    Opcode.MOV: _identity,
    Opcode.FMOV: _identity,
    Opcode.FSQRT: lambda v: math.sqrt(v) if v > 0 else 0.0,
    Opcode.FABS: abs,
    Opcode.FNEG: operator.neg,
    Opcode.CVTIF: float,
    Opcode.CVTFI: int,
}

#: ``taken <- op(src0, src1)``.
BRANCH_OPS = {
    Opcode.BEQ: operator.eq,
    Opcode.BNE: operator.ne,
    Opcode.BLT: operator.lt,
    Opcode.BGE: operator.ge,
}


def _decode(executor, program, inst, pc, regs, memory, emit):
    """The handler for ``inst`` at ``pc``.

    ``handler(seq)`` executes the instruction, emits its
    ``DynamicInstruction`` and returns the next PC, or ``None`` after HALT.
    Register operands bind to the dict that holds them, and the destination
    write binds to its coercion: ``int`` or ``float`` by register class,
    dropped for ``r0``.  An instruction no template expresses exactly (an
    unknown register, a missing operand or target, an immediate that does
    not coerce) runs through ``executor._step`` instead, so it behaves, and
    fails, exactly as the reference does.
    """
    op = inst.opcode
    fall = pc + WORD_SIZE
    DI = DynamicInstruction

    def reference(seq):
        addr, taken, next_pc, halted = executor._step(
            program, inst, regs, memory, pc
        )
        emit(DI(seq, inst, addr, taken, next_pc))
        return None if halted else next_pc

    srcs, dest = inst.srcs, inst.dest
    if not ALL_REGS.issuperset(srcs) or (
            dest is not None and dest not in ALL_REGS):
        return reference
    ints, fps = regs._int, regs._fp
    banks = [ints if name in ints else fps for name in srcs]
    if srcs:
        a, ra = srcs[0], banks[0]
    if len(srcs) >= 2:
        b, rb = srcs[1], banks[1]
    check = memory._check

    if op is Opcode.HALT:
        def halt(seq):
            emit(DI(seq, inst, None, None, fall))
        return halt

    if op is Opcode.NOP:
        def nop(seq):
            emit(DI(seq, inst, None, None, fall))
            return fall
        return nop

    target = program.label_pc.get(inst.target)
    if op is Opcode.JMP:
        if target is None:
            return reference

        def jump(seq):
            emit(DI(seq, inst, None, None, target))
            return target
        return jump

    if op in BRANCH_OPS:
        if len(srcs) < 2 or target is None:
            return reference
        compare = BRANCH_OPS[op]

        def branch(seq):
            taken = compare(ra[a], rb[b])
            next_pc = target if taken else fall
            emit(DI(seq, inst, None, taken, next_pc))
            return next_pc
        return branch

    if op is Opcode.SW or op is Opcode.FSW:
        offset = _coerced(int, inst.imm or 0)
        if len(srcs) < 2 or offset is None:
            return reference
        words = memory._words

        def store(seq):
            addr = int(ra[a]) + offset
            value = rb[b]
            if addr < 0 or addr % WORD_SIZE:
                check(addr)
            words[addr] = value
            emit(DI(seq, inst, addr, None, fall))
            return fall
        return store

    # Every remaining operation writes ``dest``.
    if dest is None:
        return reference
    if dest == ZERO_REG:
        dst, coerce = {}, _identity
    elif dest in ints:
        dst, coerce = ints, int
    else:
        dst, coerce = fps, float

    if op is Opcode.LI or op is Opcode.FLI:
        value = _coerced(coerce, inst.imm)
        if value is None:
            return reference

        def load_immediate(seq):
            dst[dest] = value
            emit(DI(seq, inst, None, None, fall))
            return fall
        return load_immediate

    if not srcs:
        return reference

    if op is Opcode.LW or op is Opcode.FLW:
        offset = _coerced(int, inst.imm or 0)
        if offset is None:
            return reference
        word_at = memory._words.get

        def load(seq):
            addr = int(ra[a]) + offset
            if addr < 0 or addr % WORD_SIZE:
                check(addr)
            dst[dest] = coerce(word_at(addr, 0))
            emit(DI(seq, inst, addr, None, fall))
            return fall
        return load

    if op in UNARY_OPS:
        fn = UNARY_OPS[op]

        def unary(seq):
            dst[dest] = coerce(fn(ra[a]))
            emit(DI(seq, inst, None, None, fall))
            return fall
        return unary

    if op in BINARY_OPS:
        fn = BINARY_OPS[op]
        if len(srcs) >= 2:
            def binary(seq):
                dst[dest] = coerce(fn(ra[a], rb[b]))
                emit(DI(seq, inst, None, None, fall))
                return fall
            return binary
        imm = inst.imm

        def binary_imm(seq):
            dst[dest] = coerce(fn(ra[a], imm))
            emit(DI(seq, inst, None, None, fall))
            return fall
        return binary_imm

    return reference


def _coerced(coerce, value):
    """``coerce(value)`` folded at decode time, or ``None`` when it raises
    (the instruction then runs through the reference step)."""
    try:
        return coerce(value)
    except (TypeError, ValueError, OverflowError):
        return None
