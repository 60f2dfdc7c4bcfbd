"""Functional (value-carrying) execution of fabric configurations.

The timing engine in ``repro.fabric.fabric`` answers *when*; this module
answers *what*: it evaluates a mapped trace's dataflow — live-ins from the
input FIFOs, operands over the configured routes, loads and buffered
stores against a memory image — and produces the invocation's live-out
values, branch results, and store set.

Its purpose is verification: because the reproduction's pipelines are
trace-driven, a mapping bug (wrong operand route, wrong producer, dropped
live-out) would otherwise never corrupt an architectural result.
:class:`CoSimulator` replays a benchmark's dynamic trace, evaluates each
chosen trace occurrence on its configuration, and cross-checks every
live-out value, store and branch result against the functional executor's
ground truth; the test suite runs it over every mapped window of every
benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.fabric.configuration import Configuration, PlacedOp
from repro.isa.executor import BINARY_OPS, BRANCH_OPS, Memory, UNARY_OPS
from repro.isa.instructions import DynamicInstruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import ZERO_REG, is_int_reg


class FabricExecutionError(Exception):
    """Raised when a configuration cannot be functionally evaluated."""


@dataclass
class FunctionalResult:
    """Architectural effects of one functionally evaluated invocation."""

    values: dict[int, float | int | None] = field(default_factory=dict)
    live_outs: dict[str, float | int] = field(default_factory=dict)
    branch_results: list[bool] = field(default_factory=list)
    stores: list[tuple[int, float | int]] = field(default_factory=list)
    loads: list[tuple[int, float | int]] = field(default_factory=list)


class FunctionalFabric:
    """Evaluate configurations over values (not cycles)."""

    def execute(
        self,
        configuration: Configuration,
        live_in_values: dict[str, float | int],
        memory: Memory,
        dyn_instances: list[DynamicInstruction] | None = None,
        commit: bool = True,
    ) -> FunctionalResult:
        """Run one invocation.

        ``dyn_instances`` (the trace occurrence, parallel by position)
        supplies immediates — the configuration carries routes and
        opcodes; immediates live in the static instructions, exactly as a
        real configuration's constant fields would.  Stores are buffered
        and drained to ``memory`` at the end (commit), but loads see the
        invocation's own earlier stores through the buffer, preserving
        intra-trace memory semantics.
        """
        statics = {}
        if dyn_instances is not None:
            statics = {pos: dyn_instances[pos].static
                       for pos in range(len(dyn_instances))}

        result = FunctionalResult()
        store_buffer: dict[int, float | int] = {}

        for op in configuration.placements:
            operands = self._gather(op, configuration, live_in_values, result)
            static = statics.get(op.pos)
            imm = static.imm if static is not None else None
            value = self._evaluate(
                op, operands, imm, memory, store_buffer, result
            )
            dest = op.dest_reg
            if value is not None and dest is not None and dest != ZERO_REG:
                # Held as the destination's register class holds it.
                value = int(value) if is_int_reg(dest) else float(value)
            result.values[op.pos] = value

        for reg, pos in configuration.live_outs.items():
            if result.values.get(pos) is None:
                raise FabricExecutionError(
                    f"live-out {reg} producer {pos} yielded no value"
                )
            result.live_outs[reg] = result.values[pos]

        # Commit: drain the store buffer to memory in order of occurrence
        # (the buffer preserved program order per address).  With
        # ``commit=False`` the caller inspects ``result.stores`` instead —
        # the co-simulator does this to avoid double-applying stores.
        if commit:
            for addr, value in result.stores:
                memory.store(addr, value)
        return result

    # ------------------------------------------------------------------
    def _gather(self, op, configuration, live_ins, result):
        values = []
        for src in op.sources:
            if src.kind == "livein":
                if src.reg not in live_ins:
                    raise FabricExecutionError(
                        f"op {op.pos}: live-in {src.reg} not supplied"
                    )
                values.append(live_ins[src.reg])
            else:
                value = result.values.get(src.producer_pos)
                if value is None:
                    raise FabricExecutionError(
                        f"op {op.pos}: producer {src.producer_pos} has no value"
                    )
                values.append(value)
        return values

    # ------------------------------------------------------------------
    def _evaluate(self, op: PlacedOp, operands, imm, memory, store_buffer,
                  result):
        opcode = op.opcode

        if opcode in (Opcode.LI, Opcode.FLI):
            return imm

        if opcode in (Opcode.LW, Opcode.FLW):
            base = operands[0]
            addr = int(base) + int(imm or 0)
            if addr in store_buffer:
                value = store_buffer[addr]
            else:
                value = memory.load(addr)
            result.loads.append((addr, value))
            return value

        if opcode in (Opcode.SW, Opcode.FSW):
            # Roles: base first, value second (r0 operands were dropped by
            # the mapper; reconstruct from roles).
            roles = op.source_roles or ("base", "value")[: len(operands)]
            base = None
            data = 0
            for value, role in zip(operands, roles):
                if role == "base":
                    base = value
                elif role == "value":
                    data = value
            if base is None:
                raise FabricExecutionError(f"store {op.pos} has no base")
            addr = int(base) + int(imm or 0)
            store_buffer[addr] = data
            result.stores.append((addr, data))
            return None

        if opcode in BRANCH_OPS:
            a = operands[0] if operands else 0
            b = operands[1] if len(operands) > 1 else 0
            taken = BRANCH_OPS[opcode](a, b)
            result.branch_results.append(bool(taken))
            return None

        if opcode in UNARY_OPS:
            return UNARY_OPS[opcode](operands[0])

        if opcode in BINARY_OPS:
            a = operands[0]
            b = operands[1] if len(operands) > 1 else imm
            if b is None:
                raise FabricExecutionError(
                    f"op {op.pos} ({opcode.value}) missing second operand"
                )
            return BINARY_OPS[opcode](a, b)

        raise FabricExecutionError(f"unsupported opcode {opcode}")


class CoSimulator:
    """Lock-step verification of mappings against architectural truth.

    Replays a benchmark's dynamic trace while maintaining architectural
    register and memory state.  At each chosen trace occurrence it first
    evaluates the occurrence's *configuration* on the fabric functionally
    (reading live-ins from the current register file and loads from the
    current memory), then steps the oracle instructions — and asserts that
    every live-out value and every store value agree.  A routing or
    placement bug in the mapper shows up here as a value divergence.
    """

    def __init__(self, program, memory: Memory) -> None:
        from repro.isa.executor import FunctionalExecutor
        from repro.isa.registers import ArchRegisterFile

        self.program = program
        self.memory = memory
        self.registers = ArchRegisterFile()
        self._executor = FunctionalExecutor()
        self.verified_invocations = 0
        self.mismatches: list[str] = []

    def _step(self, dyn: DynamicInstruction) -> None:
        self._executor._step(
            self.program, dyn.static, self.registers, self.memory, dyn.pc
        )

    def run(
        self,
        trace: list[DynamicInstruction],
        occurrences: dict[int, tuple[list[DynamicInstruction], Configuration]],
        stop_on_mismatch: bool = True,
    ) -> int:
        """Replay ``trace``; verify each occurrence in ``occurrences``
        (keyed by start index).  Returns the number of verified
        invocations; mismatches are recorded (and raised by default)."""
        fabric = FunctionalFabric()
        index = 0
        while index < len(trace):
            pending = occurrences.get(index)
            if pending is None:
                self._step(trace[index])
                index += 1
                continue
            segment, configuration = pending
            live_ins = {
                reg: self.registers.read(reg)
                for reg in configuration.live_ins
            }
            result = fabric.execute(
                configuration, live_ins, self.memory, segment, commit=False
            )
            # Ground truth: step the oracle over the same instructions.
            for dyn in segment:
                self._step(dyn)
            self._check(result, configuration, segment)
            self.verified_invocations += 1
            if self.mismatches and stop_on_mismatch:
                raise FabricExecutionError(self.mismatches[0])
            index += len(segment)
        return self.verified_invocations

    def _check(self, result, configuration, segment) -> None:
        for reg, value in result.live_outs.items():
            oracle = self.registers.read(reg)
            if not _close(value, oracle):
                self.mismatches.append(
                    f"live-out {reg}: fabric {value!r} != oracle {oracle!r} "
                    f"(trace at pc 0x{segment[0].pc:x})"
                )
        final_store: dict[int, float | int] = {}
        for addr, value in result.stores:
            final_store[addr] = value  # last store per address wins
        for addr, value in final_store.items():
            oracle = self.memory.load(addr)
            if not _close(value, oracle):
                self.mismatches.append(
                    f"store @0x{addr:x}: fabric {value!r} != oracle "
                    f"{oracle!r}"
                )
        oracle_branches = [bool(d.taken) for d in segment if d.is_branch]
        if result.branch_results != oracle_branches:
            self.mismatches.append(
                f"branch results {result.branch_results} != "
                f"{oracle_branches}"
            )


def _close(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(float(a), float(b), rel_tol=1e-12, abs_tol=1e-12)
    return a == b
