"""Pre-lowered (compiled) evaluators for fabric configurations.

A ``Configuration`` is immutable once the mapper produces it, yet the
interpreted evaluators re-derive the same facts on every invocation:
``SpatialFabric.execute`` recomputes the structural initiation interval,
re-walks each op's operand sources (re-reading roles, re-counting hops),
and re-extracts live-outs; ``OffloadEngine.offload`` re-scans the
placements and the segment.
Steady state runs millions of invocations over a handful of
configurations — the same insight DynaSpAM itself applies to instruction
schedules applies here: lower the reused structure once, then execute
the lowered form.

Both plans are built from the configuration alone, and the offload
engine's one entry per configuration owns them (the offload plan holds
the timing plan); nothing is cached on the ``Configuration``:

* :class:`TimingPlan` — for the cycle engine: the configuration lowered
  to *slots*.  Each distinct live-in register the placed ops read gets
  one slot (``0 .. len(live_ins) - 1``), and each placed op, in position
  order, gets the next one.  ``SpatialFabric.walk`` fills one list per
  invocation in that order: a live-in slot holds the cycle its value
  arrives over the global bus (never before the invocation starts), an
  op slot the cycle the op finishes.  Every source is a ``(slot, add)``
  pair (``add`` is the route's extra hops), so an op's ready cycle is a
  max over list reads, and ALU steps are specialized by how many
  sources they read.  The plan also holds the structural II, the
  constant datapath-transfer and FIFO-op totals and the live-outs'
  slots.
* :class:`OffloadPlan` — for the occurrence check and the offload
  bookkeeping: the occurrence length, the rename counts, the loads'
  ``(mem_index, pc)`` pairs, the memory ops' trace positions, each
  embedded branch's position, PC and outcome, the live-outs the
  scoreboard takes (slot by slot), and the counters a successful
  invocation adds in amounts its configuration fixes, which the offload
  twin charges as one count per configuration.  The trace key and the
  placements hold all of it: the mapper places every instruction but
  jumps and nops, at its trace position, and maps only occurrences whose
  key is the configuration's.

The plans compile on a configuration's first fast-tier offload attempt,
so ``mapping_only`` runs, which never attempt one, compile none.  Plan
use is the fast engine tier (:mod:`repro.engine`); on the reference tier
the interpreted ``SpatialFabric.execute`` and ``OffloadEngine.offload``
remain the spec, DynaSpAM walks every occurrence in full, and
``tests/engine`` holds the two bit-identical.  The value oracle
(``repro.fabric.functional``) runs in no simulation and has no plan.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fabric.configuration import Configuration
from repro.fabric.pe import pe_busy
from repro.isa.opcodes import latency_of

# Timing-step kinds: ALU ops by source count, then the memory ops.
T_ALU1 = 0
T_ALU2 = 1
T_ALU = 2
T_LOAD = 3
T_STORE = 4


@dataclass(frozen=True)
class TimingPlan:
    """Everything the fabric timing walk needs that never changes."""

    structural_ii: int
    #: The live-in registers the placed ops read, one slot each, in
    #: first-read order.
    live_ins: tuple
    #: One ``(kind, a, b, c, d)`` per placed op, in position order; op
    #: ``i`` fills slot ``len(live_ins) + i``.  ``srcs`` are ``(slot,
    #: add)`` pairs:
    #:
    #: * ``T_ALU1``: ``(slot, add + latency, None, None)``;
    #: * ``T_ALU2``: ``(slot_a, add_a + latency, slot_b, add_b +
    #:   latency)``;
    #: * ``T_ALU`` (no source or more than two): ``(srcs, latency, None,
    #:   None)``;
    #: * ``T_LOAD``: ``(srcs, mem_index, pos, None)``;
    #: * ``T_STORE``: ``(base_srcs, value_srcs, mem_index, pos)``; only a
    #:   store's address resolves on its base operand alone.
    steps: tuple
    datapath_transfers: int   # sum of hops over all producer routes
    fifo_ops: int             # live-in gathers + live-out drains
    liveouts: tuple           # ((reg, slot), ...)


def compile_timing(configuration: Configuration) -> TimingPlan:
    """Lower a configuration for the cycle engine."""
    structural_ii = max(
        (pe_busy(op.opclass, op.latency) for op in configuration.placements),
        default=1,
    )
    live_in_slot: dict[str, int] = {}
    for op in configuration.placements:
        for src in op.sources:
            if src.kind != "inst":
                live_in_slot.setdefault(src.reg, len(live_in_slot))
    op_slot = {
        op.pos: len(live_in_slot) + index
        for index, op in enumerate(configuration.placements)
    }
    steps = []
    datapath_transfers = 0
    gather_fifo_ops = 0
    for op in configuration.placements:
        base_srcs = []
        value_srcs = []
        roles = op.source_roles or ("src",) * len(op.sources)
        for src, role in zip(op.sources, roles):
            if src.kind == "inst":
                source = (op_slot[src.producer_pos],
                          src.hops - 1 if src.hops > 1 else 0)
                datapath_transfers += src.hops
            else:
                source = (live_in_slot[src.reg], 0)
                gather_fifo_ops += 1
            if role == "base":
                base_srcs.append(source)
            else:
                value_srcs.append(source)
        srcs = tuple(base_srcs + value_srcs)
        latency = latency_of(op.opcode)
        if op.is_store:
            step = (T_STORE, tuple(base_srcs), tuple(value_srcs),
                    op.mem_index, op.pos)
        elif op.is_load:
            step = (T_LOAD, srcs, op.mem_index, op.pos, None)
        elif len(srcs) == 1:
            (slot, add), = srcs
            step = (T_ALU1, slot, add + latency, None, None)
        elif len(srcs) == 2:
            (slot_a, add_a), (slot_b, add_b) = srcs
            step = (T_ALU2, slot_a, add_a + latency, slot_b, add_b + latency)
        else:
            step = (T_ALU, srcs, latency, None, None)
        steps.append(step)
    liveouts = tuple(
        (reg, op_slot[pos]) for reg, pos in configuration.live_outs.items())
    return TimingPlan(
        structural_ii=structural_ii,
        live_ins=tuple(live_in_slot),
        steps=tuple(steps),
        datapath_transfers=datapath_transfers,
        fifo_ops=gather_fifo_ops + len(liveouts),
        liveouts=liveouts,
    )


@dataclass(frozen=True)
class OffloadPlan:
    """Everything the fast tier's occurrence check and offload twin need
    for one configuration that never changes."""

    #: The configuration's timing plan, which ``SpatialFabric.walk``
    #: replays.
    timing: TimingPlan
    #: Instructions in an occurrence: the trace key's length.
    length: int
    #: Registers the rename stage renames per invocation (live-ins plus
    #: live-outs).
    renames: int
    #: Live-in values the rename stage reads out to the input FIFOs.
    regfile_reads: int
    #: Placed ops (the PEs an invocation keeps active).
    fu_ops: int
    #: ``(mem_index, pc)`` of every placed load, in position order.
    loads: tuple
    #: ``(mem_index, pc)`` of every placed store, in position order.
    stores: tuple
    #: Trace position of every memory op, in ``mem_index`` order.
    mem_positions: tuple
    #: ``(pos, pc, taken)`` of every embedded branch, in trace order.
    branches: tuple
    #: ``(reg, timing slot)`` of every live-out that renames a scoreboard
    #: entry (all but ``r0``).
    liveout_writes: tuple
    #: ``(PipelineStats field, count)`` for every nonzero counter a
    #: successful invocation adds in an amount its configuration fixes.
    counters: tuple


def compile_offload_plan(configuration: Configuration) -> OffloadPlan:
    """Lower the fast tier's per-configuration work.

    Exact from the configuration alone: the mapper places every trace
    instruction but jumps and nops, each at its trace position, and maps
    only occurrences whose actual key is ``configuration.trace_key``
    (anchor PC, embedded branch outcomes, length).  So the placed
    branches, in position order, are the embedded branches, one per
    outcome in the key; the placed memory ops sit at the occurrence's
    memory positions; and the key's length is its instruction count.
    """
    loads = []
    stores = []
    mem_positions = []
    branch_ops = []
    pool_counts: dict[str, int] = {}
    for op in configuration.placements:
        if op.is_store:
            stores.append((op.mem_index, op.pc))
            mem_positions.append(op.pos)
        elif op.is_load:
            loads.append((op.mem_index, op.pc))
            mem_positions.append(op.pos)
        elif op.is_branch:
            branch_ops.append(op)
        pool_counts[op.pool] = pool_counts.get(op.pool, 0) + 1
    _anchor, outcomes, length = configuration.trace_key
    branches = tuple(
        (op.pos, op.pc, taken)
        for op, taken in zip(branch_ops, outcomes, strict=True))
    timing = compile_timing(configuration)
    counters = {
        "regfile_writes": len(configuration.live_outs),
        "loads": len(loads),
        "stores": len(stores),
        "predictor_lookups": len(branches),
        "commits": 1,
        "offloaded_instructions": length,
        "instructions": length,
        "fabric_invocations": 1,
        "fabric_fu_ops": len(configuration.placements),
        "fabric_datapath_transfers": timing.datapath_transfers,
        "fabric_fifo_ops": timing.fifo_ops,
    }
    for pool, count in pool_counts.items():
        counters[f"fabric_{pool}_ops"] = count
    return OffloadPlan(
        timing=timing,
        length=length,
        renames=len(configuration.live_ins) + len(configuration.live_outs),
        regfile_reads=len(configuration.live_ins),
        fu_ops=len(configuration.placements),
        loads=tuple(loads),
        stores=tuple(stores),
        mem_positions=tuple(mem_positions),
        branches=branches,
        liveout_writes=tuple(
            (reg, slot) for reg, slot in timing.liveouts if reg != "r0"),
        counters=tuple(
            (name, count) for name, count in counters.items() if count),
    )
