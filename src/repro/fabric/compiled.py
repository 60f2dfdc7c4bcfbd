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

Two plans, both cached on the configuration object and keyed by
identity:

* :class:`TimingPlan` — for the cycle engine: topological op steps with
  pre-split producer/live-in gather lists, per-op latency and mem kind,
  the structural II, constant datapath-transfer and FIFO-op totals, and
  the live-out extraction list.  ``SpatialFabric.walk`` replays it and
  returns plain values (start, completion, occupancy, the live-out
  cycles, one tuple per store and per load, the violations) instead of
  an ``InvocationResult``.
* :class:`OffloadPlan` — for the offload bookkeeping: the rename counts,
  the loads' ``(mem_index, pc)`` pairs and the stores'
  ``(mem_index, pos, pc)``, the segment's memory and branch positions,
  and the counters a successful invocation adds in amounts its
  configuration fixes, which the offload twin charges as one count per
  configuration.  It needs one offloaded occurrence to lower: the
  positions and the instruction count come from the segment.

Both plans compile on a configuration's first fast-tier invocation, so
``mapping_only`` runs, which never invoke, compile none.  Plan use is
the fast engine tier (:mod:`repro.engine`); on the reference tier the
interpreted ``SpatialFabric.execute`` and ``OffloadEngine.offload``
remain the spec, and ``tests/engine`` holds the two bit-identical.  The
value oracle (``repro.fabric.functional``) runs in no simulation and has
no plan.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fabric.configuration import Configuration
from repro.fabric.pe import pe_busy
from repro.isa.opcodes import latency_of

# Timing-step kinds.
T_ALU = 0
T_LOAD = 1
T_STORE = 2


@dataclass(frozen=True)
class TimingPlan:
    """Everything the fabric timing walk needs that never changes."""

    structural_ii: int
    #: Per placed op, in topological (position) order:
    #: ``(pos, kind, latency, mem_index, inst_srcs, live_srcs)``.  Only a
    #: store's address resolves on its base operand alone, so stores carry
    #: ``inst_srcs = ((producer_pos, arrival_add, is_base), ...)`` and
    #: ``live_srcs = ((reg, is_base), ...)``; every other op carries
    #: ``((producer_pos, arrival_add), ...)`` and ``(reg, ...)``.
    steps: tuple
    datapath_transfers: int   # sum of hops over all producer routes
    fifo_ops: int             # live-in gathers + live-out drains
    liveouts: tuple           # ((reg, producer_pos), ...)


def compile_timing_plan(configuration: Configuration) -> TimingPlan:
    """Lower a configuration for the cycle engine and cache it."""
    structural_ii = max(
        (pe_busy(op.opclass, op.latency) for op in configuration.placements),
        default=1,
    )
    steps = []
    datapath_transfers = 0
    gather_fifo_ops = 0
    for op in configuration.placements:
        inst_srcs = []
        live_srcs = []
        roles = op.source_roles or ("src",) * len(op.sources)
        for src, role in zip(op.sources, roles):
            if src.kind == "inst":
                add = src.hops - 1 if src.hops > 1 else 0
                inst_srcs.append((src.producer_pos, add, role == "base"))
                datapath_transfers += src.hops
            else:
                live_srcs.append((src.reg, role == "base"))
                gather_fifo_ops += 1
        if op.is_store:
            kind = T_STORE
        else:
            kind = T_LOAD if op.is_load else T_ALU
            inst_srcs = [(producer, add) for producer, add, _ in inst_srcs]
            live_srcs = [reg for reg, _ in live_srcs]
        steps.append((op.pos, kind, latency_of(op.opcode), op.mem_index,
                      tuple(inst_srcs), tuple(live_srcs)))
    liveouts = tuple(configuration.live_outs.items())
    plan = TimingPlan(
        structural_ii=structural_ii,
        steps=tuple(steps),
        datapath_transfers=datapath_transfers,
        fifo_ops=gather_fifo_ops + len(liveouts),
        liveouts=liveouts,
    )
    configuration._timing_plan = plan
    return plan


def timing_plan_of(configuration: Configuration) -> TimingPlan:
    """Return the configuration's timing plan, compiling on first use."""
    plan = getattr(configuration, "_timing_plan", None)
    if plan is None:
        plan = compile_timing_plan(configuration)
    return plan


@dataclass(frozen=True)
class OffloadPlan:
    """Everything ``OffloadEngine``'s plan-driven twin needs per
    invocation that never changes."""

    #: Registers the rename stage renames per invocation (live-ins plus
    #: live-outs).
    renames: int
    #: Live-out registers that rename a scoreboard entry (all but ``r0``).
    liveout_renames: int
    #: ``(mem_index, pc)`` of every placed load, in position order.
    loads: tuple
    #: ``(mem_index, pos, pc)`` of every placed store, in position order.
    store_positions: tuple
    #: Segment index of every memory op, in ``mem_index`` order.
    mem_positions: tuple
    #: Segment index of every embedded branch, in trace order.
    branch_positions: tuple
    #: ``(PipelineStats field, count)`` for every nonzero counter a
    #: successful invocation adds in an amount its configuration fixes.
    counters: tuple


def compile_offload_plan(configuration: Configuration,
                         segment) -> OffloadPlan:
    """Lower the offload engine's per-configuration work and cache it.

    ``segment`` is any occurrence offloaded on ``configuration``: the
    trace key (anchor PC, embedded branch outcomes, length) pins the
    static instruction sequence, and offload only runs on key-matching
    occurrences, so the memory and branch positions and the instruction
    count hold for all of them.
    """
    loads = []
    store_positions = []
    pool_counts: dict[str, int] = {}
    for op in configuration.placements:
        if op.is_store:
            store_positions.append((op.mem_index, op.pos, op.pc))
        elif op.is_load:
            loads.append((op.mem_index, op.pc))
        pool_counts[op.pool] = pool_counts.get(op.pool, 0) + 1
    branch_positions = tuple(
        i for i, dyn in enumerate(segment) if dyn.is_branch)
    timing = timing_plan_of(configuration)
    counters = {
        "regfile_writes": len(configuration.live_outs),
        "loads": len(loads),
        "stores": len(store_positions),
        "predictor_lookups": len(branch_positions),
        "offloaded_instructions": len(segment),
        "instructions": len(segment),
        "fabric_invocations": 1,
        "fabric_fu_ops": len(configuration.placements),
        "fabric_datapath_transfers": timing.datapath_transfers,
        "fabric_fifo_ops": timing.fifo_ops,
    }
    for pool, count in pool_counts.items():
        counters[f"fabric_{pool}_ops"] = count
    plan = OffloadPlan(
        renames=len(configuration.live_ins) + len(configuration.live_outs),
        liveout_renames=sum(
            1 for reg in configuration.live_outs if reg != "r0"),
        loads=tuple(loads),
        store_positions=tuple(store_positions),
        mem_positions=tuple(
            i for i, dyn in enumerate(segment) if dyn.is_memory),
        branch_positions=branch_positions,
        counters=tuple(
            (name, count) for name, count in counters.items() if count),
    )
    configuration._offload_plan = plan
    return plan


def offload_plan_of(configuration: Configuration, segment) -> OffloadPlan:
    """The configuration's offload plan, compiling on first use."""
    plan = getattr(configuration, "_offload_plan", None)
    if plan is None:
        plan = compile_offload_plan(configuration, segment)
    return plan
