"""Tier identity of the fabric timing walk on generated configurations.

``SpatialFabric.walk`` replaces the reference walk's rescans of older
stores with running maxima and dict lookups, reads live-in cycles
straight from the host scoreboard and returns plain values.  The kernel
identity sweep rarely reaches the cases where that could go wrong: two
stores to one address inside one invocation, intra-trace violations,
Store-Sets predictions.  These tests generate configurations that reach
them on purpose and demand that the walk returns what the reference
``SpatialFabric.execute`` does (start, completion, occupancy, live-outs,
each store's address cycle and finish, each load's start, violations)
and leaves the same fabric books, invocation after invocation.
"""

from hypothesis import given, settings, strategies as st

from repro.fabric.configuration import Configuration, OperandSource, PlacedOp
from repro.fabric.fabric import InvocationContext, SpatialFabric
from repro.isa.opcodes import Opcode, OpClass
from repro.ooo.caches import Cache, CacheHierarchy

#: Every address an invocation's memory ops draw from: few enough that
#: stores alias each other and the loads behind them.
ADDRESSES = (0x100, 0x140, 0x900)
LIVE_INS = ("r1", "r2", "r3", "r4")

#: ALU opcodes: pipelined integer ops and an unpipelined divider, which
#: sets a structural initiation interval above one.
ALU_OPS = (
    (Opcode.ADD, OpClass.INT_ALU, "int_alu"),
    (Opcode.MUL, OpClass.INT_MUL, "int_muldiv"),
    (Opcode.FDIV, OpClass.FP_DIV, "fp_muldiv"),
)


@st.composite
def configurations(draw):
    """A forward dataflow DAG across stripes with 2-4 stores."""
    n = draw(st.integers(4, 12))
    kinds = draw(st.lists(st.sampled_from(("alu", "load")),
                          min_size=n, max_size=n))
    stores = draw(st.sets(st.integers(0, n - 1), min_size=2, max_size=4))
    for pos in stores:
        kinds[pos] = "store"
    stripes = [0]
    for _ in range(n - 1):
        stripes.append(stripes[-1] + draw(st.integers(0, 1)))

    def source(pos):
        producers = [p for p in range(pos)
                     if kinds[p] != "store" and stripes[p] < stripes[pos]]
        if producers and draw(st.booleans()):
            producer = draw(st.sampled_from(producers))
            return OperandSource("inst", producer_pos=producer,
                                 hops=stripes[pos] - stripes[producer])
        return OperandSource("livein", reg=draw(st.sampled_from(LIVE_INS)))

    placements = []
    mem_pcs = []
    for pos, kind in enumerate(kinds):
        mem_index = None
        if kind == "alu":
            opcode, opclass, pool = draw(st.sampled_from(ALU_OPS))
            sources = [source(pos) for _ in range(draw(st.integers(1, 2)))]
            roles = ["src"] * len(sources)
        else:
            mem_index = len(mem_pcs)
            mem_pcs.append(0x400 + 4 * pos)
            pool = "ldst"
            if kind == "load":
                opcode, opclass = Opcode.LW, OpClass.LOAD
                sources, roles = [source(pos)], ["base"]
            else:
                opcode, opclass = Opcode.SW, OpClass.STORE
                sources = [source(pos), source(pos)]
                roles = ["base", "value"]
        placements.append(PlacedOp(
            pos=pos, opcode=opcode, opclass=opclass, stripe=stripes[pos],
            pe_index=0, pool=pool, sources=tuple(sources),
            source_roles=tuple(roles),
            dest_reg=None if kind == "store" else f"t{pos}",
            pc=0x400 + 4 * pos, mem_index=mem_index,
        ))
    producers = [p for p in range(n) if kinds[p] != "store"]
    live_outs = {f"t{p}": p for p in draw(
        st.lists(st.sampled_from(producers), max_size=3, unique=True))
    } if producers else {}
    return Configuration(
        trace_key=("generated",),
        placements=placements,
        live_ins=LIVE_INS,
        live_outs=live_outs,
        mem_op_pcs=tuple(mem_pcs),
    )


@st.composite
def invocations(draw, configuration):
    """Per-invocation inputs: addresses, the host scoreboard (which may
    lack a live-in: it is then ready at 0), memory waits and Store-Sets
    predictions (any position, older store or not)."""
    loads = [op.mem_index for op in configuration.placements if op.is_load]
    mem_ops = range(len(configuration.mem_op_pcs))
    positions = range(len(configuration.placements))
    return dict(
        gap=draw(st.integers(0, 30)),
        mem_addrs=[draw(st.sampled_from(ADDRESSES)) for _ in mem_ops],
        scoreboard=draw(st.dictionaries(
            st.sampled_from(LIVE_INS + ("r9",)), st.integers(0, 60))),
        extra_mem_wait=draw(st.dictionaries(
            st.sampled_from(mem_ops), st.integers(0, 120))
        ) if mem_ops else {},
        predicted_store_pos=draw(st.dictionaries(
            st.sampled_from(loads), st.sampled_from(positions))
        ) if loads else {},
    )


@st.composite
def scenarios(draw):
    configuration = draw(configurations())
    runs = draw(st.lists(invocations(configuration), min_size=1,
                         max_size=4))
    return configuration, runs


def _dcache() -> CacheHierarchy:
    return CacheHierarchy(Cache("L1D", 1, 2, 64, 2),
                          Cache("L2", 4, 4, 64, 12), 80)


def _books(fabric, dcache) -> tuple:
    # The occupancy books are charged when the lifetime closes.
    lifetimes = fabric.flush_lifetime()
    return (
        lifetimes,
        fabric.total_invocations,
        fabric.last_invocation_start,
        fabric.stripe_placed_invocations,
        fabric.stripe_invocations,
        fabric.filled_stripe_invocations,
        fabric.placed_pe_invocations,
        fabric.fifo._complete_ring,
        dcache.l1._sets,
        dcache.l1.hits,
        dcache.l1.misses,
    )


def _reference(configuration, runs, speculative):
    """What ``SpatialFabric.walk`` must return for each of ``runs`` back
    to back on one fabric, read off the reference ``InvocationResult``s,
    then the fabric's books."""
    fabric = SpatialFabric()
    dcache = _dcache()
    cycle = 0
    results = []
    fabric.configure(configuration, 0)
    for run in runs:
        cycle += run["gap"]
        scoreboard = run["scoreboard"]
        result = fabric.execute(configuration, InvocationContext(
            start_lower_bound=cycle,
            # The reference offload gives every live-in a cycle.
            live_in_ready={reg: scoreboard.get(reg, 0)
                           for reg in configuration.live_ins},
            mem_addrs=run["mem_addrs"],
            dcache_access=dcache.access,
            speculative=speculative,
            extra_mem_wait=run["extra_mem_wait"],
            predicted_store_pos=run["predicted_store_pos"],
        ))
        events = result.mem_events
        results.append((
            result.start,
            result.complete,
            result.occupancy_cycles,
            result.liveout_ready,
            [(e.pos, e.mem_index, e.addr, e.addr_known, e.finish)
             for e in events if e.kind == "store"],
            [(e.mem_index, e.start) for e in events if e.kind == "load"],
            result.violations,
        ))
    return results, _books(fabric, dcache)


def _walk(configuration, runs, speculative):
    """Every ``SpatialFabric.walk`` return of ``runs`` back to back on one
    fabric, then the fabric's books."""
    fabric = SpatialFabric()
    dcache = _dcache()
    cycle = 0
    results = []
    fabric.configure(configuration, 0)
    for run in runs:
        cycle += run["gap"]
        results.append(fabric.walk(
            configuration, cycle, run["scoreboard"], run["mem_addrs"],
            dcache.access, speculative, run["extra_mem_wait"],
            run["predicted_store_pos"],
        ))
    return results, _books(fabric, dcache)


@given(scenario=scenarios())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_plan_walk_matches_reference(scenario):
    configuration, runs = scenario
    for speculative in (True, False):
        reference = _reference(configuration, runs, speculative)
        walked = _walk(configuration, runs, speculative)
        assert walked == reference, f"speculative={speculative}"
