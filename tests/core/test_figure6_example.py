"""The paper's Figure 6 mapping example, recreated.

Section 4.3 walks a 9-instruction trace through the mapping process:

* cycle 0 — four instructions are ready; three need routing (priority 0)
  and one needs *two live-in input ports* (priority 3), so the priority
  encoder places the two-live-in instruction ahead of older ones;
* cycle 1 — the frontier advances; more instructions become ready as
  their producers complete;
* cycle 2 — an instruction whose operands both sit in the previous
  stripe's pass registers gets priority 2 (full reuse) and lands where no
  new datapath is needed.

The test builds a trace with the same dependence structure and checks the
same scheduling outcomes: the two-live-in instruction reaches stripe 0
despite being youngest, every placement validates, and the full-reuse
instruction consumes no routing channels.
"""

from repro.core.mapper import analyze_trace, ResourceAwareMapper
from repro.core.naive_mapper import NaiveMapper
from repro.core.priority import priority_gen, PRIORITY_TWO_LIVEIN
from repro.core.tables import MappingTables
from repro.isa.builder import ProgramBuilder
from repro.isa.executor import FunctionalExecutor


def figure6_trace():
    """Nine instructions shaped like Figure 6's example.

    Positions 0, 1, 3: single-live-in producers (ready in cycle 0).
    Position 7: a fourth single-live-in producer (fills the last ALU
    under in-order placement).
    Position 8: requires two live-ins (priority 3 in cycle 0).
    Positions 2, 4: consume cycle-0 results.
    Position 6: consumes two values produced in the same stripe — the
    full-reuse (priority 2) case of the paper's cycle 2.
    Positions 5, 9: further consumers.
    """
    b = ProgramBuilder("fig6")
    b.addi("r3", "r10", 1)      # 0: live-in r10
    b.addi("r4", "r11", 2)      # 1: live-in r11
    b.add("r5", "r3", "r3")     # 2: consumes #0
    b.addi("r6", "r12", 3)      # 3: live-in r12
    b.add("r7", "r4", "r4")     # 4: consumes #1
    b.add("r8", "r5", "r5")     # 5: consumes #2
    b.add("r9", "r3", "r4")     # 6: consumes #0 and #1 (reuse pair)
    b.addi("r17", "r18", 4)     # 7: a fourth single-live-in producer
    b.add("r13", "r14", "r15")  # 8: two live-ins -> needs two input ports
    b.add("r16", "r7", "r6")    # 9: consumes #4 and #3
    b.halt()
    return FunctionalExecutor().run(b.build()).trace[:-1]


def test_two_livein_instruction_wins_stripe_zero():
    trace = figure6_trace()
    key = (0, (), len(trace))
    config = ResourceAwareMapper().map_trace(trace, key)
    assert config is not None
    config.validate()
    # Instruction 8 (youngest among the cycle-0 candidates) still lands in
    # stripe 0: priority 3 beats the host oldest-first rule.
    assert config.op_at(8).stripe == 0
    # Three of the four older single-live-in producers share stripe 0; the
    # displaced one takes a one-port PE in a later stripe.
    stripes = [config.op_at(p).stripe for p in (0, 1, 3, 7)]
    assert stripes.count(0) == 3


def test_priority_scores_match_paper_cycle0():
    trace = figure6_trace()
    ops, live_ins, _ = analyze_trace(trace)
    from repro.fabric.config import FabricConfig
    from repro.fabric.stripe import build_stripes

    fcfg = FabricConfig()
    stripe0 = build_stripes(fcfg)[0]
    tables = MappingTables(
        fcfg.num_stripes,
        [fcfg.channels_in_stripe(s) for s in range(fcfg.num_stripes)],
    )
    pe = stripe0.pes_of_pool("int_alu")[0]
    # Cycle 0 ready set: 0, 1, 3, 7 (single live-in, priority 0) and 8
    # (two live-ins, priority 3).
    scores = {
        op.pos: priority_gen(pe, op.operand_tokens, tables, 0).score
        for op in ops
        if op.pos in (0, 1, 3, 7, 8)
    }
    assert scores[8] == PRIORITY_TWO_LIVEIN
    assert scores[0] == scores[1] == scores[3] == scores[7] == 0


def test_reuse_pair_consumes_no_new_channels():
    trace = figure6_trace()
    key = (0, (), len(trace))
    config = ResourceAwareMapper().map_trace(trace, key)
    reuse_op = config.op_at(6)
    # Both operands come from stripe-0 producers one stripe up: direct
    # wires / pass registers, one hop, no multi-stripe routing.
    assert all(src.hops == 1 for src in reuse_op.sources)
    assert reuse_op.stripe == 1


def test_naive_ordering_fails_figure6():
    """The paper: 'if the instructions were placed in program order,
    Instruction 7 would not be placed in the first row, resulting in an
    infeasible schedule'."""
    trace = figure6_trace()
    key = (0, (), len(trace))
    assert NaiveMapper().map_trace(trace, key) is None


def test_schedule_depth_matches_dataflow():
    trace = figure6_trace()
    key = (0, (), len(trace))
    config = ResourceAwareMapper().map_trace(trace, key)
    # Dataflow depth is 3 (e.g. 0 -> 2 -> 5): three stripes suffice.
    assert config.stripes_used == 3
