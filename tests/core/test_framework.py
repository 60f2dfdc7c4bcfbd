"""Integration tests for the full DynaSpAM framework."""

import pytest

from repro.core import DynaSpAM, DynaSpAMConfig
from repro.isa.builder import ProgramBuilder
from repro.isa.executor import FunctionalExecutor, Memory
from repro.ooo.pipeline import OOOPipeline
from repro.workloads import generate_trace

SCALE = 0.25


def run_program(build, memory=None):
    b = ProgramBuilder("t")
    build(b)
    b.halt()
    program = b.build()
    result = FunctionalExecutor().run(program, memory)
    return result


def hot_loop(iterations=400):
    def body(b):
        b.li("r1", 0x100)
        b.fli("f1", 2.0)
        with b.countdown("loop", "r2", iterations):
            b.flw("f2", "r1", 0)
            b.fmul("f3", "f2", "f1")
            b.fadd("f4", "f4", "f3")
            b.fsw("r1", "f3", 0x1000)
            b.addi("r1", "r1", 4)
    return body


def make_memory():
    mem = Memory()
    mem.store_array(0x100, [1.0] * 512)
    return mem


def dyna(mode="accelerate", **kw):
    return DynaSpAM(ds_config=DynaSpAMConfig(mode=mode, **kw))


def test_baseline_mode_matches_plain_pipeline():
    result = run_program(hot_loop(100), make_memory())
    plain = OOOPipeline().run_trace(result.trace)
    ds = dyna(mode="baseline")
    out = ds.run(result.trace, result.program)
    assert out.cycles == plain.cycles
    assert out.offloaded_instructions == 0
    assert out.mapping_instructions == 0


def test_hot_loop_is_detected_mapped_and_offloaded():
    result = run_program(hot_loop(), make_memory())
    ds = dyna()
    out = ds.run(result.trace, result.program)
    assert out.mapped_traces >= 1
    assert out.offloaded_traces >= 1
    assert out.offloaded_instructions > 0.5 * result.dynamic_count
    assert out.stats.fabric_invocations > 50


def test_hot_loop_speeds_up():
    result = run_program(hot_loop(), make_memory())
    base = OOOPipeline().run_trace(result.trace)
    out = dyna().run(result.trace, result.program)
    assert out.cycles < base.cycles


def test_coverage_fractions_sum_to_one():
    result = run_program(hot_loop(), make_memory())
    out = dyna().run(result.trace, result.program)
    cov = out.coverage
    assert cov["host"] + cov["mapping"] + cov["fabric"] == pytest.approx(1.0)
    assert out.total_instructions == result.dynamic_count


def test_mapping_only_mode_never_offloads():
    result = run_program(hot_loop(), make_memory())
    out = dyna(mode="mapping_only").run(result.trace, result.program)
    assert out.mapped_traces >= 1
    assert out.offloaded_instructions == 0
    assert out.mapping_instructions > 0


def test_mapping_only_overhead_is_small():
    """Paper: mapping alone causes < ~3% slowdown."""
    result = run_program(hot_loop(), make_memory())
    base = OOOPipeline().run_trace(result.trace)
    out = dyna(mode="mapping_only").run(result.trace, result.program)
    assert out.cycles <= base.cycles * 1.05


def test_short_program_never_accelerates():
    """Too few repetitions: nothing becomes hot or ready."""
    result = run_program(hot_loop(4), make_memory())
    out = dyna().run(result.trace, result.program)
    assert out.offloaded_instructions == 0


def test_lifetime_accounting_single_loop():
    result = run_program(hot_loop(600), make_memory())
    out = dyna().run(result.trace, result.program)
    assert out.lifetimes, "no configuration lifetime recorded"
    assert out.mean_lifetime > 50


def test_instructions_conserved_across_modes():
    result = run_program(hot_loop(), make_memory())
    for mode in ("baseline", "mapping_only", "accelerate"):
        out = dyna(mode=mode).run(result.trace, result.program)
        assert out.total_instructions == result.dynamic_count, mode


def test_unbiased_branches_cause_squashes():
    mem = Memory()
    noise = [(i * 2654435761) % 2 for i in range(600)]
    mem.store_array(0x100, noise)

    def body(b):
        b.li("r1", 0x100)
        with b.countdown("loop", "r2", 600):
            b.lw("r3", "r1", 0)
            b.beq("r3", "r0", "skip")
            b.addi("r4", "r4", 1)
            b.label("skip")
            b.addi("r1", "r1", 4)

    result = run_program(body, mem)
    out = dyna().run(result.trace, result.program)
    # Data-dependent branches: offload predictions sometimes wrong.
    if out.stats.fabric_invocations:
        assert out.squashes > 0


def test_results_identical_across_repeat_runs():
    result = run_program(hot_loop(), make_memory())
    a = dyna().run(result.trace, result.program)
    b = dyna().run(result.trace, result.program)
    assert a.cycles == b.cycles
    assert a.stats.as_dict() == b.stats.as_dict()


def test_naive_mapper_mode_runs():
    result = run_program(hot_loop(), make_memory())
    out = dyna(mapper="naive").run(result.trace, result.program)
    assert out.total_instructions == result.dynamic_count


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        DynaSpAMConfig(mode="bogus")
    with pytest.raises(ValueError):
        DynaSpAMConfig(mapper="bogus")


@pytest.mark.parametrize("field", [
    "trace_length", "max_branches", "tcache_clear_interval",
    "config_clear_interval",
])
def test_non_positive_loop_bounds_rejected(field):
    with pytest.raises(ValueError, match=field):
        DynaSpAMConfig(**{field: 0})
    with pytest.raises(ValueError, match=field):
        DynaSpAMConfig(**{field: -1})
    DynaSpAMConfig(**{field: 1})


def test_speculation_off_is_no_faster():
    result = run_program(hot_loop(), make_memory())
    fast = dyna(speculation=True).run(result.trace, result.program)
    slow = dyna(speculation=False).run(result.trace, result.program)
    assert slow.cycles >= fast.cycles


@pytest.mark.parametrize("abbrev", ["KM", "NW", "BFS"])
def test_benchmark_end_to_end(abbrev):
    res = generate_trace(abbrev, SCALE)
    base = OOOPipeline().run_trace(res.trace)
    out = dyna().run(res.trace, res.program)
    assert out.total_instructions == res.dynamic_count
    # DynaSpAM must stay within a sane band of the baseline.
    assert out.cycles < base.cycles * 1.3


def test_energy_relevant_counters_populated():
    result = run_program(hot_loop(), make_memory())
    out = dyna().run(result.trace, result.program)
    s = out.stats
    assert s.fabric_fu_ops > 0
    assert s.fabric_datapath_transfers > 0
    assert s.fabric_fifo_ops > 0
    assert s.config_cache_reads > 0
    assert s.offloaded_instructions == out.offloaded_instructions
    # Offloaded instructions skip fetch: fewer fetches than instructions.
    assert s.fetches < s.instructions
