"""Differential fuzzing gate: seeded random programs must agree between
the reference interpreter and the lowered ISA program, across both
engine tiers, and under every optimization pass."""

import copy

import repro.lang
from repro.lang import PASSES, load_module, lower_module, run_passes
from repro.lang.fuzz import differential_check, generate_program, run_fuzz


def test_fifty_programs_agree_across_tiers_and_passes():
    summary = run_fuzz(count=50, seed=20260808)
    assert summary["programs"] == 50
    assert summary["output_words"] > 0


def test_generator_is_deterministic():
    assert generate_program(7) == generate_program(7)
    assert generate_program(7) != generate_program(8)


def test_differential_check_summary_shape():
    source = generate_program(123)
    summary = differential_check(source, filename="<seed 123>")
    assert summary["interp_dynamic"] > 0
    assert summary["lowered_dynamic"] > 0


def test_differential_check_parses_each_program_once(monkeypatch):
    """Every pass pipeline starts from the one checked module."""
    parsed = []
    parse = repro.lang.parse_module

    def counting_parse(*args, **kwargs):
        parsed.append(args)
        return parse(*args, **kwargs)

    monkeypatch.setattr(repro.lang, "parse_module", counting_parse)
    differential_check(generate_program(123), filename="<seed 123>")
    assert len(parsed) == 1


def test_passes_and_lowering_leave_their_input_unchanged():
    """``ingest_each`` hands one checked module to every pipeline, so no
    pass (alone or in the full pipeline) and no lowering may change the
    module it is given."""
    for seed in range(20260808, 20260808 + 30):
        module = load_module(generate_program(seed), f"<fuzz:{seed}>")
        before = copy.deepcopy(module)
        for names in [[name] for name in PASSES] + [list(PASSES)]:
            run_passes(module, names)
        lower_module(module, name="fuzz")
        assert module == before, f"seed {seed}"
