"""Optimization-pass semantics over the shipped corpus.

Two properties per pass: it must preserve interpreter output on *every*
corpus program, and it must strictly reduce the dynamic instruction
count on at least one (so a pass can never silently decay into a no-op).
"""

import copy
import pathlib

import pytest

from repro.lang import (
    PASSES,
    check_module,
    load_file,
    parse_pass_spec,
    run_passes,
)
from repro.lang.interp import interpret

CORPUS = sorted(
    (pathlib.Path(__file__).resolve().parents[2] / "corpus").glob("*.spam")
)
CORPUS_IDS = [p.stem for p in CORPUS]


def test_corpus_is_at_least_eight_programs():
    assert len(CORPUS) >= 8


@pytest.mark.parametrize("path", CORPUS, ids=CORPUS_IDS)
@pytest.mark.parametrize("pass_name", sorted(PASSES))
def test_pass_preserves_output_on_corpus(path, pass_name):
    module = load_file(str(path))
    ref = interpret(module)
    optimized = run_passes(copy.deepcopy(module), [pass_name])
    check_module(optimized, allow_reserved=True)
    assert interpret(optimized).output == ref.output


@pytest.mark.parametrize("pass_name", sorted(PASSES))
def test_each_pass_strictly_reduces_somewhere(pass_name):
    reduced = []
    for path in CORPUS:
        module = load_file(str(path))
        base = interpret(module).dynamic_count
        optimized = run_passes(copy.deepcopy(module), [pass_name])
        if interpret(optimized).dynamic_count < base:
            reduced.append(path.stem)
    assert reduced, f"{pass_name} reduced dynamic count on no corpus program"


@pytest.mark.parametrize("path", CORPUS, ids=CORPUS_IDS)
def test_full_pipeline_preserves_output(path):
    module = load_file(str(path))
    ref = interpret(module)
    optimized = run_passes(copy.deepcopy(module), ["lvn", "dce", "licm"])
    check_module(optimized, allow_reserved=True)
    result = interpret(optimized)
    assert result.output == ref.output
    assert result.dynamic_count <= ref.dynamic_count + 16


def test_parse_pass_spec():
    assert parse_pass_spec("lvn,dce") == ("lvn", "dce")
    assert parse_pass_spec(" licm ") == ("licm",)
    assert parse_pass_spec("none") == parse_pass_spec(None) == ()
    with pytest.raises(ValueError) as err:
        parse_pass_spec("lvn,nope")
    assert "nope" in str(err.value)


def test_dce_keeps_dead_alloc():
    """A dead alloc still advances the bump pointer — removing it would
    shift every later allocation's address, which is observable."""
    from repro.lang import load_module

    module = load_module("""\
@main {
  n: int = const 2;
  dead: ptr = alloc n;
  live: ptr = alloc n;
  v: int = const 9;
  store live v;
  w: int = load live;
  print w;
  ret;
}
""", filename="alloc.spam")
    ref = interpret(module)
    optimized = run_passes(copy.deepcopy(module), ["dce"])
    ops = [i.op for fn in optimized.functions for i in fn.instructions()]
    assert ops.count("alloc") == 2
    assert interpret(optimized).output == ref.output


def test_licm_never_hoists_trapping_ops_speculatively():
    """A div guarded by the loop condition must not be hoisted past it."""
    from repro.lang import load_module

    module = load_module("""\
@main {
  zero: int = const 0;
  one: int = const 1;
  ten: int = const 10;
  d: int = const 0;
  i: int = id zero;
  acc: int = id zero;
.head:
  c: bool = eq d zero;
  br c .done .body;
.body:
  q: int = div ten d;
  acc: int = add acc q;
  i: int = add i one;
  jmp .head;
.done:
  print acc;
  ret;
}
""", filename="guard.spam")
    ref = interpret(module)
    optimized = run_passes(copy.deepcopy(module), ["licm"])
    assert interpret(optimized).output == ref.output
