"""Unit tests for the gshare/BTB branch predictor."""

import copy
import random

import pytest

from repro.ooo.branch_predictor import BranchPredictor
from repro.ooo.config import CoreConfig


def test_two_bit_counters_saturate():
    """Training moves a branch's 2-bit bimodal counter only within 0..3."""
    bp = BranchPredictor()
    index = (0x40 >> 2) & bp.mask
    for _ in range(10):
        bp.predict_and_update(0x40, True)
    assert bp.bimodal[index] == 3
    for _ in range(10):
        bp.predict_and_update(0x40, False)
    assert bp.bimodal[index] == 0
    assert all(0 <= c <= 3 for c in bp.gshare + bp.chooser)


def test_learns_always_taken_branch():
    """The bimodal side locks onto a biased branch within two updates."""
    bp = BranchPredictor()
    pc = 0x40
    for _ in range(4):
        bp.predict_and_update(pc, True)
    assert bp.predict_and_update(pc, True) is True


def test_learns_alternating_pattern_via_history():
    """Gshare separates the two history contexts of an alternating branch."""
    bp = BranchPredictor()
    pc = 0x80
    outcomes = [bool(i % 2) for i in range(200)]
    mispredicts_late = 0
    for i, taken in enumerate(outcomes):
        predicted = bp.predict_and_update(pc, taken)
        if i >= 100 and predicted != taken:
            mispredicts_late += 1
    assert mispredicts_late == 0


def test_mispredict_counting_and_accuracy():
    bp = BranchPredictor()
    mispredicts = sum(
        bp.predict_and_update(0x10, True) is not True for _ in range(100)
    )
    assert mispredicts <= 2


def test_peek_does_not_perturb_state():
    bp = BranchPredictor()
    for _ in range(3):
        bp.predict_and_update(0x20, True)
    state = (list(bp.bimodal), list(bp.gshare), list(bp.chooser), bp.history)
    history = bp.history
    for pc in (0x20, 0x24, 0x28):
        _, history = bp.peek(pc, history)
    assert (list(bp.bimodal), list(bp.gshare), list(bp.chooser), bp.history) == state


@pytest.mark.parametrize("kind", ["tournament", "bimodal", "gshare"])
def test_peek_matches_predict_for_same_state(kind):
    """``peek`` predicts what ``predict_and_update`` would under the same
    tables and a nonzero history, and shifts the history as training on
    that outcome does: the predicted-trace walk relies on both, on every
    engine tier."""
    bp = BranchPredictor(CoreConfig(predictor_kind=kind))
    rng = random.Random(kind)
    disagreements = set()
    nonzero = 0
    for _ in range(400):
        pc = rng.choice((0x30, 0x34, 0x1030, 0x2c))
        nonzero += bp.history != 0
        peeked, history = bp.peek(pc, bp.history)
        trained = copy.deepcopy(bp)
        trained.predict_and_update(pc, peeked)
        assert history == trained.history
        pc_index = (pc >> 2) & bp.mask
        disagreements.add(
            (bp.bimodal[pc_index] >= 2)
            != (bp.gshare[pc_index ^ bp.history] >= 2))
        assert bp.predict_and_update(pc, rng.random() < 0.6) == peeked
    # Nearly every peek ran under a nonzero history, and the component
    # tables disagreed on some, so the kind (and the tournament's
    # chooser) decided them.
    assert nonzero > 390
    assert disagreements == {False, True}


def test_btb_miss_then_hit():
    bp = BranchPredictor()
    assert bp.btb_lookup(0x100) is False
    assert bp.btb_lookup(0x100) is True


def test_btb_capacity_bounded():
    cfg = CoreConfig()
    bp = BranchPredictor(cfg)
    for i in range(cfg.btb_entries + 100):
        bp.btb_lookup(i * 4)
    assert len(bp.btb) <= cfg.btb_entries
