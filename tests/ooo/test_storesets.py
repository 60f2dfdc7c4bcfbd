"""Unit tests for the Store-Sets memory dependence predictor."""

from repro.ooo.storesets import StoreSetPredictor


def test_untrained_predictor_predicts_independence():
    p = StoreSetPredictor()
    p.store_dispatched(0x100, 5)
    assert p.load_dispatched(0x200) is None


def test_violation_training_creates_shared_set():
    p = StoreSetPredictor()
    p.train_violation(load_pc=0x200, store_pc=0x100)
    assert p.same_set(0x200, 0x100)
    p.store_dispatched(0x100, seq=7)
    assert p.load_dispatched(0x200) == 7


def test_load_waits_on_most_recent_store_in_set():
    p = StoreSetPredictor()
    p.train_violation(0x200, 0x100)
    p.store_dispatched(0x100, seq=7)
    p.store_dispatched(0x100, seq=11)
    assert p.load_dispatched(0x200) == 11


def test_stores_in_one_set_serialize():
    p = StoreSetPredictor()
    p.train_violation(0x200, 0x100)
    p.train_violation(0x200, 0x104)  # second store joins the same set
    assert p.store_dispatched(0x100, seq=3) is None
    assert p.store_dispatched(0x104, seq=5) == 3


def test_merging_two_existing_sets():
    p = StoreSetPredictor()
    p.train_violation(0x200, 0x100)   # set A: load 0x200, store 0x100
    p.train_violation(0x300, 0x104)   # set B: load 0x300, store 0x104
    p.train_violation(0x200, 0x104)   # merge A and B
    p.store_dispatched(0x104, seq=4)
    assert p.load_dispatched(0x200) == 4

