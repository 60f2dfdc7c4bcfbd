"""Unit tests for ROB/RS/LSQ/regfile/FU structural models."""

import pytest

from repro.isa.opcodes import OpClass
from repro.ooo.fus import FunctionalUnitPool, POOL_OF
from repro.ooo.lsq import LoadQueueModel, StoreQueueModel, StoreRecord
from repro.ooo.regfile import RegisterScoreboard
from repro.ooo.rob import ReorderBufferModel
from repro.ooo.rs import PriorityEncoder, ReservationStationModel


class Item:
    def __init__(self, seq, score=0):
        self.seq = seq
        self.score = score


# ---------------------------------------------------------------------------
# ROB
# ---------------------------------------------------------------------------
def test_rob_free_until_full():
    rob = ReorderBufferModel(4)
    for commit in (10, 20, 30, 40):
        assert rob.dispatch_ready_cycle() == 0
        rob.push(commit)
    # Full: next dispatch waits for the oldest (commit 10) to leave.
    assert rob.dispatch_ready_cycle() == 11
    rob.push(50)
    assert rob.dispatch_ready_cycle() == 21


def test_rob_drain_cycle_tracks_youngest_commit():
    rob = ReorderBufferModel(4)
    rob.push(10)
    rob.push(25)
    rob.push(15)
    assert rob.drain_cycle() == 25


def test_rob_rejects_zero_entries():
    with pytest.raises(ValueError):
        ReorderBufferModel(0)


# ---------------------------------------------------------------------------
# RS
# ---------------------------------------------------------------------------
def test_rs_capacity_constraint():
    rs = ReservationStationModel(2)
    rs.push(5)
    rs.push(9)
    assert rs.dispatch_ready_cycle() == 6
    rs.push(12)
    assert rs.dispatch_ready_cycle() == 10


def test_priority_encoder_plain_oldest_first():
    enc = PriorityEncoder()
    items = [Item(5), Item(2), Item(9)]
    assert enc.select(items).seq == 2


def test_priority_encoder_score_dominates_age():
    enc = PriorityEncoder()
    items = [Item(1, score=0), Item(9, score=3)]
    assert enc.select(items, score=lambda i: i.score).seq == 9


def test_priority_encoder_tie_broken_by_age():
    enc = PriorityEncoder()
    items = [Item(7, score=2), Item(3, score=2)]
    assert enc.select(items, score=lambda i: i.score).seq == 3


def test_priority_encoder_skips_infeasible():
    enc = PriorityEncoder()
    items = [Item(1, score=-1), Item(2, score=-1)]
    assert enc.select(items, score=lambda i: i.score) is None


def test_priority_encoder_empty():
    assert PriorityEncoder().select([]) is None


# ---------------------------------------------------------------------------
# LSQ
# ---------------------------------------------------------------------------
def make_store(seq, addr, addr_ready=0, data_ready=0):
    return StoreRecord(seq=seq, pc=seq * 4, addr=addr,
                       addr_ready=addr_ready, data_ready=data_ready)


def test_store_queue_youngest_alias():
    sq = StoreQueueModel(8)
    sq.push(make_store(1, 0x100))
    sq.push(make_store(3, 0x200))
    sq.push(make_store(5, 0x100))
    hit = sq.youngest_alias(0x100, before_seq=7)
    assert hit.seq == 5
    # Only stores older than the load are visible.
    hit = sq.youngest_alias(0x100, before_seq=5)
    assert hit.seq == 1
    assert sq.youngest_alias(0x300, before_seq=7) is None


def test_store_queue_youngest_older():
    sq = StoreQueueModel(8)
    sq.push(make_store(1, 0x100))
    sq.push(make_store(3, 0x200))
    assert sq.youngest_older(before_seq=3).seq == 1
    assert sq.youngest_older(before_seq=1) is None


def test_store_queue_window_bounded():
    sq = StoreQueueModel(2)
    for seq in range(5):
        sq.push(make_store(seq, 0x100))
    assert len(sq) == 2


def test_load_queue_capacity():
    lq = LoadQueueModel(2)
    lq.push(5)
    lq.push(8)
    assert lq.dispatch_ready_cycle() == 6


# ---------------------------------------------------------------------------
# Register scoreboard
# ---------------------------------------------------------------------------
def test_scoreboard_ready_and_producer():
    sb = RegisterScoreboard(256)
    assert sb.ready_cycle("r4") == 0
    sb.define("r4", 17)
    assert sb.ready_cycle("r4") == 17
    assert sb.renames == 1


def test_scoreboard_r0_never_renamed():
    sb = RegisterScoreboard(256)
    sb.define("r0", 99)
    assert sb.ready_cycle("r0") == 0
    assert sb.renames == 0


def test_scoreboard_requires_rename_headroom():
    with pytest.raises(ValueError):
        RegisterScoreboard(32)


# ---------------------------------------------------------------------------
# Functional units
# ---------------------------------------------------------------------------
def test_fu_pool_mapping_covers_all_classes():
    for opclass in OpClass:
        assert POOL_OF[opclass] in ("int_alu", "int_muldiv", "fp_alu",
                                    "fp_muldiv", "ldst")


def test_pipelined_unit_accepts_back_to_back():
    pool = FunctionalUnitPool({"int_alu": 1, "int_muldiv": 1, "fp_alu": 1,
                               "fp_muldiv": 1, "ldst": 1})
    assert pool.earliest_free(OpClass.INT_MUL, 0) == 0
    pool.acquire(OpClass.INT_MUL, 0, latency=3)   # pipelined: busy 1 cycle
    assert pool.earliest_free(OpClass.INT_MUL, 0) == 1


def test_unpipelined_divider_blocks():
    pool = FunctionalUnitPool({"int_alu": 1, "int_muldiv": 1, "fp_alu": 1,
                               "fp_muldiv": 1, "ldst": 1})
    pool.acquire(OpClass.INT_DIV, 0, latency=12)
    assert pool.earliest_free(OpClass.INT_DIV, 0) == 12
    # MUL shares the unit, so it is blocked too.
    assert pool.earliest_free(OpClass.INT_MUL, 0) == 12


def test_multiple_units_round_robin():
    pool = FunctionalUnitPool({"int_alu": 2, "int_muldiv": 1, "fp_alu": 1,
                               "fp_muldiv": 1, "ldst": 1})
    pool.acquire(OpClass.INT_ALU, 0, 1)
    assert pool.earliest_free(OpClass.INT_ALU, 0) == 0  # second unit free
    pool.acquire(OpClass.INT_ALU, 0, 1)
    assert pool.earliest_free(OpClass.INT_ALU, 0) == 1


def test_acquire_busy_unit_raises():
    pool = FunctionalUnitPool({"int_alu": 1, "int_muldiv": 1, "fp_alu": 1,
                               "fp_muldiv": 1, "ldst": 1})
    pool.acquire(OpClass.INT_DIV, 0, 12)
    with pytest.raises(ValueError):
        pool.acquire(OpClass.INT_DIV, 5, 12)
