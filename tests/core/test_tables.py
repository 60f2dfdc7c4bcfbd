"""Unit tests for the mapping status tables (ProdTable/ReuseSet/...)."""

import pytest

from repro.core.tables import MappingTables, livein_token, pos_token


def make_tables(stripes=8, channels=4):
    return MappingTables(num_stripes=stripes, channels_per_stripe=channels)


def test_define_publishes_to_next_boundary():
    t = make_tables()
    t.define(pos_token(0), stripe=2)
    assert t.prod_stripe[pos_token(0)] == 2
    assert t.in_reuse_set(pos_token(0), boundary=3)
    assert not t.in_reuse_set(pos_token(0), boundary=4)


def test_route_allocation_consumes_channels_and_extends_reuse():
    t = make_tables(channels=2)
    t.define(pos_token(0), stripe=0)
    assert t.can_route(pos_token(0), to_boundary=4)
    consumed = t.allocate_route(pos_token(0), to_boundary=4)
    assert consumed == 3                     # boundaries 2,3,4 via stripes 1,2,3
    for boundary in (1, 2, 3, 4):
        assert t.in_reuse_set(pos_token(0), boundary)
    assert t.channels_used[1] == 1
    assert t.channels_used[3] == 1
    assert t.total_channels_allocated == 3


def test_route_reuses_existing_prefix():
    t = make_tables()
    t.define(pos_token(0), stripe=0)
    t.allocate_route(pos_token(0), to_boundary=3)
    before = t.total_channels_allocated
    t.allocate_route(pos_token(0), to_boundary=5)
    assert t.total_channels_allocated == before + 2


def test_can_route_fails_when_channels_exhausted():
    t = make_tables(channels=1)
    t.define(pos_token(0), stripe=0)
    t.define(pos_token(1), stripe=0)
    t.allocate_route(pos_token(0), to_boundary=3)
    # Stripe 1's single channel is taken; token 1 cannot reach boundary 3.
    assert not t.can_route(pos_token(1), to_boundary=3)


def test_can_route_unknown_token():
    t = make_tables()
    assert not t.can_route(pos_token(99), to_boundary=2)


def test_allocate_route_unknown_token_raises():
    t = make_tables()
    with pytest.raises(ValueError):
        t.allocate_route(pos_token(99), to_boundary=2)


def test_propagate_carries_live_tokens_forward():
    t = make_tables(channels=4)
    t.define(pos_token(0), stripe=0)   # available at boundary 1
    t.propagate(from_boundary=1, live_tokens={pos_token(0)})
    assert t.in_reuse_set(pos_token(0), boundary=2)
    assert t.channels_used[1] == 1


def test_propagate_skips_dead_tokens():
    t = make_tables()
    t.define(pos_token(0), stripe=0)
    t.propagate(from_boundary=1, live_tokens=set())
    assert not t.in_reuse_set(pos_token(0), boundary=2)


def test_propagate_respects_capacity():
    t = make_tables(channels=1)
    t.define(pos_token(0), stripe=0)
    t.define(pos_token(1), stripe=0)
    live = {pos_token(0), pos_token(1)}
    t.propagate(from_boundary=1, live_tokens=live)
    carried = [tok for tok in live if t.in_reuse_set(tok, 2)]
    assert len(carried) == 1  # only one channel available


def test_livein_tokens_never_have_producers():
    t = make_tables()
    assert livein_token("r5") not in t.prod_stripe
    assert not t.can_route(livein_token("r5"), 3)


def test_live_out_and_last_used_tables():
    t = make_tables()
    t.set_live_out("r7", pos=12)
    assert t.live_out == {"r7": 12}
    t.note_use(pos_token(12), stripe=3)
    t.note_use(pos_token(12), stripe=1)  # earlier use does not regress
    assert t.last_used[pos_token(12)] == 3
