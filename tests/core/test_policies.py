"""Unit and property tests for the buffer replacement policies."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buffer import BufferBlock
from repro.core.policies import (
    ARCPolicy,
    LFUPolicy,
    LRWPolicy,
    POLICIES,
    TwoQPolicy,
    make_policy,
)

ALL = ["lrw", "lfu", "2q", "arc"]


def block(ino, fb):
    return BufferBlock(ino, fb, dram_block=fb, nvmm_block=fb + 100)


@pytest.mark.parametrize("name", ALL)
def test_basic_lifecycle(name):
    policy = make_policy(name, capacity_hint=64)
    a, b, c = block(1, 0), block(1, 1), block(1, 2)
    for item in (a, b, c):
        policy.on_buffered(item)
    assert len(policy) == 3
    assert policy.victim() is not None
    policy.on_evict(b)
    assert len(policy) == 2
    remaining = set(policy.iter_order())
    assert remaining == {a, c}


@pytest.mark.parametrize("name", ALL)
def test_victim_is_member(name):
    policy = make_policy(name, capacity_hint=32)
    blocks = [block(1, i) for i in range(10)]
    rng = random.Random(7)
    for item in blocks:
        policy.on_buffered(item)
    for _ in range(30):
        policy.on_write(rng.choice(blocks))
    victim = policy.victim()
    assert victim in blocks
    assert victim in policy.iter_order()


@pytest.mark.parametrize("name", ALL)
def test_empty_policy(name):
    policy = make_policy(name, capacity_hint=32)
    assert policy.victim() is None
    assert policy.iter_order() == []
    assert len(policy) == 0


def test_lrw_victim_is_least_recently_written():
    policy = LRWPolicy()
    a, b = block(1, 0), block(1, 1)
    policy.on_buffered(a)
    policy.on_buffered(b)
    policy.on_write(a)
    assert policy.victim() is b


def test_lfu_prefers_low_frequency():
    policy = LFUPolicy()
    hot, cold = block(1, 0), block(1, 1)
    policy.on_buffered(cold)
    policy.on_buffered(hot)
    for _ in range(5):
        policy.on_write(hot)
    assert policy.victim() is cold


def test_lfu_ties_break_by_recency():
    policy = LFUPolicy()
    first, second = block(1, 0), block(1, 1)
    policy.on_buffered(first)
    policy.on_buffered(second)
    assert policy.victim() is first


def test_2q_promotion_on_rewrite():
    policy = TwoQPolicy(kin=0.01, capacity_hint=16)
    probation, promoted = block(1, 0), block(1, 1)
    policy.on_buffered(probation)
    policy.on_buffered(promoted)
    policy.on_write(promoted)  # promoted to Am
    # With A1in over-quota, the probation block goes first.
    assert policy.victim() is probation


def test_2q_ghost_readmission():
    policy = TwoQPolicy(capacity_hint=16)
    item = block(1, 0)
    policy.on_buffered(item)
    policy.on_evict(item)  # remembered in A1out
    reborn = block(1, 0)  # same (ino, file_block)
    policy.on_buffered(reborn)
    # Straight to Am: a fresh probation block should be victimised first.
    probation = block(1, 5)
    policy.on_buffered(probation)
    assert policy.victim() in (probation, reborn)
    # Am member survives while probation exceeds its quota.
    policy2 = TwoQPolicy(kin=0.01, capacity_hint=16)
    policy2.on_buffered(item)
    policy2.on_evict(item)
    reborn = block(1, 0)
    policy2.on_buffered(reborn)
    probation = block(1, 5)
    policy2.on_buffered(probation)
    assert policy2.victim() is probation


def test_arc_ghost_hit_adapts_target():
    policy = ARCPolicy(capacity_hint=16)
    item = block(1, 0)
    policy.on_buffered(item)
    policy.on_evict(item)  # -> B1 ghost
    p_before = policy.p
    policy.on_buffered(block(1, 0))  # ghost hit in B1
    assert policy.p > p_before


def test_arc_rewrite_moves_to_t2():
    policy = ARCPolicy(capacity_hint=16)
    once, twice = block(1, 0), block(1, 1)
    policy.on_buffered(once)
    policy.on_buffered(twice)
    policy.on_write(twice)
    # t1 preferred while >= p: the once-written block goes first.
    assert policy.victim() is once


def test_make_policy_unknown_name():
    with pytest.raises(KeyError):
        make_policy("fifo")


def test_registry_complete():
    assert set(POLICIES) == set(ALL)


@pytest.mark.parametrize("name", ALL)
@settings(max_examples=40, deadline=None)
@given(ops=st.lists(
    st.tuples(st.sampled_from(["insert", "write", "evict", "victim"]),
              st.integers(min_value=0, max_value=15)),
    max_size=120,
))
def test_policy_never_loses_or_duplicates_blocks(name, ops):
    """Membership invariant: iter_order() is exactly the live set."""
    policy = make_policy(name, capacity_hint=16)
    live = {}
    for op, fb in ops:
        if op == "insert" and fb not in live:
            item = block(1, fb)
            live[fb] = item
            policy.on_buffered(item)
        elif op == "write" and fb in live:
            policy.on_write(live[fb])
        elif op == "evict" and live:
            key = sorted(live)[fb % len(live)]
            policy.on_evict(live.pop(key))
        elif op == "victim":
            victim = policy.victim()
            assert (victim is None) == (not live)
            if victim is not None:
                assert victim in live.values()
        assert len(policy) == len(live)
        order = policy.iter_order()
        assert sorted(b.file_block for b in order) == sorted(live)
        # A limited walk is a prefix of the full one (0 .. past the end).
        cut = fb % (len(order) + 2)
        assert policy.iter_order(limit=cut) == order[:cut]
