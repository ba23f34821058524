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
    assert len(policy.iter_order(1)) == 1
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
    (victim,) = policy.iter_order(1)
    assert victim in blocks
    assert victim is policy.iter_order()[0]


@pytest.mark.parametrize("name", ALL)
def test_empty_policy(name):
    policy = make_policy(name, capacity_hint=32)
    assert policy.iter_order(1) == []
    assert policy.iter_order() == []
    assert len(policy) == 0


def test_lrw_victim_is_least_recently_written():
    policy = LRWPolicy()
    a, b = block(1, 0), block(1, 1)
    policy.on_buffered(a)
    policy.on_buffered(b)
    policy.on_write(a)
    assert policy.iter_order(1) == [b]


def test_lfu_prefers_low_frequency():
    policy = LFUPolicy()
    hot, cold = block(1, 0), block(1, 1)
    policy.on_buffered(cold)
    policy.on_buffered(hot)
    for _ in range(5):
        policy.on_write(hot)
    assert policy.iter_order(1) == [cold]


def test_lfu_ties_break_by_recency():
    policy = LFUPolicy()
    first, second = block(1, 0), block(1, 1)
    policy.on_buffered(first)
    policy.on_buffered(second)
    assert policy.iter_order(1) == [first]


def test_2q_promotion_on_rewrite():
    policy = TwoQPolicy(kin=0.01, capacity_hint=16)
    probation, promoted = block(1, 0), block(1, 1)
    policy.on_buffered(probation)
    policy.on_buffered(promoted)
    policy.on_write(promoted)  # promoted to Am
    # With A1in over-quota, the probation block goes first.
    assert policy.iter_order(1) == [probation]


def test_2q_under_quota_evicts_main_queue_first():
    policy = TwoQPolicy(capacity_hint=16)  # kin = 0.25
    main = [block(1, fb) for fb in range(3)]
    probation = block(1, 9)
    for item in main + [probation]:
        policy.on_buffered(item)
    for item in main:
        policy.on_write(item)  # promoted to Am
    # A1in holds 1 of 4 blocks, not more than kin: Am goes first.
    assert policy.iter_order() == main + [probation]
    policy.on_buffered(block(1, 10))
    # 2 of 5 is over the quota: probation first, in FIFO order.
    assert policy.iter_order(1) == [probation]


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
    assert policy.iter_order(1)[0] in (probation, reborn)
    # Am member survives while probation exceeds its quota.
    policy2 = TwoQPolicy(kin=0.01, capacity_hint=16)
    policy2.on_buffered(item)
    policy2.on_evict(item)
    reborn = block(1, 0)
    policy2.on_buffered(reborn)
    probation = block(1, 5)
    policy2.on_buffered(probation)
    assert policy2.iter_order(1) == [probation]


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
    assert policy.iter_order(1) == [once]


def test_arc_target_above_t1_evicts_t2_first():
    policy = ARCPolicy(capacity_hint=16)
    reborn = []
    for fb in (0, 1):  # two B1 ghost hits grow p to 2
        item = block(1, fb)
        policy.on_buffered(item)
        policy.on_evict(item)
        reborn.append(block(1, fb))
        policy.on_buffered(reborn[-1])  # straight to t2
    assert policy.p == 2
    once = block(1, 5)
    policy.on_buffered(once)
    # len(t1) = 1 < p: t2 goes first.
    assert policy.iter_order() == reborn + [once]
    policy.on_buffered(block(1, 6))
    # len(t1) = 2 >= p: t1 goes first.
    assert policy.iter_order(1) == [once]


def test_make_policy_unknown_name():
    with pytest.raises(KeyError):
        make_policy("fifo")


def test_registry_complete():
    assert set(POLICIES) == set(ALL)


@pytest.mark.parametrize("name", ALL)
@settings(max_examples=40, deadline=None)
@given(ops=st.lists(
    st.tuples(st.sampled_from(["insert", "write", "evict"]),
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
        assert len(policy) == len(live)
        order = policy.iter_order()
        assert sorted(b.file_block for b in order) == sorted(live)
        # A limited walk is a prefix of the full one (0 .. past the end).
        cut = fb % (len(order) + 2)
        assert policy.iter_order(limit=cut) == order[:cut]


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(
    st.tuples(st.sampled_from(["insert", "write", "evict", "reclaim"]),
              st.integers(min_value=0, max_value=15)),
    max_size=120,
))
def test_lrw_order_matches_a_reference_list(ops):
    """Victim order, not just membership: LRW is a list ordered by last
    write, oldest first, and reclaim takes its head."""
    policy = LRWPolicy()
    ref = [block(1, fb) for fb in range(8)]  # least recently written first
    for item in ref:
        policy.on_buffered(item)
    for op, fb in ops:
        if op == "insert":
            if all(item.file_block != fb for item in ref):
                ref.append(block(1, fb))
                policy.on_buffered(ref[-1])
        elif op == "write" and ref:
            item = ref.pop(fb % len(ref))
            policy.on_write(item)
            ref.append(item)
        elif op == "evict" and ref:
            policy.on_evict(ref.pop(fb % len(ref)))
        elif op == "reclaim" and ref:
            (victim,) = policy.iter_order(1)
            assert victim is ref.pop(0)
            policy.on_evict(victim)
        assert policy.iter_order() == ref
