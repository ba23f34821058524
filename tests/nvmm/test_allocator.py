"""Unit and property tests for the bitmap block allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.nvmm.allocator import BlockAllocator, OutOfSpaceError


def test_alloc_returns_unique_blocks():
    alloc = BlockAllocator(10)
    blocks = [alloc.alloc() for _ in range(10)]
    assert sorted(blocks) == list(range(10))


def test_exhaustion_raises():
    alloc = BlockAllocator(2)
    alloc.alloc()
    alloc.alloc()
    with pytest.raises(OutOfSpaceError):
        alloc.alloc()


def test_free_allows_reuse():
    alloc = BlockAllocator(1)
    block = alloc.alloc()
    alloc.free(block)
    assert alloc.alloc() == block


def test_double_free_rejected():
    alloc = BlockAllocator(4)
    block = alloc.alloc()
    alloc.free(block)
    with pytest.raises(ValueError):
        alloc.free(block)


def test_free_unallocated_rejected():
    alloc = BlockAllocator(4)
    with pytest.raises(ValueError):
        alloc.free(0)


def test_out_of_range_rejected():
    alloc = BlockAllocator(4, first_block=10)
    with pytest.raises(ValueError):
        alloc.free(3)
    with pytest.raises(ValueError):
        alloc.is_allocated(14)


def test_first_block_offset():
    alloc = BlockAllocator(3, first_block=100)
    assert alloc.alloc() == 100
    assert alloc.alloc() == 101


def test_counts():
    alloc = BlockAllocator(5)
    assert (alloc.free_count, alloc.used_count) == (5, 0)
    alloc.alloc()
    assert (alloc.free_count, alloc.used_count) == (4, 1)


def test_alloc_many():
    alloc = BlockAllocator(8)
    blocks = alloc.alloc_many(5)
    assert len(set(blocks)) == 5
    with pytest.raises(OutOfSpaceError):
        alloc.alloc_many(4)


def test_sequential_allocations_are_contiguous():
    alloc = BlockAllocator(100)
    blocks = alloc.alloc_many(10)
    assert blocks == list(range(10))


def test_mark_allocated():
    alloc = BlockAllocator(4)
    alloc.mark_allocated(2)
    assert alloc.is_allocated(2)
    remaining = {alloc.alloc() for _ in range(3)}
    assert remaining == {0, 1, 3}


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.sampled_from(["alloc", "free"]), min_size=1, max_size=200)
)
def test_allocator_never_hands_out_duplicates(ops):
    alloc = BlockAllocator(16)
    held = []
    for op in ops:
        if op == "alloc" and alloc.free_count:
            block = alloc.alloc()
            assert block not in held
            held.append(block)
        elif op == "free" and held:
            alloc.free(held.pop())
        assert alloc.used_count == len(held)
        assert alloc.free_count + alloc.used_count == 16


class _LowestFreeFirst(RuleBasedStateMachine):
    """The allocator against its specification: the free blocks are a
    set, ``alloc()`` returns its minimum, ``alloc_run(n)`` the lowest
    start of n consecutive members, a quarantined block never returns
    to it."""

    FIRST, COUNT = 7, 24
    blocks = st.integers(FIRST, FIRST + COUNT - 1)

    def __init__(self):
        super().__init__()
        self.alloc = BlockAllocator(self.COUNT, first_block=self.FIRST)
        self.free = set(range(self.FIRST, self.FIRST + self.COUNT))
        self.quarantined = set()

    @rule()
    def alloc_one(self):
        if not self.free:
            with pytest.raises(OutOfSpaceError):
                self.alloc.alloc()
            return
        block = self.alloc.alloc()
        assert block == min(self.free)
        self.free.remove(block)

    @rule(count=st.integers(1, 6))
    def alloc_run(self, count):
        runs = [block for block in sorted(self.free)
                if all(block + i in self.free for i in range(count))]
        if not runs:
            with pytest.raises(OutOfSpaceError):
                self.alloc.alloc_run(count)
            return
        first = self.alloc.alloc_run(count)
        assert first == runs[0]
        self.free.difference_update(range(first, first + count))

    @rule(block=blocks)
    def free_one(self, block):
        if block in self.free:
            with pytest.raises(ValueError):
                self.alloc.free(block)
            return
        self.alloc.free(block)
        if block not in self.quarantined:
            self.free.add(block)

    @rule(block=blocks)
    def mark_allocated(self, block):
        self.alloc.mark_allocated(block)
        self.free.discard(block)

    @rule(block=blocks)
    def quarantine(self, block):
        self.alloc.quarantine(block)
        self.free.discard(block)
        self.quarantined.add(block)

    @rule(block=st.sampled_from([FIRST - 1, FIRST + COUNT, 0, -1]))
    def out_of_range(self, block):
        for call in (self.alloc.free, self.alloc.mark_allocated,
                     self.alloc.quarantine, self.alloc.is_allocated):
            with pytest.raises(ValueError):
                call(block)

    @invariant()
    def agrees_with_the_reference(self):
        alloc = self.alloc
        assert alloc.free_count == len(self.free)
        assert alloc.free_count + alloc.used_count == alloc.num_blocks
        assert alloc.quarantined == self.quarantined
        for block in range(self.FIRST, self.FIRST + self.COUNT):
            assert alloc.is_allocated(block) == (block not in self.free)


_LowestFreeFirst.TestCase.settings = settings(
    max_examples=60, stateful_step_count=60, deadline=None)
TestLowestFreeFirst = _LowestFreeFirst.TestCase


class _BlockAtATime(BlockAllocator):
    """The reference for the run-granular calls: ``alloc_many`` and
    ``free_many`` as loops of :meth:`alloc` and :meth:`free`."""

    def alloc_many(self, count):
        if count > self.free_count:
            raise OutOfSpaceError(
                "asked for %d blocks, only %d free" % (count, self.free_count)
            )
        return [self.alloc() for _ in range(count)]

    def free_many(self, blocks):
        for block in blocks:
            self.free(block)


def _state(alloc):
    return bytes(alloc._map), alloc._low, alloc.free_count, alloc.quarantined


def _outcome(alloc, name, args):
    try:
        return "ok", getattr(alloc, name)(*args)
    except (ValueError, OutOfSpaceError) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_run_granular_calls_match_block_at_a_time_calls(data):
    """Interleaved ``alloc_many`` / ``free_many`` / ``alloc`` / ``free``
    / ``quarantine``: the same blocks in the same order, the same
    ``_map``, ``_low`` and ``free_count`` after every step, and a bad
    ``free_many`` (double, duplicate or out-of-range block, at any
    position) raises the reference's error with the reference's blocks
    before it freed."""
    first, count = 5, 40
    fast = BlockAllocator(count, first_block=first)
    ref = _BlockAtATime(count, first_block=first)
    blocks = st.integers(first - 2, first + count + 1)
    for _ in range(data.draw(st.integers(1, 30))):
        name = data.draw(st.sampled_from(
            ["alloc_many", "alloc_many", "free_many", "free_many", "alloc",
             "free", "quarantine"]))
        if name == "alloc_many":
            args = (data.draw(st.integers(0, 12)),)
        elif name == "free_many":
            held = [block for block in range(first, first + count)
                    if ref.is_allocated(block)
                    and block not in ref.quarantined]
            start = data.draw(st.integers(0, len(held)))
            run = held[start:start + data.draw(st.integers(0, 12))]
            if data.draw(st.booleans()):
                run = data.draw(st.permutations(run))
            if data.draw(st.integers(0, 3)) == 0:
                bad = data.draw(st.one_of(blocks, st.sampled_from(run or [0])))
                run.insert(data.draw(st.integers(0, len(run))), bad)
            args = (run,)
        elif name == "alloc":
            args = ()
        else:
            args = (data.draw(blocks),)
        got, want = _outcome(fast, name, args), _outcome(ref, name, args)
        assert got == want, (name, args)
        assert _state(fast) == _state(ref), (name, args)
