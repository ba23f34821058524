"""Unit tests for the DRAM write buffer and its DRAM Block Index."""

import pytest

from repro.core.buffer import WriteBuffer
from repro.core.config import HiNFSConfig
from repro.core.policies import LFUPolicy
from repro.engine.context import ExecContext
from repro.engine.env import SimEnv
from repro.nvmm.config import NVMMConfig


class Rig:
    def __init__(self, blocks=16, **hconf):
        self.env = SimEnv()
        self.buffer = WriteBuffer(
            self.env, NVMMConfig(),
            HiNFSConfig(buffer_bytes=blocks * 4096, **hconf))
        self.ctx = ExecContext(self.env, "t")


@pytest.fixture()
def rig():
    return Rig()


def test_insert_and_lookup(rig):
    block = rig.buffer.insert(1, 5, nvmm_block=100)
    assert rig.buffer.lookup(1, 5) is block
    assert rig.buffer.lookup(1, 6) is None
    assert rig.buffer.lookup(2, 5) is None
    assert rig.buffer.used_blocks == 1


def test_evict_frees_frame_and_index(rig):
    block = rig.buffer.insert(1, 5, nvmm_block=100)
    rig.buffer.evict_many([block])
    assert rig.buffer.lookup(1, 5) is None
    assert rig.buffer.used_blocks == 0
    assert rig.buffer.free_blocks == rig.buffer.blocks_total


def test_insert_without_space_is_a_bug(rig):
    for i in range(rig.buffer.blocks_total):
        rig.buffer.insert(1, i, nvmm_block=i)
    with pytest.raises(RuntimeError):
        rig.buffer.insert(1, 999, nvmm_block=999)


def test_file_blocks_sorted_by_offset(rig):
    for fb in (9, 2, 5):
        rig.buffer.insert(3, fb, nvmm_block=fb)
    assert [b.file_block for b in rig.buffer.file_blocks(3)] == [2, 5, 9]
    assert rig.buffer.file_blocks(99) == []
    rig.buffer.evict_many([rig.buffer.lookup(3, 5)])
    rig.buffer.insert(3, 0, nvmm_block=0)
    assert [b.file_block for b in rig.buffer.file_blocks(3)] == [0, 2, 9]
    for block in rig.buffer.file_blocks(3):
        rig.buffer.evict_many([block])
    assert rig.buffer.file_blocks(3) == []


def test_write_into_roundtrip_and_state(rig):
    block = rig.buffer.insert(1, 0, nvmm_block=50)
    rig.buffer.write_into(rig.ctx, block, 100, b"hello", now_ns=77)
    assert rig.buffer.read_from(rig.ctx, block, 100, 5) == b"hello"
    assert block.bitmap.dirty
    assert block.last_written_ns == 77
    assert rig.env.stats.bytes_written_dram == 5


def test_write_into_charges_per_cacheline(rig):
    block = rig.buffer.insert(1, 0, nvmm_block=50)
    before = rig.ctx.now
    # 5 bytes straddling a line boundary: 2 lines charged.
    rig.buffer.write_into(rig.ctx, block, 62, b"abcde", now_ns=0)
    per_line = rig.buffer.dram.config.dram_store_cost_ns(64)
    assert rig.ctx.now - before == 2 * per_line


def test_dirty_blocks_are_first_dirtied_across_inodes(rig):
    buffer = rig.buffer
    # 3 and 11 are congruent mod 8 and 9 sorts between them: neither a
    # per-residue nor an inode-sorted order is first-dirtied.
    a = buffer.insert(11, 0, nvmm_block=1)
    b = buffer.insert(3, 4, nvmm_block=2)
    c = buffer.insert(9, 0, nvmm_block=3)
    d = buffer.insert(3, 1, nvmm_block=4)
    for block in (b, c, a, d):
        buffer.write_into(rig.ctx, block, 0, b"x", now_ns=0)
    buffer.write_into(rig.ctx, b, 64, b"y", now_ns=1)  # not re-ordered
    assert buffer.dirty_blocks() == [b, c, a, d]
    buffer.evict_many([c])
    assert buffer.dirty_blocks() == [b, a, d]


def test_watermarks(rig):
    config = rig.buffer.config
    assert not rig.buffer.below_low_watermark
    while rig.buffer.free_blocks >= config.low_blocks:
        rig.buffer.insert(1, rig.buffer.used_blocks, nvmm_block=1)
    assert rig.buffer.below_low_watermark
    assert not rig.buffer.at_high_watermark


def test_dirty_block_count(rig):
    a = rig.buffer.insert(1, 0, nvmm_block=1)
    rig.buffer.insert(1, 1, nvmm_block=2)
    rig.buffer.write_into(rig.ctx, a, 0, b"x", now_ns=0)
    assert rig.buffer.dirty_blocks() == [a]


def test_victim_order_follows_writes(rig):
    a = rig.buffer.insert(1, 0, nvmm_block=1)
    b = rig.buffer.insert(1, 1, nvmm_block=2)
    rig.buffer.write_into(rig.ctx, a, 0, b"x", now_ns=1)
    rig.buffer.write_into(rig.ctx, b, 0, b"y", now_ns=2)
    rig.buffer.write_into(rig.ctx, a, 64, b"z", now_ns=3)
    order = rig.buffer.all_blocks_lrw_order()
    assert order[0] is b  # least recently written


def test_index_is_per_file(rig):
    rig.buffer.insert(1, 0, nvmm_block=1)
    rig.buffer.insert(2, 0, nvmm_block=2)
    assert rig.buffer.lookup(1, 0).nvmm_block == 1
    assert rig.buffer.lookup(2, 0).nvmm_block == 2


def policy_state(policy, block):
    if isinstance(policy, LFUPolicy):
        return policy._freq[block]
    return next(name for name in ("a1in", "am", "t1", "t2")
                if block in getattr(policy, "_" + name, ()))


@pytest.mark.parametrize("name, once, twice", [
    ("lfu", 1, 2), ("2q", "a1in", "am"), ("arc", "t1", "t2"),
])
def test_first_write_counts_once(name, once, twice):
    """Admission is the first write: the write_into() that follows an
    insert must not count as a second one."""
    rig = Rig(replacement_policy=name)
    block = rig.buffer.insert(1, 0, nvmm_block=1)
    rig.buffer.write_into(rig.ctx, block, 0, b"x", now_ns=1)
    assert policy_state(rig.buffer.policy, block) == once
    rig.buffer.write_into(rig.ctx, block, 64, b"y", now_ns=2)
    assert policy_state(rig.buffer.policy, block) == twice
