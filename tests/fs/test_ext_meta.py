"""Tests for the extfs metadata-writeback and throttling models."""

import pytest

from repro.fs.extfs import Ext2, Ext4

from tests.fs.test_extfs import ExtRig


def test_metadata_blocks_deduplicate():
    rig = ExtRig(Ext2)
    # Many writes to one file dirty the same inode-table block once.
    rig.vfs.write_file(rig.ctx, "/f", b"x" * 4096)
    dirty_after_one = len(rig.fs._dirty_meta)
    fd = rig.vfs.open(rig.ctx, "/f")
    for i in range(20):
        rig.vfs.pwrite(rig.ctx, fd, i * 100, b"y")
    assert len(rig.fs._dirty_meta) == dirty_after_one


def test_fsync_writes_inode_metadata_block():
    rig = ExtRig(Ext2)
    fd = rig.vfs.open(rig.ctx, "/f", 0x40 | 0x2)  # O_CREAT | O_RDWR
    rig.vfs.write(rig.ctx, fd, b"data")
    before = rig.env.stats.count("meta_block_writes")
    rig.vfs.fsync(rig.ctx, fd)
    assert rig.env.stats.count("meta_block_writes") == before + 1


def test_metadata_flush_threshold():
    rig = ExtRig(Ext2)
    rig.fs.META_FLUSH_THRESHOLD = 8
    # Inode-table blocks hold 16 inodes each, so ~200 creates dirty
    # enough distinct metadata blocks to cross the (lowered) threshold.
    for i in range(200):
        rig.vfs.write_file(rig.ctx, "/m%03d" % i, b"z")
    assert rig.env.stats.count("meta_block_writes") > 0
    assert len(rig.fs._dirty_meta) < 8


def test_unmount_flushes_metadata():
    rig = ExtRig(Ext2)
    rig.vfs.write_file(rig.ctx, "/u", b"q")
    assert rig.fs._dirty_meta
    rig.vfs.unmount(rig.ctx)
    assert not rig.fs._dirty_meta


def test_balance_dirty_pages_throttles_writers():
    rig = ExtRig(Ext2, cache_pages=64)
    # Write far beyond 40 % of a 64-page cache: the writer must flush.
    rig.vfs.write_file(rig.ctx, "/big", b"w" * (64 * 4096), chunk=1 << 14)
    assert rig.env.stats.count("balance_dirty_flushes") > 0
    assert rig.fs.cache.dirty_total <= int(0.4 * 64) + 1


def test_dirty_total_is_consistent():
    rig = ExtRig(Ext2, cache_pages=32)
    rig.vfs.write_file(rig.ctx, "/a", b"a" * (16 * 4096))
    rig.vfs.write_file(rig.ctx, "/b", b"b" * (16 * 4096))
    rig.vfs.unlink(rig.ctx, "/a")
    counted = sum(1 for p in rig.fs.cache.lru if p.dirty)
    assert rig.fs.cache.dirty_total == counted


def test_ext4_ordered_mode_flushes_data_before_commit():
    rig = ExtRig(Ext4)
    fd = rig.vfs.open(rig.ctx, "/o", 0x40 | 0x2)
    rig.vfs.write(rig.ctx, fd, b"ordered" * 100)
    ino = rig.vfs.stat(rig.ctx, "/o").ino
    assert rig.fs.cache.dirty_pages_of(ino)
    rig.fs.jbd2.commit(rig.ctx)
    # Ordered mode: the commit drove the data pages out first.
    assert not rig.fs.cache.dirty_pages_of(ino)


def test_ext4_meta_heavier_than_ext2():
    times = {}
    for cls in (Ext2, Ext4):
        rig = ExtRig(cls)
        t0 = rig.ctx.now
        for i in range(40):
            rig.vfs.write_file(rig.ctx, "/n%02d" % i, b"x", sync=True)
        times[cls.name] = rig.ctx.now - t0
    assert times["ext4"] > times["ext2"]
