"""Tests for direct memory-mapped I/O (paper Section 4.2)."""

import pytest

from repro.core import HiNFS, HiNFSConfig
from repro.fs import flags as f
from repro.fs.errors import InvalidArgument, IsADirectory

from tests.fs.conftest import PmfsRig


@pytest.fixture()
def rig():
    return PmfsRig()


@pytest.fixture()
def hrig():
    return PmfsRig(fs_cls=HiNFS, hconfig=HiNFSConfig(buffer_bytes=2 << 20))


def fmap(rig, path, flags=0, **kwargs):
    """open + mmap(2): the fd-based mapping call."""
    fd = rig.vfs.open(rig.ctx, path, f.O_RDWR)
    return rig.vfs.mmap(rig.ctx, fd, flags=flags, **kwargs)


def pinned(hrig, ino):
    """Is the file pinned Eager-Persistent?  Both what the registry
    says and what a write actually does: a pinned file's overwrite goes
    straight to NVMM (``hinfs_eager_writes``), an unpinned cold one is
    buffered."""
    fd = hrig.vfs.open(hrig.ctx, "/m", f.O_RDWR)
    eager = hrig.env.stats.count("hinfs_eager_writes")
    hrig.vfs.pwrite(hrig.ctx, fd, 0, b"probe")
    hrig.vfs.close(hrig.ctx, fd)
    went_eager = hrig.env.stats.count("hinfs_eager_writes") == eager + 1
    assert went_eager == (ino in hrig.fs._mappings)
    return went_eager


def test_mmap_read_sees_file_data(rig):
    rig.vfs.write_file(rig.ctx, "/m", b"mapped bytes" * 100)
    region = fmap(rig, "/m")
    assert region.load(rig.ctx, 0, 12) == b"mapped bytes"
    assert region.load(rig.ctx, 12, 12) == b"mapped bytes"


def test_mmap_write_visible_through_file_io(rig):
    rig.vfs.write_file(rig.ctx, "/m", b"x" * 4096)
    region = fmap(rig, "/m")
    region.store(rig.ctx, 100, b"STORE")
    assert rig.vfs.read_file(rig.ctx, "/m")[100:105] == b"STORE"


def test_mmap_write_volatile_until_msync(rig):
    rig.vfs.write_file(rig.ctx, "/m", b"x" * 4096)
    region = fmap(rig, "/m")
    region.store(rig.ctx, 0, b"GONE")
    rig.crash_and_remount()
    assert rig.vfs.read_file(rig.ctx, "/m")[:4] == b"xxxx"


def test_msync_makes_stores_durable(rig):
    rig.vfs.write_file(rig.ctx, "/m", b"x" * 4096)
    region = fmap(rig, "/m")
    region.store(rig.ctx, 0, b"KEPT")
    rig.vfs.msync(rig.ctx, region)
    rig.crash_and_remount()
    assert rig.vfs.read_file(rig.ctx, "/m")[:4] == b"KEPT"


def test_mmap_extends_file_on_store_past_eof(rig):
    rig.vfs.write_file(rig.ctx, "/m", b"ab")
    region = fmap(rig, "/m")
    region.store(rig.ctx, 10_000, b"tail")
    assert rig.vfs.stat(rig.ctx, "/m").size == 10_004
    assert region.load(rig.ctx, 10_000, 4) == b"tail"


def test_mmap_hole_reads_zeroes(rig):
    rig.vfs.write_file(rig.ctx, "/m", b"")
    rig.vfs.truncate(rig.ctx, "/m", 8192)
    region = fmap(rig, "/m")
    assert region.load(rig.ctx, 0, 100) == b"\0" * 100


def test_munmap_implies_msync_and_closes(rig):
    rig.vfs.write_file(rig.ctx, "/m", b"x" * 64)
    region = fmap(rig, "/m")
    region.store(rig.ctx, 0, b"SYNC")
    rig.vfs.munmap(rig.ctx, region)
    with pytest.raises(InvalidArgument):
        region.load(rig.ctx, 0, 4)
    rig.crash_and_remount()
    assert rig.vfs.read_file(rig.ctx, "/m")[:4] == b"SYNC"


def test_mmap_directory_rejected(rig):
    rig.vfs.mkdir(rig.ctx, "/d")
    # The descriptor layer already refuses to open a directory...
    with pytest.raises(IsADirectory):
        rig.vfs.open(rig.ctx, "/d", f.O_RDWR)
    # ...and the inode-level guard holds for below-VFS callers too.
    ino = rig.vfs.stat(rig.ctx, "/d").ino
    with pytest.raises(IsADirectory):
        rig.fs.mmap(rig.ctx, ino)


def test_mmap_of_bad_fd_rejected(rig):
    from repro.fs.errors import BadFileDescriptor

    with pytest.raises(BadFileDescriptor):
        rig.vfs.mmap(rig.ctx, 999)


def test_truncate_invalidates_dirty_ranges_past_eof(rig):
    """Regression: a truncate under a live mapping frees blocks past the
    new EOF; stale dirty ranges must not make msync flush -- or keep
    addresses into -- blocks the file no longer owns."""
    rig.vfs.write_file(rig.ctx, "/m", b"x" * (3 * 4096))
    region = fmap(rig, "/m")
    region.store(rig.ctx, 0, b"HEAD")
    region.store(rig.ctx, 2 * 4096, b"TAIL")   # will fall past new EOF
    assert len(region._dirty_ranges) == 2
    rig.vfs.truncate(rig.ctx, "/m", 4096)
    # Only the surviving range remains; msync flushes just that one.
    assert [r[0] for r in region._dirty_ranges] == [0]
    assert region.msync(rig.ctx) == 1
    assert rig.vfs.read_file(rig.ctx, "/m")[:4] == b"HEAD"


def test_truncate_clamps_straddling_dirty_range(rig):
    rig.vfs.write_file(rig.ctx, "/m", b"x" * 8192)
    region = fmap(rig, "/m")
    region.store(rig.ctx, 4090, b"A" * 12)     # straddles the 4096 cut
    rig.vfs.truncate(rig.ctx, "/m", 4096)
    (file_offset, _addr, length), = region._dirty_ranges
    assert (file_offset, length) == (4090, 6)
    region.msync(rig.ctx)


@pytest.mark.parametrize("policy", [None, "undo", "redo"])
def test_truncate_and_unlink_invalidate_every_mapping_the_same_way(
        rig, monkeypatch, policy):
    """One mapping type, one registry: truncate reaches a plain mapping
    through the same ``invalidate_past`` -- and unlink through the same
    ``invalidate`` -- as a MAP_ATOMIC one, with the same outcome."""
    from repro.io.mmio import MmioMapping

    calls = []
    for hook in ("invalidate_past", "invalidate"):
        real = getattr(MmioMapping, hook)

        def spy(self, *args, _real=real, _hook=hook):
            calls.append((_hook, self))
            return _real(self, *args)

        monkeypatch.setattr(MmioMapping, hook, spy)
    rig.vfs.write_file(rig.ctx, "/m", b"x" * (3 * 4096))
    ino = rig.vfs.stat(rig.ctx, "/m").ino
    flags = 0 if policy is None else f.MAP_ATOMIC
    region = fmap(rig, "/m", flags=flags, policy=policy)
    assert type(region) is MmioMapping
    region.store(rig.ctx, 0, b"HEAD")
    region.store(rig.ctx, 2 * 4096, b"TAIL")   # will fall past new EOF
    rig.vfs.truncate(rig.ctx, "/m", 4096)
    assert calls == [("invalidate_past", region)]
    staged = region._dirty_ranges + region._overlay
    assert [entry[0] for entry in staged] == [0]
    assert region.load(rig.ctx, 0, 4) == b"HEAD"
    rig.vfs.unlink(rig.ctx, "/m")
    assert calls[1:] == [("invalidate", region)]
    assert region.closed and not region._dirty_ranges + region._overlay
    assert rig.fs._live_mappings(ino) == ()
    with pytest.raises(InvalidArgument):
        region.load(rig.ctx, 0, 4)
    region.munmap(rig.ctx)                     # a no-op on a dead mapping
    rig.crash_and_remount()
    assert rig.env.stats.count("mmio_logs_recovered") == 0


def test_hinfs_mmap_flushes_buffered_blocks(hrig):
    hrig.vfs.write_file(hrig.ctx, "/m", b"buffered" * 512)  # lazy, in DRAM
    assert hrig.fs.buffer.used_blocks > 0
    region = fmap(hrig, "/m")
    assert hrig.fs.buffer.file_blocks(hrig.vfs.stat(hrig.ctx, "/m").ino) == []
    assert region.load(hrig.ctx, 0, 8) == b"buffered"


def test_hinfs_mmapped_file_writes_bypass_buffer(hrig):
    hrig.vfs.write_file(hrig.ctx, "/m", b"x" * 4096)
    region = fmap(hrig, "/m")
    eager_before = hrig.env.stats.count("hinfs_eager_writes")
    fd = hrig.vfs.open(hrig.ctx, "/m")
    hrig.vfs.pwrite(hrig.ctx, fd, 0, b"direct!")
    assert hrig.env.stats.count("hinfs_eager_writes") == eager_before + 1
    # And the store is immediately durable (no buffer staging).
    hrig.crash_and_remount()
    assert hrig.vfs.read_file(hrig.ctx, "/m")[:7] == b"direct!"
    assert region is not None


def test_hinfs_munmap_unpins(hrig):
    hrig.vfs.write_file(hrig.ctx, "/m", b"x" * 4096)
    ino = hrig.vfs.stat(hrig.ctx, "/m").ino
    region = fmap(hrig, "/m")
    assert pinned(hrig, ino)
    hrig.vfs.munmap(hrig.ctx, region)
    assert not pinned(hrig, ino)


def test_hinfs_stays_pinned_while_second_mapping_lives(hrig):
    hrig.vfs.write_file(hrig.ctx, "/m", b"x" * 4096)
    ino = hrig.vfs.stat(hrig.ctx, "/m").ino
    first = fmap(hrig, "/m")
    second = fmap(hrig, "/m")
    hrig.vfs.munmap(hrig.ctx, first)
    assert pinned(hrig, ino)
    hrig.vfs.munmap(hrig.ctx, second)
    assert not pinned(hrig, ino)
