"""VFS-layer tests: paths, descriptors, accounting."""

import pytest

from repro.fs import flags as f
from repro.fs.errors import (
    FSError,
    InvalidArgument,
    IsADirectory,
    MediaError,
    NotADirectory,
    NotFound,
)


def test_empty_path_rejected(rig):
    with pytest.raises(InvalidArgument):
        rig.vfs.open(rig.ctx, "")


def test_path_through_file_component_fails(rig):
    rig.vfs.write_file(rig.ctx, "/f", b"x")
    with pytest.raises((NotFound, NotADirectory)):
        rig.vfs.open(rig.ctx, "/f/child")


def test_trailing_and_double_slashes_normalised(rig):
    rig.vfs.mkdir(rig.ctx, "/d")
    rig.vfs.write_file(rig.ctx, "/d//f/", b"x")
    assert rig.vfs.read_file(rig.ctx, "/d/f") == b"x"


def test_stat_root(rig):
    assert rig.vfs.stat(rig.ctx, "/").is_dir


def test_dentry_cache_speeds_up_lookups(rig):
    rig.vfs.mkdir(rig.ctx, "/a")
    rig.vfs.mkdir(rig.ctx, "/a/b")
    rig.vfs.write_file(rig.ctx, "/a/b/f", b"x")
    first_cost_start = rig.ctx.now
    rig.vfs.stat(rig.ctx, "/a/b/f")
    first = rig.ctx.now - first_cost_start
    second_start = rig.ctx.now
    rig.vfs.stat(rig.ctx, "/a/b/f")
    second = rig.ctx.now - second_start
    assert second <= first


def test_unlink_invalidates_dentry(rig):
    rig.vfs.write_file(rig.ctx, "/gone", b"x")
    rig.vfs.unlink(rig.ctx, "/gone")
    rig.vfs.write_file(rig.ctx, "/gone", b"y")  # recreate under same name
    assert rig.vfs.read_file(rig.ctx, "/gone") == b"y"


def test_each_open_gets_independent_position(rig):
    rig.vfs.write_file(rig.ctx, "/f", b"0123456789")
    fd1 = rig.vfs.open(rig.ctx, "/f", f.O_RDONLY)
    fd2 = rig.vfs.open(rig.ctx, "/f", f.O_RDONLY)
    assert rig.vfs.read(rig.ctx, fd1, 4) == b"0123"
    assert rig.vfs.read(rig.ctx, fd2, 4) == b"0123"
    assert rig.vfs.read(rig.ctx, fd1, 4) == b"4567"


def test_write_advances_position(rig):
    fd = rig.vfs.open(rig.ctx, "/f", f.O_CREAT | f.O_RDWR)
    rig.vfs.write(rig.ctx, fd, b"abc")
    rig.vfs.write(rig.ctx, fd, b"def")
    assert rig.vfs.read_file(rig.ctx, "/f") == b"abcdef"


def test_syscall_counts_recorded(rig):
    fd = rig.vfs.open(rig.ctx, "/f", f.O_CREAT | f.O_RDWR)
    rig.vfs.write(rig.ctx, fd, b"zz")
    rig.vfs.fsync(rig.ctx, fd)
    rig.vfs.close(rig.ctx, fd)
    counts = rig.env.stats.syscall_counts
    for name in ("open", "write", "fsync", "close"):
        assert counts[name] == 1


def test_every_syscall_charges_entry_overhead(rig):
    before = rig.ctx.now
    rig.vfs.stat(rig.ctx, "/")
    assert rig.ctx.now - before >= rig.config.syscall_ns


def test_fsync_byte_accounting(rig):
    fd = rig.vfs.open(rig.ctx, "/f", f.O_CREAT | f.O_RDWR)
    rig.vfs.write(rig.ctx, fd, b"a" * 1000)
    assert rig.env.stats.count("app_bytes_written") == 1000
    assert rig.env.stats.count("app_bytes_fsynced") == 0
    rig.vfs.fsync(rig.ctx, fd)
    assert rig.env.stats.count("app_bytes_fsynced") == 1000
    # A second fsync with no new writes adds nothing.
    rig.vfs.fsync(rig.ctx, fd)
    assert rig.env.stats.count("app_bytes_fsynced") == 1000


def test_o_sync_writes_count_as_fsynced(rig):
    fd = rig.vfs.open(rig.ctx, "/f", f.O_CREAT | f.O_RDWR | f.O_SYNC)
    rig.vfs.write(rig.ctx, fd, b"b" * 500)
    assert rig.env.stats.count("app_bytes_fsynced") == 500


def test_unlink_discards_unsynced_accounting(rig):
    fd = rig.vfs.open(rig.ctx, "/f", f.O_CREAT | f.O_RDWR)
    rig.vfs.write(rig.ctx, fd, b"c" * 300)
    rig.vfs.close(rig.ctx, fd)
    rig.vfs.unlink(rig.ctx, "/f")
    assert rig.env.stats.count("app_bytes_fsynced") == 0


def test_read_file_chunking(rig):
    payload = bytes(range(256)) * 100
    rig.vfs.write_file(rig.ctx, "/big", payload, chunk=1000)
    assert rig.vfs.read_file(rig.ctx, "/big", chunk=777) == payload


def test_ops_completed_counts_syscalls(rig):
    before = rig.env.stats.ops_completed
    rig.vfs.write_file(rig.ctx, "/f", b"x")  # open + write + close
    assert rig.env.stats.ops_completed - before == 3


def test_namespace_syscall_that_raises_completes_nothing(rig):
    """Every namespace syscall pays its entry and records its span, but
    counts as a completed op only on a clean exit -- except close(2),
    which closed the fd even when it reports a deferred error."""
    stats = rig.env.stats
    ops, entries = stats.ops_completed, stats.count("vfs_syscall_entries")
    for failing in (lambda: rig.vfs.stat(rig.ctx, "/missing"),
                    lambda: rig.vfs.readdir(rig.ctx, "/missing"),
                    lambda: rig.vfs.fstat(rig.ctx, 99),
                    lambda: rig.vfs.unlink(rig.ctx, "/missing")):
        with pytest.raises(FSError):
            failing()
    assert stats.count("vfs_syscall_entries") == entries + 4
    assert stats.ops_completed == ops
    assert stats.syscall_counts["stat"] >= 1
    fd = rig.vfs.open(rig.ctx, "/f", f.O_CREAT | f.O_RDWR)
    rig.fs.wb_err.record(rig.fs.lookup(rig.ctx, 1, "f"))
    ops = stats.ops_completed
    with pytest.raises(MediaError):
        rig.vfs.close(rig.ctx, fd)
    assert stats.ops_completed == ops + 1


# -- rename(2) -----------------------------------------------------------


def test_rename_moves_file(rig):
    rig.vfs.write_file(rig.ctx, "/a", b"data")
    rig.vfs.rename(rig.ctx, "/a", "/b")
    assert not rig.vfs.exists(rig.ctx, "/a")
    assert rig.vfs.read_file(rig.ctx, "/b") == b"data"


def test_rename_across_directories(rig):
    rig.vfs.mkdir(rig.ctx, "/d1")
    rig.vfs.mkdir(rig.ctx, "/d2")
    rig.vfs.write_file(rig.ctx, "/d1/f", b"x")
    rig.vfs.rename(rig.ctx, "/d1/f", "/d2/g")
    assert rig.vfs.read_file(rig.ctx, "/d2/g") == b"x"
    assert not rig.vfs.exists(rig.ctx, "/d1/f")


def test_rename_replaces_existing_file_and_frees_blocks(rig):
    rig.vfs.write_file(rig.ctx, "/dst", b"old" * 4096, sync=True)
    used_before = rig.fs.balloc.used_count
    rig.vfs.write_file(rig.ctx, "/src", b"new", sync=True)
    rig.vfs.rename(rig.ctx, "/src", "/dst")
    assert rig.vfs.read_file(rig.ctx, "/dst") == b"new"
    assert not rig.vfs.exists(rig.ctx, "/src")
    # The replaced file's blocks went back to the allocator.
    assert rig.fs.balloc.used_count < used_before


def test_rename_same_path_is_noop(rig):
    rig.vfs.write_file(rig.ctx, "/a", b"keep")
    rig.vfs.rename(rig.ctx, "/a", "/a")
    assert rig.vfs.read_file(rig.ctx, "/a") == b"keep"


def test_rename_missing_source(rig):
    with pytest.raises(NotFound):
        rig.vfs.rename(rig.ctx, "/nope", "/dst")


def test_rename_file_over_directory_rejected(rig):
    rig.vfs.write_file(rig.ctx, "/f", b"x")
    rig.vfs.mkdir(rig.ctx, "/d")
    with pytest.raises(IsADirectory):
        rig.vfs.rename(rig.ctx, "/f", "/d")


def test_rename_directory_over_file_rejected(rig):
    rig.vfs.mkdir(rig.ctx, "/d")
    rig.vfs.write_file(rig.ctx, "/f", b"x")
    with pytest.raises(NotADirectory):
        rig.vfs.rename(rig.ctx, "/d", "/f")


def test_rename_updates_dentry_cache(rig):
    rig.vfs.write_file(rig.ctx, "/a", b"x")
    rig.vfs.stat(rig.ctx, "/a")  # warm the dcache
    rig.vfs.rename(rig.ctx, "/a", "/b")
    with pytest.raises(NotFound):
        rig.vfs.stat(rig.ctx, "/a")
    assert rig.vfs.stat(rig.ctx, "/b").size == 1


def test_rename_survives_crash(rig):
    rig.vfs.write_file(rig.ctx, "/a", b"x" * 4096, sync=True)
    rig.vfs.rename(rig.ctx, "/a", "/b")
    rig.crash_and_remount()
    assert not rig.vfs.exists(rig.ctx, "/a")
    assert rig.vfs.read_file(rig.ctx, "/b") == b"x" * 4096
