"""errseq semantics: exactly-once per fd, unseen errors visible to new
descriptors, and persistence of unreported errors across remount."""

import pytest

from repro.bench.runner import build_stack
from repro.engine.background import BackgroundRegistry
from repro.engine.context import ExecContext
from repro.engine.env import SimEnv
from repro.faults.errseq import ErrseqMap
from repro.fs import flags as f
from repro.fs.errors import MediaError
from repro.fs.shard import shard_of
from repro.fs.vfs import VFS
from repro.nvmm.config import NVMMConfig


def test_many_readers_each_see_the_error_exactly_once():
    errs = ErrseqMap()
    errs.record(3)
    cursors = {reader: errs.sample(3) for reader in range(4)}
    # Sampled while unseen: every reader's first check reports.
    for reader in range(4):
        hit, cursors[reader] = errs.check(3, cursors[reader])
        assert hit, reader
    # ... and never a second time.
    for reader in range(4):
        hit, cursors[reader] = errs.check(3, cursors[reader])
        assert not hit, reader


def test_unseen_error_samples_as_zero_seen_as_current():
    errs = ErrseqMap()
    errs.record(9)
    assert errs.sample(9) == 0  # nobody has reported it yet
    assert errs.unseen() == [9]
    hit, cursor = errs.check(9, errs.sample(9))
    assert hit
    assert errs.sample(9) == cursor  # seen: later opens start clean
    assert errs.unseen() == []
    # A fresh error clears the SEEN mark again.
    errs.record(9)
    assert errs.sample(9) == 0


def test_drop_forgets_sequence_and_seen():
    errs = ErrseqMap()
    errs.record(5)
    errs.check(5, 0)
    errs.drop(5)
    assert errs.pending() == []
    hit, _ = errs.check(5, 0)
    assert not hit


class _Rig:
    def __init__(self, fs_name="pmfs"):
        self.env = SimEnv()
        self.config = NVMMConfig()
        self.fs, self.vfs = build_stack(self.env, fs_name, self.config,
                                        32 << 20)
        self.ctx = ExecContext(self.env, "t")

    def remount(self):
        device = self.fs.device
        self.fs.unmount(self.ctx)
        self.env.background = BackgroundRegistry()
        self.fs = type(self.fs).mount(self.env, device, self.config)
        self.vfs = VFS(self.env, self.fs, self.config)


def test_fd_opened_after_unreported_error_still_sees_it():
    rig = _Rig()
    rig.vfs.write_file(rig.ctx, "/a", b"x" * 4096, sync=True)
    ino = rig.fs.lookup(rig.ctx, 1, "a")
    rig.fs.note_wb_error(ino)
    # No descriptor has reported the loss; a brand-new one must.
    fd = rig.vfs.open(rig.ctx, "/a", f.O_RDWR)
    with pytest.raises(MediaError):
        rig.vfs.fsync(rig.ctx, fd)
    rig.vfs.fsync(rig.ctx, fd)  # exactly once
    # Once reported, later descriptors open clean.
    fd2 = rig.vfs.open(rig.ctx, "/a", f.O_RDWR)
    rig.vfs.fsync(rig.ctx, fd2)
    rig.vfs.close(rig.ctx, fd2)
    rig.vfs.close(rig.ctx, fd)


def test_fd_opened_while_degraded_ro_still_sees_unseen_error():
    """A tenant whose fd opens during DEGRADED_RO inherits the unSEEN
    writeback error: degradation must not retire an unreported loss."""
    rig = _Rig()
    rig.vfs.write_file(rig.ctx, "/a", b"x" * 4096, sync=True)
    ino = rig.fs.lookup(rig.ctx, 1, "a")
    rig.fs.note_wb_error(ino)
    rig.vfs.health.force_degraded(0, "test: media error budget spent")
    assert not rig.vfs.health.writable
    # Opening an existing file without O_TRUNC is a read-side operation
    # and succeeds on a read-only mount.
    fd = rig.vfs.open(rig.ctx, "/a", f.O_RDWR)
    with pytest.raises(MediaError):
        rig.vfs.fsync(rig.ctx, fd)
    rig.vfs.fsync(rig.ctx, fd)  # exactly once per fd
    # The report flipped the SEEN bit: descriptors opened afterwards
    # (still degraded) sample the current cursor and stay quiet.
    fd2 = rig.vfs.open(rig.ctx, "/a", f.O_RDWR)
    rig.vfs.fsync(rig.ctx, fd2)
    rig.vfs.close(rig.ctx, fd2)
    rig.vfs.close(rig.ctx, fd)


def test_unreported_error_survives_remount():
    rig = _Rig()
    rig.vfs.write_file(rig.ctx, "/a", b"x" * 4096, sync=True)
    ino = rig.fs.lookup(rig.ctx, 1, "a")
    rig.fs.note_wb_error(ino)
    rig.remount()
    # Same device, new mount: the unacknowledged loss is still on file.
    assert rig.fs.wb_err.unseen() == [ino]
    fd = rig.vfs.open(rig.ctx, "/a", f.O_RDWR)
    with pytest.raises(MediaError):
        rig.vfs.fsync(rig.ctx, fd)
    rig.vfs.fsync(rig.ctx, fd)
    rig.vfs.close(rig.ctx, fd)


def test_reported_error_is_retired_across_remount():
    rig = _Rig()
    rig.vfs.write_file(rig.ctx, "/a", b"x" * 4096, sync=True)
    fd = rig.vfs.open(rig.ctx, "/a", f.O_RDWR)
    ino = rig.fs.lookup(rig.ctx, 1, "a")
    rig.fs.note_wb_error(ino)
    with pytest.raises(MediaError):
        rig.vfs.fsync(rig.ctx, fd)
    rig.vfs.close(rig.ctx, fd)
    rig.remount()
    fd = rig.vfs.open(rig.ctx, "/a", f.O_RDWR)
    rig.vfs.fsync(rig.ctx, fd)  # seen before the remount: stays quiet
    rig.vfs.close(rig.ctx, fd)



def _note_wb_error(fs, ino):
    """Record a writeback loss where a flusher does: on a sharded mount,
    against the owning shard's local inode."""
    if hasattr(fs, "shards"):
        shard, ino = fs._dec(ino)
        fs = fs.shards[shard]
    fs.note_wb_error(ino)


@pytest.mark.parametrize("fs_name", ["pmfs", "hinfs", "pmfs@2"])
def test_a_new_file_does_not_inherit_a_reused_inos_error(fs_name):
    """An unlinked file's unreported loss stays with it: the file that
    reuses its inode number opens with a clean errseq."""
    rig = _Rig(fs_name)
    rig.vfs.write_file(rig.ctx, "/a", b"x" * 4096)
    ino = rig.vfs.stat(rig.ctx, "/a").ino
    _note_wb_error(rig.fs, ino)
    errors = rig.env.stats.count("vfs_media_errors")
    rig.vfs.unlink(rig.ctx, "/a")
    rig.vfs.write_file(rig.ctx, "/b", b"y" * 4096)  # closes without EIO
    assert rig.vfs.stat(rig.ctx, "/b").ino == ino
    assert rig.env.stats.count("vfs_media_errors") == errors


@pytest.mark.parametrize("fs_name", ["pmfs", "hinfs", "pmfs@2"])
def test_a_descriptor_held_across_unlink_still_reports(fs_name):
    rig = _Rig(fs_name)
    rig.vfs.write_file(rig.ctx, "/a", b"x" * 4096)
    fd = rig.vfs.open(rig.ctx, "/a", f.O_RDWR)
    _note_wb_error(rig.fs, rig.vfs.stat(rig.ctx, "/a").ino)
    rig.vfs.unlink(rig.ctx, "/a")
    with pytest.raises(MediaError):
        rig.vfs.close(rig.ctx, fd)


#: Two root names with different hash owners on a two-shard mount, so on
#: ``pmfs@2`` a rename from one to the other crosses shards.
SRC, DST = "/b2", "/a1"


@pytest.mark.parametrize("fs_name", ["pmfs", "hinfs", "pmfs@2"])
def test_a_rename_keeps_the_inode(fs_name):
    assert shard_of(SRC[1:], 2) != shard_of(DST[1:], 2)
    rig = _Rig(fs_name)
    rig.vfs.write_file(rig.ctx, SRC, b"x" * 4096)
    ino = rig.vfs.stat(rig.ctx, SRC).ino
    rig.vfs.rename(rig.ctx, SRC, DST)
    assert rig.vfs.stat(rig.ctx, DST).ino == ino


@pytest.mark.parametrize("fs_name", ["pmfs", "hinfs", "pmfs@2"])
def test_a_descriptor_held_across_a_rename_still_reports(fs_name):
    """A loss recorded before the rename is the renamed file's: the
    descriptor opened before it reports it on close."""
    rig = _Rig(fs_name)
    rig.vfs.write_file(rig.ctx, SRC, b"x" * 4096)
    fd = rig.vfs.open(rig.ctx, SRC, f.O_RDWR)
    _note_wb_error(rig.fs, rig.vfs.stat(rig.ctx, SRC).ino)
    rig.vfs.rename(rig.ctx, SRC, DST)
    with pytest.raises(MediaError):
        rig.vfs.close(rig.ctx, fd)
