"""Regression tests for deferred-commit ordering (per-file tx chains).

Found by the hypothesis crash-recovery suite: if a newer transaction on
the same file commits while an older buffered transaction is still open,
a crash would roll the older undo images back *over* the newer committed
state.  HiNFS therefore chains deferred commits per file and barriers
synchronous commits behind them.
"""

import pytest

from repro.core import HiNFS, HiNFSConfig
from repro.fs import flags as f
from repro.fs.pmfs.journal import JournalFullError

from tests.fs.conftest import PmfsRig


@pytest.fixture()
def rig():
    return PmfsRig(fs_cls=HiNFS, hconfig=HiNFSConfig(buffer_bytes=2 << 20))


def test_sync_write_after_lazy_writes_keeps_committed_size(rig):
    """The exact falsifying example: lazy writes then an O_SYNC extend."""
    fd = rig.vfs.open(rig.ctx, "/f0", f.O_CREAT | f.O_RDWR)
    rig.vfs.pwrite(rig.ctx, fd, 0, b"\0")
    rig.vfs.pwrite(rig.ctx, fd, 0, b"\0")
    fd_sync = rig.vfs.open(rig.ctx, "/f0", f.O_RDWR | f.O_SYNC)
    rig.vfs.pwrite(rig.ctx, fd_sync, 10_232, b"\0")
    rig.crash_and_remount()
    assert rig.vfs.stat(rig.ctx, "/f0").size == 10_233


def test_eager_block_write_joins_file_chain(rig):
    """An async write routed eagerly must not commit ahead of an older
    open lazy transaction of the same file."""
    fd = rig.vfs.open(rig.ctx, "/f", f.O_CREAT | f.O_RDWR)
    # Make block 0 eager via a no-coalescing sync.
    rig.vfs.pwrite(rig.ctx, fd, 0, b"x" * 64)
    rig.vfs.fsync(rig.ctx, fd)
    # Older lazy write to block 1 (open deferred tx)...
    rig.vfs.pwrite(rig.ctx, fd, 4096, b"lazy" * 1024)
    # ...then a newer eager write to block 0 (direct to NVMM).
    rig.vfs.pwrite(rig.ctx, fd, 0, b"E" * 64)
    assert rig.env.stats.count("hinfs_eager_writes") >= 1
    # Crash: the eager write's tx must not have committed out of order,
    # so rollback leaves a consistent size (the fsync-time 64 bytes).
    rig.crash_and_remount()
    st = rig.vfs.stat(rig.ctx, "/f")
    data = rig.vfs.read_file(rig.ctx, "/f")
    assert len(data) == st.size
    assert st.size >= 64


def test_chain_commits_in_order_as_blocks_flush(rig):
    """Flushing a newer tx's block before an older tx's block must not
    commit the newer tx first -- it waits (ready) for the cascade."""
    fs = rig.fs
    fd = rig.vfs.open(rig.ctx, "/c", f.O_CREAT | f.O_RDWR)
    rig.vfs.pwrite(rig.ctx, fd, 0, b"a" * 4096)       # tx1 on block 0
    rig.vfs.pwrite(rig.ctx, fd, 4096, b"b" * 4096)    # tx2 on block 1
    ino = rig.vfs.stat(rig.ctx, "/c").ino
    blocks = {b.file_block: b for b in fs.buffer.file_blocks(ino)}
    (tx2,) = [p.tx for p in blocks[1].pending_txs]
    (tx1,) = [p.tx for p in blocks[0].pending_txs]
    # Flush the NEWER block first.
    fs.flush_and_evict(rig.ctx, blocks[1])
    assert tx2.open, "newer tx must wait for the older one"
    fs.flush_and_evict(rig.ctx, blocks[0])
    assert not tx1.open and not tx2.open


def test_truncate_barriers_open_transactions(rig):
    fd = rig.vfs.open(rig.ctx, "/t", f.O_CREAT | f.O_RDWR)
    rig.vfs.pwrite(rig.ctx, fd, 0, b"k" * 8192)
    rig.vfs.truncate(rig.ctx, "/t", 4096)
    assert rig.fs.journal.open_transactions == 0
    rig.crash_and_remount()
    assert rig.vfs.stat(rig.ctx, "/t").size == 4096
    assert rig.vfs.read_file(rig.ctx, "/t") == b"k" * 4096


def test_a_hundred_chained_commits_cascade_at_once():
    """One block rewritten a hundred times: a hundred deferred commits
    chained on one file, all waiting on one buffered block.  Its flush
    appends every COMMIT in one go -- each has had its slot held back
    since ``begin``, however full the 511-slot ring is."""
    rig = PmfsRig(fs_cls=HiNFS, hconfig=HiNFSConfig(buffer_bytes=2 << 20),
                  journal_blocks=8)
    journal = rig.fs.journal
    fd = rig.vfs.open(rig.ctx, "/chain", f.O_CREAT | f.O_RDWR)
    for i in range(100):
        rig.vfs.pwrite(rig.ctx, fd, 10 * i, b"%010d" % i)
    assert journal.open_transactions == 100
    # A transaction as large as the ring can still take: the undo
    # entries stop where the hundred COMMIT slots (and its own) begin.
    hog = journal.begin(rig.ctx)
    with pytest.raises(JournalFullError):
        journal.log_undo(rig.ctx, hog, rig.fs.itable.core_addr(1), 1 << 20)
    assert journal.used_slots + journal.open_transactions == journal.capacity
    head = journal.head
    rig.vfs.fsync(rig.ctx, fd)
    assert journal.head == head + 100 and journal.open_transactions == 1
    journal.commit(rig.ctx, hog)
    assert journal.used_slots == 0
    rig.crash_and_remount()
    assert rig.vfs.read_file(rig.ctx, "/chain") == b"".join(
        b"%010d" % i for i in range(100))


def test_many_interleaved_files_chains_are_independent(rig):
    fds = {}
    for i in range(4):
        fds[i] = rig.vfs.open(rig.ctx, "/m%d" % i, f.O_CREAT | f.O_RDWR)
    for round_no in range(6):
        for i in range(4):
            rig.vfs.pwrite(rig.ctx, fds[i], round_no * 4096, b"%d" % i * 512)
    # fsync one file: only its chain must be forced closed.
    rig.vfs.fsync(rig.ctx, fds[2])
    open_txs = rig.fs.journal.open_transactions
    assert open_txs > 0  # other files' chains still deferred
    for i in (0, 1, 3):
        rig.vfs.fsync(rig.ctx, fds[i])
    assert rig.fs.journal.open_transactions == 0
