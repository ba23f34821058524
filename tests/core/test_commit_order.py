"""Regression tests for deferred-commit ordering (per-file FIFOs).

Found by the hypothesis crash-recovery suite: if a newer transaction on
the same file commits while an older buffered transaction is still open,
a crash would roll the older undo images back *over* the newer committed
state.  HiNFS therefore queues deferred commits per file and barriers
synchronous commits behind them.
"""

import itertools

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


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))),
                         ids=lambda order: "".join(map(str, order)))
def test_chain_commits_in_order_as_blocks_flush(rig, monkeypatch, order):
    """Three lazy writes to one file, their blocks flushed in any order:
    a transaction never commits before every older one has, and the
    journal commits them in write order."""
    fs = rig.fs
    fd = rig.vfs.open(rig.ctx, "/c", f.O_CREAT | f.O_RDWR)
    for i in range(3):
        rig.vfs.pwrite(rig.ctx, fd, i * 4096, b"abc"[i:i + 1] * 4096)
    ino = rig.vfs.stat(rig.ctx, "/c").ino
    blocks = {b.file_block: b for b in fs.buffer.file_blocks(ino)}
    txs = []
    for i in range(3):
        (pending,) = blocks[i].pending_txs
        txs.append(pending.tx)
    committed = []
    commit = fs.journal.commit

    def recording(ctx, tx):
        committed.append(tx)
        commit(ctx, tx)

    monkeypatch.setattr(fs.journal, "commit", recording)
    flushed = set()
    for i in order:
        fs.flush_blocks(rig.ctx, [blocks[i]])
        flushed.add(i)
        durable = 0
        while durable in flushed:
            durable += 1
        assert committed == txs[:durable]
        assert [tx.open for tx in txs] == [k >= durable for k in range(3)]
    assert committed == txs


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


def test_no_queue_outlives_its_files_deferred_commits(rig):
    """Once every file's blocks are flushed or discarded, no per-file
    queue is left behind (create/delete churn must not grow the map)."""
    fds = {}
    for i in range(6):
        fds[i] = rig.vfs.open(rig.ctx, "/q%d" % i, f.O_CREAT | f.O_RDWR)
        for round_no in range(3):
            rig.vfs.pwrite(rig.ctx, fds[i], round_no * 4096, b"q" * 512)
    assert len(rig.fs._pending) == 6
    for i in range(6):
        if i % 2:
            rig.vfs.close(rig.ctx, fds[i])
            rig.vfs.unlink(rig.ctx, "/q%d" % i)
        else:
            rig.vfs.fsync(rig.ctx, fds[i])
    assert rig.fs._pending == {}
    assert rig.fs.journal.open_transactions == 0
