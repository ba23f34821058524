"""The data-syscall pipeline's failure paths: what a refused, failed or
injected-EIO request leaves charged, counted and locked."""

import pytest

from repro.bench.runner import build_stack
from repro.engine.context import ExecContext
from repro.engine.env import SimEnv
from repro.faults import FaultPlan
from repro.fs import flags as f
from repro.fs.errors import BadFileDescriptor, MediaError, ReadOnly
from repro.io import ring as uring
from repro.nvmm.config import NVMMConfig


def _rig(fs_name="pmfs"):
    env = SimEnv()
    _, vfs = build_stack(env, fs_name, NVMMConfig(), 32 << 20)
    ctx = ExecContext(env, "app")
    fd = vfs.open(ctx, "/f", f.O_CREAT | f.O_RDWR)
    vfs.pwrite(ctx, fd, 0, b"a" * 8192)
    return env, vfs, ctx, fd


def _ledger(env, ctx):
    """Everything the pipeline charges or counts for a request."""
    stats = env.stats
    return (ctx.now, stats.breakdown.as_dict(), stats.ops_completed,
            stats.count("vfs_syscall_entries"),
            stats.count("lock_acquisitions"),
            dict(stats.syscall_counts), dict(stats.syscall_time_ns))


@pytest.mark.parametrize("fs_name", ["pmfs", "hinfs"])
@pytest.mark.parametrize("call", [
    lambda vfs, ctx, fd: vfs.pwrite(ctx, 99, 0, b"x"),
    lambda vfs, ctx, fd: vfs.pread(ctx, 99, 0, 16),
    lambda vfs, ctx, fd: vfs.fsync(ctx, 99),
], ids=["pwrite", "pread", "fsync"])
def test_a_bad_fd_raises_before_any_charge_or_count(fs_name, call):
    env, vfs, ctx, fd = _rig(fs_name)
    before = _ledger(env, ctx)
    with pytest.raises(BadFileDescriptor):
        call(vfs, ctx, fd)
    assert _ledger(env, ctx) == before
    assert ctx.held_locks == []


@pytest.mark.parametrize("fs_name", ["pmfs", "hinfs"])
def test_a_write_to_a_read_only_fd_raises_before_any_charge_or_count(
        fs_name):
    env, vfs, ctx, _ = _rig(fs_name)
    fd = vfs.open(ctx, "/f", f.O_RDONLY)
    before = _ledger(env, ctx)
    with pytest.raises(ReadOnly):
        vfs.pwrite(ctx, fd, 0, b"x")
    assert _ledger(env, ctx) == before
    assert ctx.held_locks == []


def _failing_submit(charge_ns):
    """``fs.submit`` that spends ``charge_ns`` and then hits bad media."""

    def submit(ctx, req):
        ctx.charge(charge_ns)
        raise MediaError("injected EIO from the fs")

    return submit


@pytest.mark.parametrize("fs_name", ["pmfs", "hinfs", "hinfs@2"])
def test_an_eio_from_the_fs_is_counted_timed_and_unlocks(fs_name,
                                                         monkeypatch):
    env, vfs, ctx, fd = _rig(fs_name)
    stats = env.stats
    errors = vfs.health.media_errors
    completed = stats.ops_completed
    calls = stats.syscall_counts["write"]
    spent = stats.syscall_time_ns["write"]
    start = ctx.now
    monkeypatch.setattr(vfs.fs, "submit", _failing_submit(5000))
    with pytest.raises(MediaError):
        vfs.pwrite(ctx, fd, 0, b"b" * 4096)
    failed_at = ctx.now
    assert failed_at >= start + 5000
    assert vfs.health.media_errors == errors + 1
    assert stats.syscall_counts["write"] == calls + 1
    assert stats.syscall_time_ns["write"] == spent + failed_at - start
    assert stats.ops_completed == completed
    assert ctx.held_locks == []
    monkeypatch.undo()
    # The lock was released at the failure's time: a writer that arrives
    # earlier waits for it, and the failed thread itself takes it again.
    other = ExecContext(env, "other", start_ns=start)
    other_fd = vfs.open(other, "/f", f.O_RDWR)
    assert vfs.pwrite(other, other_fd, 0, b"c" * 4096) == 4096
    assert other.now > failed_at
    assert vfs.pwrite(ctx, fd, 0, b"d" * 4096) == 4096
    assert vfs.pread(ctx, fd, 0, 4) == b"dddd"
    assert ctx.held_locks == [] and other.held_locks == []


def test_a_ring_site_eio_in_a_linked_batch_cancels_the_rest_of_the_chain():
    env, vfs, ctx, fd = _rig()
    ring = vfs.ring(ctx)
    FaultPlan(env).arm("ring", ring._seq + 1)
    completed = env.stats.ops_completed
    cqes = ring.submit_and_wait([
        uring.prep_write(fd, b"x", 0, flags=uring.IOSQE_IO_LINK),
        uring.prep_write(fd, b"y", 1, flags=uring.IOSQE_IO_LINK),
        uring.prep_fsync(fd),
    ])
    assert [c.res for c in cqes] == [1, -MediaError.errno, -uring.ECANCELED]
    assert isinstance(cqes[1].error, MediaError)
    assert env.stats.ops_completed == completed + 1
    assert vfs.pread(ctx, fd, 0, 2) == b"xa"
    assert ctx.held_locks == []


def test_a_ring_site_eio_on_a_sync_syscall_is_raised_before_the_pipeline():
    env, vfs, ctx, fd = _rig()
    FaultPlan(env).arm("ring", vfs.ring(ctx)._seq)
    entries = env.stats.count("vfs_syscall_entries")
    completed = env.stats.ops_completed
    with pytest.raises(MediaError):
        vfs.pwrite(ctx, fd, 0, b"z")
    assert env.stats.count("vfs_syscall_entries") == entries
    assert env.stats.ops_completed == completed
    assert env.stats.count("ring_fault_injections") == 1
    assert vfs.pread(ctx, fd, 0, 1) == b"a"
