"""Per-inode VFS locking: contention, accounting, and lock ordering.

Inode locks live on the virtual timeline: a contended acquisition
advances the waiter's clock to the holder's release point.  Same-file
writers therefore serialise (and the wait is counted), while
disjoint-file writers overlap untouched -- the property the
thread-scalability experiment depends on.
"""

import pytest

from repro.engine.context import ExecContext
from repro.engine.errors import DeadlockError
from repro.engine.scheduler import Scheduler
from repro.fs import flags as f
from repro.obs.trace import LAYER_LOCK


def write_body(vfs, path, rounds, size=4096):
    def body(ctx):
        fd = vfs.open(ctx, path, f.O_CREAT | f.O_RDWR)
        for i in range(rounds):
            vfs.pwrite(ctx, fd, i * size, b"x" * size)
            yield
        vfs.close(ctx, fd)

    return body


def test_same_file_writers_contend(rig):
    sched = Scheduler(rig.env)
    sched.spawn("w0", write_body(rig.vfs, "/shared", 20))
    sched.spawn("w1", write_body(rig.vfs, "/shared", 20))
    sched.run()
    assert rig.env.stats.count("lock_contentions") > 0
    assert rig.env.stats.count("lock_wait_ns") > 0


def test_disjoint_file_writers_do_not_contend(rig):
    sched = Scheduler(rig.env)
    sched.spawn("w0", write_body(rig.vfs, "/a", 20))
    sched.spawn("w1", write_body(rig.vfs, "/b", 20))
    sched.run()
    assert rig.env.stats.count("lock_contentions") == 0
    assert rig.env.stats.count("lock_wait_ns") == 0
    assert rig.env.stats.count("lock_acquisitions") > 0


def test_reads_overlap_on_one_file(rig):
    rig.vfs.write_file(rig.ctx, "/hot", b"z" * 8192)
    start = rig.ctx.now  # readers begin after the prep writes' release

    def read_body(ctx):
        ctx.now = start
        fd = rig.vfs.open(ctx, "/hot", f.O_RDONLY)
        for i in range(10):
            rig.vfs.pread(ctx, fd, 0, 4096)
            yield
        rig.vfs.close(ctx, fd)

    sched = Scheduler(rig.env)
    sched.spawn("r0", read_body)
    sched.spawn("r1", read_body)
    sched.run()
    assert rig.env.stats.count("lock_contentions") == 0


def test_contended_wait_lands_in_lock_layer_time(rig):
    rig.env.enable_tracing(1 << 12)
    sched = Scheduler(rig.env)
    sched.spawn("w0", write_body(rig.vfs, "/shared", 20))
    sched.spawn("w1", write_body(rig.vfs, "/shared", 20))
    sched.run()
    assert rig.env.stats.layer_time_ns[LAYER_LOCK] > 0
    assert (rig.env.stats.layer_time_ns[LAYER_LOCK]
            == rig.env.stats.count("lock_wait_ns"))


def test_writer_defers_fsync_of_same_file(rig):
    rig.vfs.write_file(rig.ctx, "/f", b"a" * 4096)
    ino = rig.vfs.stat(rig.ctx, "/f").ino
    release = rig.vfs.ilocks.lock(ino)._write_free_at
    assert release > 0
    late = ExecContext(rig.env, "late")  # starts at t=0, behind the writer
    fd2 = rig.vfs.open(late, "/f", f.O_RDWR)
    rig.vfs.fsync(late, fd2)
    # The fsync could not run inside the writer's exclusive section: its
    # clock was pushed past the last write-lock release.
    assert late.now >= release
    assert rig.env.stats.count("lock_contentions") > 0
    rig.vfs.close(late, fd2)


def test_rename_locks_in_canonical_order(rig, monkeypatch):
    rig.vfs.write_file(rig.ctx, "/x", b"1")
    rig.vfs.write_file(rig.ctx, "/y", b"2")
    seen = []
    real = rig.fs.rename

    def spy(ctx, *args, **kwargs):
        seen.append(list(ctx.held_locks))
        return real(ctx, *args, **kwargs)

    monkeypatch.setattr(rig.fs, "rename", spy)
    rig.vfs.rename(rig.ctx, "/x", "/y")
    (held,) = seen
    inos = [ino for ino, _mode in held]
    assert inos == sorted(inos)
    assert all(mode == "write" for _ino, mode in held)
    # Parents, the moved inode, and the replaced victim are all covered.
    assert len(inos) >= 3


def test_cross_renames_both_succeed(rig):
    """a->b and b->a from two threads: the sorted lock set means both
    orders acquire the same sequence, so neither can deadlock."""
    rig.vfs.write_file(rig.ctx, "/a", b"a")
    rig.vfs.write_file(rig.ctx, "/b", b"b")

    def renamer(old, new):
        def body(ctx):
            rig.vfs.rename(ctx, old, new)
            yield

        return body

    sched = Scheduler(rig.env)
    sched.spawn("r0", renamer("/a", "/b"))
    sched.spawn("r1", renamer("/b", "/a"))
    sched.run()
    # One direction replaced the other's source; exactly one name is left.
    left = {name for name in ("/a", "/b")
            if rig.vfs.exists(rig.ctx, name)}
    assert len(left) == 1


def test_unlink_locks_parent_and_child(rig, monkeypatch):
    rig.vfs.write_file(rig.ctx, "/victim", b"v")
    seen = []
    real = rig.fs.unlink

    def spy(ctx, *args, **kwargs):
        seen.append(list(ctx.held_locks))
        return real(ctx, *args, **kwargs)

    monkeypatch.setattr(rig.fs, "unlink", spy)
    rig.vfs.unlink(rig.ctx, "/victim")
    (held,) = seen
    inos = [ino for ino, _mode in held]
    assert len(inos) == 2
    assert inos == sorted(inos)


def test_misordered_manual_acquisition_is_diagnosed(rig):
    """Lockdep at the VFS boundary: taking a lower inode while holding a
    higher one raises immediately, naming both locks."""
    rig.vfs.write_file(rig.ctx, "/p", b"p")
    rig.vfs.write_file(rig.ctx, "/q", b"q")
    lo = rig.vfs.stat(rig.ctx, "/p").ino
    hi = rig.vfs.stat(rig.ctx, "/q").ino
    assert lo < hi
    with rig.vfs.ilocks.write_locked(rig.ctx, hi):
        with pytest.raises(DeadlockError, match="lowest-inode-first"):
            with rig.vfs.ilocks.write_locked(rig.ctx, lo):
                pass
