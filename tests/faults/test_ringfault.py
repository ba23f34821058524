"""Ring-targeted fault injection: failed SQEs and mid-chain crashes --
the ``ring`` / ``ring:after`` sites of the one
:class:`repro.faults.FaultPlan`, keyed by SQE sequence number."""

import pytest

from repro.bench.runner import build_stack
from repro.engine.context import ExecContext
from repro.engine.env import SimEnv
from repro.faults import FaultPlan, PowerCut
from repro.fs import flags as f
from repro.fs.errors import MediaError
from repro.io import ring as uring
from repro.nvmm.config import NVMMConfig


def make_rig(fs_name="hinfs"):
    env = SimEnv()
    fs, vfs = build_stack(env, fs_name, NVMMConfig(), 48 << 20)
    ctx = ExecContext(env, "ringfault-test")
    return env, fs, vfs, ctx


def test_failing_the_nth_sqe_turns_it_into_eio():
    env, fs, vfs, ctx = make_rig()
    fd = vfs.open(ctx, "/f", f.O_CREAT | f.O_RDWR)
    ring = vfs.ring(ctx)
    FaultPlan(env).arm("ring", 1, hits=None)
    cqes = ring.submit_and_wait([
        uring.prep_write(fd, b"ok", 0),
        uring.prep_write(fd, b"doomed", 64),
        uring.prep_write(fd, b"fine", 128),
    ])
    assert [c.ok for c in cqes] == [True, False, True]
    assert cqes[1].res == -MediaError.errno
    assert isinstance(cqes[1].error, MediaError)
    assert env.stats.count("ring_fault_injections") == 1


def test_injected_failure_cancels_the_linked_chain():
    env, fs, vfs, ctx = make_rig()
    fd = vfs.open(ctx, "/f", f.O_CREAT | f.O_RDWR)
    ring = vfs.ring(ctx)
    FaultPlan(env).arm("ring", 0, hits=None)
    cqes = ring.submit_and_wait([
        uring.prep_write(fd, b"doomed", 0, flags=uring.IOSQE_IO_LINK),
        uring.prep_fsync(fd),
    ])
    assert cqes[0].res == -MediaError.errno
    assert cqes[1].res == -uring.ECANCELED
    assert env.stats.count("ring_link_cancels") == 1


def test_max_hits_limits_the_injection():
    env, fs, vfs, ctx = make_rig()
    fd = vfs.open(ctx, "/f", f.O_CREAT | f.O_RDWR)
    ring = vfs.ring(ctx)
    # One hit's budget on "any sequence number": the first SQE spends it.
    plan = FaultPlan(env).arm("ring", hits=1)
    cqes = ring.submit_and_wait([uring.prep_write(fd, b"a", 0),
                                 uring.prep_write(fd, b"b", 16)])
    assert [c.ok for c in cqes] == [False, True]
    assert plan.hits == 1


def test_crash_between_linked_write_and_fsync():
    """Power fails after the write's CQE exists but before its linked
    fsync runs: the write was acknowledged, nothing was persisted."""
    env, fs, vfs, ctx = make_rig()
    fd = vfs.open(ctx, "/f", f.O_CREAT | f.O_RDWR)
    ino = vfs.fstat(ctx, fd).ino
    ring = vfs.ring(ctx)
    plan = FaultPlan(env).arm("ring:after", 0, crash=True)
    with pytest.raises(PowerCut) as exc:
        ring.submit([uring.prep_write(fd, b"x" * 4096, 0,
                                      flags=uring.IOSQE_IO_LINK),
                     uring.prep_fsync(fd)])
    assert (exc.value.site, exc.value.key) == ("ring:after", 0)
    # Only the write executed; the linked fsync never ran.
    assert plan.observed == [("ring", 0), ("ring:after", 0)]
    assert env.stats.count("hinfs_fsyncs") == 0
    # The acknowledged write's CQE is reapable, and -- fsync having never
    # run -- the data still sits in the DRAM buffer, i.e. it would be
    # lost by the crash. That is exactly the window the link closes.
    (cqe,) = ring.peek()
    assert cqe.res == 4096
    assert list(fs.buffer.file_blocks(ino))


def test_crash_after_full_chain_sees_durable_data():
    env, fs, vfs, ctx = make_rig()
    fd = vfs.open(ctx, "/f", f.O_CREAT | f.O_RDWR)
    ino = vfs.fstat(ctx, fd).ino
    ring = vfs.ring(ctx)
    plan = FaultPlan(env).arm("ring:after", 1, crash=True)
    with pytest.raises(PowerCut):
        ring.submit([uring.prep_write(fd, b"x" * 4096, 0,
                                      flags=uring.IOSQE_IO_LINK),
                     uring.prep_fsync(fd)])
    # Both ops ran before the cut -- the fsync's writeback of the block
    # the write (request #1) left in the buffer sits between the fsync's
    # two ring sites -- and the buffer is clean.
    assert plan.observed == [("ring", 0), ("ring:after", 0), ("ring", 1),
                             ("writeback", 1), ("ring:after", 1)]
    assert not list(fs.buffer.file_blocks(ino))
    assert env.stats.count("hinfs_fsyncs") == 1
