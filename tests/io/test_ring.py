"""The submission/completion ring: batching, links, drains, async CQEs."""

import pytest

from repro.bench.runner import build_stack
from repro.engine.context import ExecContext
from repro.engine.env import SimEnv
from repro.fs import flags as f
from repro.faults import FaultPlan
from repro.fs.errors import (
    BadFileDescriptor,
    InvalidArgument,
    MediaError,
    ReadOnly,
)
from repro.io import ring as uring
from repro.nvmm.config import NVMMConfig


class Rig:
    def __init__(self, fs_name="hinfs"):
        self.env = SimEnv()
        self.config = NVMMConfig()
        self.fs, self.vfs = build_stack(self.env, fs_name, self.config,
                                        48 << 20)
        self.ctx = ExecContext(self.env, "ring-test")

    def open(self, path="/f", flags=f.O_CREAT | f.O_RDWR):
        return self.vfs.open(self.ctx, path, flags)


def test_sync_syscalls_are_single_sqe_batches():
    """pwrite/pread/fsync go through the ring: every one is one batch of
    one SQE, fully reaped."""
    rig = Rig()
    fd = rig.open()
    rig.vfs.pwrite(rig.ctx, fd, 0, b"x" * 64)
    rig.vfs.pread(rig.ctx, fd, 0, 64)
    rig.vfs.fsync(rig.ctx, fd)
    stats = rig.env.stats
    assert stats.count("ring_batches") == 3
    assert stats.count("ring_sqes") == 3
    assert stats.count("ring_cqes") == 3
    assert rig.vfs.ring(rig.ctx).in_flight == 0


def test_batch_pays_one_entry_and_saves_syscall_ns():
    """A batch of N pays T_syscall once; N separate submissions pay it N
    times -- everything else identical."""
    batched = Rig()
    fd = batched.open()
    ring = batched.vfs.ring(batched.ctx)
    sqes = [uring.prep_write(fd, bytes([i]) * 256, i * 256)
            for i in range(8)]
    cqes = ring.submit_and_wait(sqes)
    assert [c.res for c in cqes] == [256] * 8
    assert batched.env.stats.count("vfs_syscall_entries") == 2  # open + batch
    assert batched.env.stats.count("ring_batches") == 1

    single = Rig()
    fd2 = single.open()
    for i in range(8):
        single.vfs.pwrite(single.ctx, fd2, i * 256, bytes([i]) * 256)
    saved = single.ctx.now - batched.ctx.now
    assert saved == 7 * single.config.syscall_ns


def test_cqes_carry_user_data_in_submission_order():
    rig = Rig()
    fd = rig.open()
    ring = rig.vfs.ring(rig.ctx)
    sqes = [uring.prep_write(fd, b"a" * 16, i * 16, user_data="op%d" % i)
            for i in range(4)]
    cqes = ring.submit_and_wait(sqes)
    assert [c.user_data for c in cqes] == ["op0", "op1", "op2", "op3"]
    assert [c.seq for c in cqes] == sorted(c.seq for c in cqes)


def test_failed_sqe_completes_with_negative_errno():
    rig = Rig()
    fd = rig.vfs.open(rig.ctx, "/ro", f.O_CREAT | f.O_RDONLY)
    ring = rig.vfs.ring(rig.ctx)
    (cqe,) = ring.submit_and_wait([uring.prep_write(fd, b"nope")])
    assert cqe.res == -ReadOnly.errno
    assert isinstance(cqe.error, ReadOnly)
    assert not cqe.ok
    # The sync wrapper surfaces the same failure as the exception.
    with pytest.raises(ReadOnly):
        rig.vfs.write(rig.ctx, fd, b"nope")


def test_link_failure_cancels_the_rest_of_the_chain():
    rig = Rig()
    fd = rig.open()
    ro = rig.vfs.open(rig.ctx, "/ro", f.O_CREAT | f.O_RDONLY)
    ring = rig.vfs.ring(rig.ctx)
    bad = uring.prep_write(ro, b"x", 0, flags=uring.IOSQE_IO_LINK)
    linked = uring.prep_fsync(ro, flags=uring.IOSQE_IO_LINK)
    also_linked = uring.prep_write(ro, b"y", 0)
    unlinked = uring.prep_write(fd, b"fine", 0)
    cqes = ring.submit_and_wait([bad, linked, also_linked, unlinked])
    assert cqes[0].res == -ReadOnly.errno
    assert cqes[1].res == -uring.ECANCELED
    assert cqes[2].res == -uring.ECANCELED
    assert cqes[3].res == 4  # not linked to the failed chain
    assert rig.env.stats.count("ring_link_cancels") == 2


def test_successful_link_chain_runs_in_order():
    rig = Rig()
    fd = rig.open()
    ring = rig.vfs.ring(rig.ctx)
    write = uring.prep_write(fd, b"z" * 128, 0, flags=uring.IOSQE_IO_LINK)
    cqes = ring.submit_and_wait([write, uring.prep_fsync(fd)])
    assert [c.res for c in cqes] == [128, 0]
    assert rig.env.stats.count("ring_link_cancels") == 0


def test_async_fsync_defers_completion_to_the_persist(rig_fs="hinfs"):
    rig = Rig(rig_fs)
    fd = rig.open()
    rig.vfs.pwrite(rig.ctx, fd, 0, b"d" * 4096)
    ring = rig.vfs.ring(rig.ctx)
    ring.submit([uring.prep_fsync(fd, flags=uring.IOSQE_ASYNC)])
    assert ring.in_flight == 1
    submitted_at = rig.ctx.now
    (cqe,) = ring.wait(1)
    assert cqe.res == 0
    assert cqe.done_ns >= submitted_at
    # The reaper's clock advanced to the persist point.
    assert rig.ctx.now >= cqe.done_ns


def test_async_fsync_on_journaling_stack_rides_the_commit():
    rig = Rig("ext4-nvmmbd")
    fd = rig.open()
    rig.vfs.pwrite(rig.ctx, fd, 0, b"j" * 4096)
    before = rig.env.stats.count("jbd2_commits")
    ring = rig.vfs.ring(rig.ctx)
    ring.submit([uring.prep_fsync(fd, flags=uring.IOSQE_ASYNC)])
    # Nobody committed yet; reaping forces the commit inline.
    (cqe,) = ring.wait(1)
    assert cqe.res == 0
    assert rig.env.stats.count("jbd2_commits") == before + 1


def test_drain_barrier_forces_pending_completions():
    rig = Rig()
    fd = rig.open()
    rig.vfs.pwrite(rig.ctx, fd, 0, b"d" * 4096)
    ring = rig.vfs.ring(rig.ctx)
    ring.submit([uring.prep_fsync(fd, flags=uring.IOSQE_ASYNC)])
    assert ring.in_flight == 1
    ring.submit([uring.prep_write(fd, b"after", 0,
                                  flags=uring.IOSQE_IO_DRAIN)])
    assert rig.env.stats.count("ring_drains") == 1
    cqes = ring.wait(2)
    assert sorted(c.seq for c in cqes) == [c.seq for c in cqes]
    assert {c.res for c in cqes} == {0, 5}


def test_peek_reaps_only_ready_completions():
    rig = Rig()
    fd = rig.open()
    ring = rig.vfs.ring(rig.ctx)
    ring.submit([uring.prep_write(fd, b"now", 0)])
    assert [c.res for c in ring.peek()] == [3]
    assert ring.peek() == []


def test_wait_for_more_than_in_flight_is_einval():
    rig = Rig()
    fd = rig.open()
    ring = rig.vfs.ring(rig.ctx)
    ring.submit([uring.prep_write(fd, b"x", 0)])
    with pytest.raises(InvalidArgument):
        ring.wait(2)


def test_oversized_batch_is_einval():
    rig = Rig()
    fd = rig.open()
    ring = rig.vfs.ring(rig.ctx, sq_depth=64)
    sqes = [uring.prep_write(fd, b"x", i) for i in range(65)]
    with pytest.raises(InvalidArgument):
        ring.submit(sqes)


def test_execute_one_leaves_foreign_completions_alone():
    rig = Rig()
    fd = rig.open()
    ring = rig.vfs.ring(rig.ctx)
    ring.submit([uring.prep_write(fd, b"mine", 0, user_data="async")])
    # A sync syscall through the wrapper must not scoop the older CQE.
    assert rig.vfs.pwrite(rig.ctx, fd, 64, b"sync") == 4
    cqes = ring.peek()
    assert [c.user_data for c in cqes] == ["async"]


def test_batched_submission_is_traced_as_ring_layer():
    rig = Rig()
    rig.env.enable_tracing(256)
    fd = rig.open()
    ring = rig.vfs.ring(rig.ctx)
    ring.submit_and_wait([uring.prep_write(fd, b"a" * 64, 0),
                          uring.prep_write(fd, b"b" * 64, 64)])
    spans = rig.env.trace.spans()
    batch_spans = [s for s in spans if s.name == "ring_submit"]
    assert len(batch_spans) == 1
    (sp,) = batch_spans
    assert sp.layer == "ring"
    assert sp.meta == {"sqes": 2}
    phases = [layer for layer, _enter, _exit in sp.phases]
    assert phases.count("ring.sq_wait") == 2
    assert phases.count("ring.in_flight") == 2


def test_single_sqe_batches_add_no_ring_spans():
    rig = Rig()
    rig.env.enable_tracing(256)
    fd = rig.open()
    rig.vfs.pwrite(rig.ctx, fd, 0, b"x" * 64)
    assert all(s.layer != "ring" for s in rig.env.trace.spans())


def test_fdatasync_sqe_accounted_under_its_own_syscall():
    rig = Rig()
    fd = rig.open()
    rig.vfs.pwrite(rig.ctx, fd, 0, b"x" * 64)
    rig.vfs.fdatasync(rig.ctx, fd)
    assert rig.env.stats.syscall_counts["fdatasync"] == 1
    assert "fsync" not in rig.env.stats.syscall_counts


# -- one core, two entrances ------------------------------------------------
#
# A sync syscall (``ring.execute_one``) and a batch of one
# (``ring.submit_and_wait([sqe])``) run the same per-SQE core, so on
# identical rigs they cost the same virtual time, move the same counters,
# record the same spans and show the fault injector the same ops.


def _ready_rig(fs_name):
    """A traced rig with 4 KB already in /f; the op under test runs as
    ring sequence number 1 (the set-up write was number 0)."""
    rig = Rig(fs_name)
    rig.env.enable_tracing(256)
    fd = rig.open()
    rig.vfs.pwrite(rig.ctx, fd, 0, b"s" * 4096)
    return rig, fd


def _observe(rig):
    plan = rig.env.faults
    spans = [(sp.req_id, sp.name, sp.layer, sp.thread, sp.start_ns,
              sp.end_ns, sp.phases, sp.meta) for sp in rig.env.trace.spans()]
    return (rig.ctx.now, dict(rig.env.stats.counters), spans,
            plan.observed if plan is not None else None)


_OPS = {
    "read": (lambda vfs, ctx, fd: vfs.pread(ctx, fd, 128, 512),
             lambda fd: uring.prep_read(fd, 512, 128)),
    "write": (lambda vfs, ctx, fd: vfs.pwrite(ctx, fd, 128, b"w" * 512),
              lambda fd: uring.prep_write(fd, b"w" * 512, 128)),
    "fsync": (lambda vfs, ctx, fd: vfs.fsync(ctx, fd),
              lambda fd: uring.prep_fsync(fd)),
    "fdatasync": (lambda vfs, ctx, fd: vfs.fdatasync(ctx, fd),
                  lambda fd: uring.prep_fsync(fd, datasync=True)),
}


def _both_entrances(fs_name, op, arm=None):
    """Run ``op`` through each entrance on fresh identical rigs; returns
    ``((sync outcome, observation), (batch outcome, observation))``
    where an outcome is the op's value or its exception."""
    wrapper, prep = _OPS[op]
    out = []
    for entrance in ("sync", "batch"):
        rig, fd = _ready_rig(fs_name)
        if arm is not None:
            arm(rig)
        if entrance == "sync":
            try:
                outcome = wrapper(rig.vfs, rig.ctx, fd)
            except MediaError as exc:
                outcome = exc
        else:
            (cqe,) = rig.vfs.ring(rig.ctx).submit_and_wait([prep(fd)])
            outcome = cqe.error if cqe.error is not None else cqe.value
        out.append((outcome, _observe(rig)))
    return out


@pytest.mark.parametrize("fs_name", ["pmfs", "hinfs", "ext4-nvmmbd"])
@pytest.mark.parametrize("op", sorted(_OPS))
def test_sync_wrapper_and_batch_of_one_are_indistinguishable(fs_name, op):
    (sync_value, sync_seen), (batch_value, batch_seen) = \
        _both_entrances(fs_name, op)
    assert sync_seen == batch_seen
    if op == "read":
        assert [sync_value] == batch_value == [b"s" * 512]
    elif op == "write":
        assert sync_value == batch_value == 512
    else:
        assert sync_value is None and batch_value == 0


@pytest.mark.parametrize("op", sorted(_OPS))
def test_injected_eio_is_the_same_failure_through_both_entrances(op):
    def arm(rig):
        FaultPlan(rig.env).arm("ring", 1, hits=None)

    (sync_exc, sync_seen), (batch_exc, batch_seen) = \
        _both_entrances("hinfs", op, arm)
    assert isinstance(sync_exc, MediaError)
    assert isinstance(batch_exc, MediaError)
    assert str(sync_exc) == str(batch_exc)
    assert sync_seen == batch_seen
    assert sync_seen[1]["ring_fault_injections"] == 1
    assert sync_seen[3][-1] == ("ring:after", 1)  # armed by sequence number


@pytest.mark.parametrize("call", [
    lambda vfs, ctx: vfs.pread(ctx, 99, 0, 8),
    lambda vfs, ctx: vfs.pwrite(ctx, 99, 0, b"x"),
    lambda vfs, ctx: vfs.fsync(ctx, 99),
], ids=["read", "write", "fsync"])
def test_bad_descriptor_fails_before_anything_is_charged_or_recorded(call):
    """One rule for all three opcodes: the descriptor is resolved first,
    so EBADF costs no virtual time, no syscall entry and no span."""
    rig = Rig()
    rig.env.enable_tracing(64)
    rig.open()
    now = rig.ctx.now
    entries = rig.env.stats.count("vfs_syscall_entries")
    ops = rig.env.stats.ops_completed
    spans = len(rig.env.trace.spans())
    with pytest.raises(BadFileDescriptor):
        call(rig.vfs, rig.ctx)
    assert rig.ctx.now == now
    assert rig.env.stats.count("vfs_syscall_entries") == entries
    assert rig.env.stats.ops_completed == ops
    assert len(rig.env.trace.spans()) == spans
    # The same through a batch: an error CQE, still nothing charged.
    (cqe,) = rig.vfs.ring(rig.ctx).submit_and_wait([uring.prep_fsync(99)])
    assert isinstance(cqe.error, BadFileDescriptor)
    assert rig.ctx.now == now
