"""io_uring-style submission/completion rings in virtual time.

Every data operation of the stack is one :class:`SQE` run by one
per-SQE core, :meth:`repro.fs.vfs.VFS.execute`, reached two ways; each
entrance consults the ``ring`` fault site just before it.  The sync
syscalls call :meth:`IORing.execute_one`: the value comes straight back
(or the exception is raised), with no SQ/CQ traffic and no CQE.
Workloads that want the real benefit :meth:`IORing.submit` many SQEs
per batch:
submission pays the user/kernel mode switch (``T_syscall``) once per
**batch**, not once per operation -- the amortization KucoFS and
io_uring are built on -- while the per-op VFS bookkeeping cost
(``vfs_op_ns``) remains per SQE.

Batch execution is inline at submit time on the submitting thread's
context (io_uring's non-blocking fast path): an SQE's failure becomes a
CQE with ``res = -errno`` (the exception object rides along), and linked
chains (``IOSQE_IO_LINK``) cancel their remainder with ``-ECANCELED``
when a member fails.  Operations marked
``IOSQE_ASYNC`` may return a pending
:class:`~repro.engine.locks.VCompletion` from the file system (an async
fsync whose persist lands on the device's or journal's timeline); their
CQEs materialise when the reaper :meth:`wait` s, which blocks in virtual
time exactly like a contended lock.

Trace integration: a batch of more than one SQE opens a ``ring``-layer
span carrying per-SQE ``ring.sq_wait`` (queued before execution) and
``ring.in_flight`` (executing) phases; a blocking reap opens a
``ring``-layer span with a ``ring.cq_wait`` phase.  A single SQE --
:meth:`IORing.execute_one` or a batch of one -- adds no spans, so plain
syscall traces are unchanged.
"""

import errno as _errno

from repro.engine.locks import VCompletion
from repro.fs.errors import FSError, InvalidArgument
from repro.obs.trace import LAYER_RING, RING_CQ_WAIT, RING_IN_FLIGHT, \
    RING_SQ_WAIT

#: Ring opcodes (the subset of io_uring ops :meth:`VFS.execute`
#: implements; namespace syscalls stay synchronous).
IORING_OP_READV = 1
IORING_OP_WRITEV = 2
IORING_OP_FSYNC = 3

#: SQE flags.
IOSQE_IO_LINK = 0x1    # next SQE depends on this one; failure cancels it
IOSQE_IO_DRAIN = 0x2   # barrier: previous submissions complete first
IOSQE_ASYNC = 0x4      # allow a deferred completion (async fsync)

#: fsync_flags.
IORING_FSYNC_DATASYNC = 0x1

ECANCELED = getattr(_errno, "ECANCELED", 125)

_OP_NAMES = {
    IORING_OP_READV: "readv",
    IORING_OP_WRITEV: "writev",
    IORING_OP_FSYNC: "fsync",
}


class SQE:
    """One submission-queue entry."""

    __slots__ = ("op", "fd", "offset", "iovecs", "flags", "fsync_flags",
                 "user_data", "syscall", "tenant")

    def __init__(self, op, fd, offset=None, iovecs=(), flags=0,
                 fsync_flags=0, user_data=None, syscall=None, tenant=None):
        if op not in _OP_NAMES:
            raise InvalidArgument("unknown ring opcode %r" % (op,))
        self.op = op
        self.fd = fd
        #: File offset, or None for "use and advance the descriptor's
        #: position" (read(2)/write(2) semantics, honouring O_APPEND).
        self.offset = offset
        self.iovecs = list(iovecs)
        self.flags = flags
        self.fsync_flags = fsync_flags
        #: Opaque caller cookie, copied verbatim into the CQE.
        self.user_data = user_data
        #: Syscall-breakdown bucket this SQE is accounted under.
        if syscall is None:
            syscall = _OP_NAMES[op]
            if op == IORING_OP_FSYNC and fsync_flags & IORING_FSYNC_DATASYNC:
                syscall = "fdatasync"
        self.syscall = syscall
        #: Tenant id the resulting IORequest is billed to (per-tenant SQE
        #: tagging: a server thread multiplexing many tenants over one
        #: ring tags each SQE, and QoS accounting follows the tag).
        self.tenant = tenant

    def __repr__(self):
        return "SQE(%s fd=%d off=%r flags=%#x)" % (
            self.syscall, self.fd, self.offset, self.flags,
        )


def prep_readv(fd, sizes, offset=None, **kwargs):
    """Scatter read of ``sizes`` byte counts."""
    return SQE(IORING_OP_READV, fd, offset, sizes, **kwargs)


def prep_read(fd, count, offset=None, **kwargs):
    """Single-buffer read (accounted as ``read``)."""
    kwargs.setdefault("syscall", "read")
    return SQE(IORING_OP_READV, fd, offset, [count], **kwargs)


def prep_writev(fd, iovecs, offset=None, **kwargs):
    """Gather write of bytes-like ``iovecs``."""
    return SQE(IORING_OP_WRITEV, fd, offset, iovecs, **kwargs)


def prep_write(fd, data, offset=None, **kwargs):
    """Single-buffer write (accounted as ``write``)."""
    kwargs.setdefault("syscall", "write")
    return SQE(IORING_OP_WRITEV, fd, offset, [bytes(data)], **kwargs)


def prep_fsync(fd, datasync=False, **kwargs):
    """fsync (or, with ``datasync``, fdatasync) of ``fd``."""
    return SQE(IORING_OP_FSYNC, fd,
               fsync_flags=IORING_FSYNC_DATASYNC if datasync else 0,
               **kwargs)


class CQE:
    """One completion-queue entry."""

    __slots__ = ("user_data", "res", "value", "error", "seq", "done_ns")

    def __init__(self, user_data, res, value, error, seq, done_ns):
        self.user_data = user_data
        #: io_uring result convention: >= 0 on success (bytes moved, or
        #: 0 for fsync), ``-errno`` on failure.
        self.res = res
        #: The operation's Python-level payload (read buffers, written
        #: byte count); None on failure.
        self.value = value
        #: The original exception object on failure (callers that want
        #: to raise it keep its class and message).
        self.error = error
        #: Submission sequence number (monotonic per ring).
        self.seq = seq
        #: Virtual time the operation completed.
        self.done_ns = done_ns

    @property
    def ok(self):
        return self.res >= 0

    def __repr__(self):
        return "CQE(seq=%d res=%d at=%d)" % (self.seq, self.res, self.done_ns)


class _Pending:
    """An SQE whose completion is deferred to a VCompletion."""

    __slots__ = ("seq", "sqe", "completion")

    def __init__(self, seq, sqe, completion):
        self.seq = seq
        self.sqe = sqe
        self.completion = completion


class _LinkCancelled(FSError):
    """ECANCELED: a preceding linked operation failed."""

    errno = ECANCELED


class IORing:
    """One thread's submission/completion ring over a VFS."""

    def __init__(self, vfs, ctx, sq_depth=64):
        if sq_depth <= 0:
            raise InvalidArgument("sq_depth must be positive")
        self.vfs = vfs
        self.env = vfs.env
        self.ctx = ctx
        self.sq_depth = sq_depth
        self._cq = []
        self._pending = []
        self._seq = 0
        #: True once the current batch has paid the T_syscall entry:
        #: :meth:`VFS.execute` charges the batch's first executed op the
        #: full mode switch plus its VFS bookkeeping, every later op only
        #: the bookkeeping -- the amortization the ring exists for.
        self._entry_done = False

    # -- submission -------------------------------------------------------

    def submit(self, sqes):
        """Validate and execute a batch; returns the number submitted.

        One ``T_syscall`` entry is charged for the whole batch.  Inline
        results land in the CQ immediately; ``IOSQE_ASYNC`` ops may stay
        pending until :meth:`wait`/:meth:`peek` reaps them.
        """
        sqes = list(sqes)
        if not sqes:
            return 0
        if len(sqes) > self.sq_depth:
            raise InvalidArgument(
                "batch of %d exceeds SQ depth %d" % (len(sqes), self.sq_depth)
            )
        ctx = self.ctx
        stats = self.env.stats
        stats.bump("ring_batches")
        stats.bump("ring_sqes", len(sqes))
        self._entry_done = False
        if len(sqes) > 1:
            with ctx.span("ring_submit", layer=LAYER_RING,
                          meta={"sqes": len(sqes)}) as sp:
                self._execute(ctx, sqes, sp)
        else:
            self._execute(ctx, sqes, None)
        return len(sqes)

    def execute_one(self, sqe):
        """Run one SQE now and return its value, raising its failure:
        the sync syscalls' entrance to :meth:`VFS.execute`.

        Accounted as the batch of one it replaces (one ``T_syscall``
        entry, one sequence number, the ``ring_*`` counters) but nothing
        is queued: no CQE is built, and completions another user of this
        ring has in flight stay theirs to reap.  A deferred completion
        is waited for inline.
        """
        ctx = self.ctx
        counters = self.env.stats.counters
        counters["ring_batches"] += 1
        counters["ring_sqes"] += 1
        counters["ring_cqes"] += 1
        seq = self._seq
        self._seq += 1
        self._entry_done = False
        plan = self.env.faults
        if sqe.flags & IOSQE_IO_DRAIN:
            self._drain(ctx)
        try:
            if plan is not None:
                plan.check("ring", seq)
            value = self.vfs.execute(ctx, sqe, self)
            if isinstance(value, VCompletion):
                value = value.wait(ctx, layer=RING_CQ_WAIT)
        except FSError:
            if plan is not None:
                plan.check("ring:after", seq)
            raise
        if plan is not None:
            plan.check("ring:after", seq)
        return value

    def _execute(self, ctx, sqes, sp):
        batch_start = ctx.now
        plan = self.env.faults
        cancelling = False
        linked_prev = False
        for sqe in sqes:
            seq = self._seq
            self._seq += 1
            if not linked_prev:
                cancelling = False
            if cancelling:
                self.env.stats.bump("ring_link_cancels")
                self._complete(sqe, seq, _LinkCancelled(
                    "linked op %r cancelled by earlier failure" % sqe.syscall
                ), ctx.now)
                linked_prev = bool(sqe.flags & IOSQE_IO_LINK)
                continue
            if sqe.flags & IOSQE_IO_DRAIN:
                self._drain(ctx)
            exec_start = ctx.now
            error = None
            result = None
            try:
                # The ``ring`` fault site (:mod:`repro.faults.plan`).  A
                # failure is final: the device has already retried a
                # transient persist, so an EIO completes the SQE and
                # resubmission is the application's call, as with
                # io_uring.
                if plan is not None:
                    plan.check("ring", seq)
                result = self.vfs.execute(ctx, sqe, self)
            except FSError as exc:
                error = exc
            if sp is not None:
                sp.add_phase(RING_SQ_WAIT, batch_start, exec_start)
                sp.add_phase(RING_IN_FLIGHT, exec_start, ctx.now)
            if error is not None:
                self._complete(sqe, seq, error, ctx.now)
                if sqe.flags & IOSQE_IO_LINK:
                    cancelling = True
            elif isinstance(result, VCompletion):
                self._pending.append(_Pending(seq, sqe, result))
            else:
                # res is the bytes moved: a write's count (fsync's 0) as
                # is, a read's buffers by total length.
                res = result if isinstance(result, int) \
                    else sum(map(len, result))
                self._push(CQE(sqe.user_data, res, result, None, seq,
                               ctx.now))
            # The ``ring:after`` fault site: armed to crash, power fails
            # between this SQE and whatever is linked behind it.
            if plan is not None:
                plan.check("ring:after", seq)
            linked_prev = bool(sqe.flags & IOSQE_IO_LINK)

    def _complete(self, sqe, seq, error, at_ns):
        res = -int(getattr(error, "errno", _errno.EIO) or _errno.EIO)
        self._push(CQE(sqe.user_data, res, None, error, seq, at_ns))

    def _push(self, cqe):
        self._cq.append(cqe)
        self.env.stats.counters["ring_cqes"] += 1

    # -- completion -------------------------------------------------------

    @property
    def in_flight(self):
        """Completions submitted but not yet reaped."""
        return len(self._cq) + len(self._pending)

    def _reap_resolved(self, ctx):
        """Materialise pending completions that resolved at or before the
        reaper's current virtual time, earliest first."""
        ready = [p for p in self._pending
                 if p.completion.resolved and p.completion.done_at <= ctx.now]
        if not ready:
            return
        ready.sort(key=lambda p: (p.completion.done_at, p.seq))
        for entry in ready:
            self._pending.remove(entry)
            self._materialise(ctx, entry)

    def _materialise(self, ctx, entry):
        comp = entry.completion
        try:
            value = comp.wait(ctx, layer=RING_CQ_WAIT)
        except FSError as exc:
            self._complete(entry.sqe, entry.seq, exc, comp.done_at)
            return
        res = value if isinstance(value, int) else 0
        self._push(CQE(entry.sqe.user_data, res, value, None, entry.seq,
                       comp.done_at))

    def _next_pending(self):
        """The pending entry to block on next: earliest resolved, else the
        oldest unresolved (which :meth:`VCompletion.wait` will force)."""
        resolved = [p for p in self._pending if p.completion.resolved]
        if resolved:
            return min(resolved, key=lambda p: (p.completion.done_at, p.seq))
        return min(self._pending, key=lambda p: p.seq)

    def _drain(self, ctx):
        """IOSQE_IO_DRAIN barrier: everything submitted earlier completes
        (in virtual time) before the draining op starts."""
        self.env.stats.bump("ring_drains")
        while self._pending:
            entry = self._next_pending()
            self._pending.remove(entry)
            self._materialise(ctx, entry)

    def peek(self):
        """Reap every completion ready *now* without blocking."""
        self._reap_resolved(self.ctx)
        cqes, self._cq = self._cq, []
        return cqes

    def wait(self, min_complete=1):
        """Reap at least ``min_complete`` completions, blocking the
        reaper's virtual clock on pending ones as needed."""
        ctx = self.ctx
        self._reap_resolved(ctx)
        if len(self._cq) < min_complete:
            if min_complete > len(self._cq) + len(self._pending):
                raise InvalidArgument(
                    "wait(%d) with only %d completion(s) in flight"
                    % (min_complete, self.in_flight)
                )
            with ctx.span("ring_wait", layer=LAYER_RING):
                while len(self._cq) < min_complete:
                    entry = self._next_pending()
                    self._pending.remove(entry)
                    self._materialise(ctx, entry)
                self._reap_resolved(ctx)
        cqes, self._cq = self._cq, []
        return cqes

    def submit_and_wait(self, sqes, min_complete=None):
        """Submit a batch and reap; returns the reaped CQEs."""
        submitted = self.submit(sqes)
        if min_complete is None:
            min_complete = submitted
        return self.wait(min_complete)

    def __repr__(self):
        return "IORing(%s, cq=%d, pending=%d)" % (
            self.ctx.name, len(self._cq), len(self._pending),
        )
