"""Virtual-time synchronization primitives.

The scheduler (:mod:`repro.engine.scheduler`) interleaves simulated
threads min-clock-first and runs each logical operation atomically, so
locks here do not need to suspend a Python generator: *blocking* means
advancing the acquiring thread's virtual clock to the moment the lock
becomes free -- the exact analogue of the kernel parking a task and
waking it at release time.  Because the scheduler always resumes the
least-advanced thread, acquisition order is FCFS in virtual time: a
thread that reaches the lock at t=10 is granted it before one arriving
at t=20, and the later thread's clock is pushed past the earlier one's
release point.

Contended waits are charged to the waiting thread's clock, counted in
``SimStats`` (``lock_acquisitions`` / ``lock_contentions`` /
``lock_wait_ns``), and -- when the trace spine is enabled -- recorded as
a ``lock``-layer phase on the thread's in-flight request span, so lock
pressure shows up in ``layer_time_ns`` next to fs/writeback/nvmm time.

:class:`InodeLockTable` adds lockdep-style ordering enforcement: inode
locks must be taken lowest-inode-first; an acquisition that inverts the
order of a lock already held by the same context raises
:class:`~repro.engine.errors.DeadlockError` at the acquisition site
(the ABBA pair would hang a real kernel; here it is diagnosed eagerly).
"""

from repro.engine.errors import DeadlockError, ThreadDiagnostic
from repro.engine.stats import CAT_OTHERS
from repro.obs.trace import LAYER_LOCK


class _HeldCM:
    """Release-on-exit guard returned by :meth:`VMutex.held`.

    A small class rather than a ``contextlib`` generator per acquisition
    (these guards are entered once per simulated operation).
    """

    __slots__ = ("lock", "ctx", "_acquire", "_release")

    def __init__(self, lock, ctx, acquire, release):
        self.lock = lock
        self.ctx = ctx
        self._acquire = acquire
        self._release = release

    def __enter__(self):
        self._acquire(self.ctx)
        return self.lock

    def __exit__(self, exc_type, exc, tb):
        self._release(self.ctx)
        return False


class _VLockBase:
    """Shared wait/accounting machinery of the virtual locks."""

    def __init__(self, env, name):
        self.env = env
        self.name = name
        #: Contended acquisitions and total virtual wait, per lock.
        self.contentions = 0
        self.wait_ns_total = 0

    def _wait_until(self, ctx, free_at, what):
        """Advance ``ctx`` to ``free_at`` if the lock is busy until then.

        The wait is charged as *Others* time (lock spinning is neither a
        data copy nor media access), tagged as a ``lock`` phase on the
        enclosing trace span, and labelled for deadlock diagnostics.
        """
        stats = self.env.stats
        stats.counters["lock_acquisitions"] += 1
        wait = free_at - ctx.now
        if wait <= 0:
            return 0
        self.contentions += 1
        self.wait_ns_total += wait
        stats.counters["lock_contentions"] += 1
        stats.counters["lock_wait_ns"] += wait
        with ctx.waiting("%s of %r" % (what, self.name)):
            with ctx.layer(LAYER_LOCK):
                ctx.sync_to(free_at, CAT_OTHERS)
        return wait


class VCompletion:
    """A one-shot completion on the virtual timeline (``struct completion``).

    A producer (file system, journal, writeback worker) resolves it with
    a virtual timestamp and a value -- possibly a timestamp in the
    *waiter's* future, e.g. the device-side end of an asynchronously
    issued flush.  A consumer (the CQ reaper) calls :meth:`wait`, which
    advances its clock to the resolve point exactly like a contended
    lock: charged as *Others*, labelled for deadlock diagnostics, and
    recorded as a phase on the enclosing trace span.

    ``force_fn`` covers the io_uring-style progress guarantee: when a
    reaper waits on a completion nobody has resolved yet (e.g. an async
    fsync whose jbd2 commit is still pending), the force hook performs
    the work inline on the waiter's context -- the analogue of a blocked
    ``io_uring_enter`` driving the work itself rather than sleeping
    forever.
    """

    __slots__ = ("env", "name", "done_at", "value", "force_fn")

    def __init__(self, env, name="vcompletion", force_fn=None):
        self.env = env
        self.name = name
        #: Virtual time the completion resolved, or None while pending.
        self.done_at = None
        self.value = None
        self.force_fn = force_fn

    @property
    def resolved(self):
        return self.done_at is not None

    def resolve(self, at_ns, value=None):
        """Complete successfully at virtual time ``at_ns``."""
        if self.done_at is None or at_ns > self.done_at:
            self.done_at = at_ns
        self.value = value
        return self

    def wait(self, ctx, layer=LAYER_LOCK):
        """Block ``ctx`` (in virtual time) until resolved; returns the
        value."""
        if self.done_at is None and self.force_fn is not None:
            fn, self.force_fn = self.force_fn, None
            fn(ctx)
        if self.done_at is None:
            raise RuntimeError(
                "wait on unresolved completion %r with no force hook"
                % self.name
            )
        if self.done_at > ctx.now:
            self.env.stats.bump("completion_waits")
            self.env.stats.bump("completion_wait_ns", self.done_at - ctx.now)
            with ctx.waiting("completion of %r" % self.name):
                with ctx.layer(layer):
                    ctx.sync_to(self.done_at, CAT_OTHERS)
        return self.value


class VMutex(_VLockBase):
    """A mutual-exclusion lock on the virtual timeline.

    :class:`~repro.io.mmio.MmioMapping` takes its mutex inline: a free
    one (``_free_at`` not past the acquirer's clock) without
    :meth:`_wait_until`, by bumping ``lock_acquisitions`` and setting
    ``owner``; it releases it as :meth:`release` does.
    """

    def __init__(self, env, name="vmutex"):
        super().__init__(env, name)
        #: Virtual time at which the last holder released.
        self._free_at = 0
        #: Name of the current holder (diagnostics only).
        self.owner = None

    def acquire(self, ctx):
        self._wait_until(ctx, self._free_at, "acquire")
        self.owner = ctx.name
        return ctx.now

    def release(self, ctx):
        if ctx.now > self._free_at:
            self._free_at = ctx.now
        self.owner = None

    def held(self, ctx):
        return _HeldCM(self, ctx, self.acquire, self.release)

    def __repr__(self):
        return "VMutex(%r, free_at=%d, owner=%r)" % (
            self.name, self._free_at, self.owner,
        )


class VRWLock(_VLockBase):
    """A reader/writer lock on the virtual timeline.

    Readers overlap freely; a writer excludes both readers and writers.
    ``_write_free_at`` is when the last writer finished, ``_read_free_at``
    when the last reader finished -- a new reader only waits out writers,
    a new writer waits out both.
    """

    def __init__(self, env, name="vrwlock"):
        super().__init__(env, name)
        self._write_free_at = 0
        self._read_free_at = 0
        #: Name of the current writer (diagnostics only).
        self.writer = None

    def acquire_read(self, ctx):
        self._wait_until(ctx, self._write_free_at, "read acquire")
        return ctx.now

    def release_read(self, ctx):
        if ctx.now > self._read_free_at:
            self._read_free_at = ctx.now

    def acquire_write(self, ctx):
        free_at = max(self._write_free_at, self._read_free_at)
        self._wait_until(ctx, free_at, "write acquire")
        self.writer = ctx.name
        return ctx.now

    def release_write(self, ctx):
        if ctx.now > self._write_free_at:
            self._write_free_at = ctx.now
        self.writer = None

    def __repr__(self):
        return "VRWLock(%r, wfree=%d, rfree=%d, writer=%r)" % (
            self.name, self._write_free_at, self._read_free_at, self.writer,
        )


class InodeLockTable:
    """Per-inode :class:`VRWLock` instances with lock-order enforcement.

    The canonical order is *lowest inode number first*.  Every
    acquisition is checked against the locks the context already holds
    (``ctx.held_locks``); taking an inode lock while holding one with a
    higher number is the ABBA pattern and raises
    :class:`DeadlockError` immediately, with the holder's full lock set
    in the diagnostics.  Multi-inode operations (``rename``, ``unlink``)
    therefore go through :meth:`write_locked_many`, which sorts.
    """

    def __init__(self, env, name="inode"):
        self.env = env
        self.name = name
        self._locks = {}

    def lock(self, ino):
        """The (lazily created) lock of one inode."""
        lock = self._locks.get(ino)
        if lock is None:
            lock = VRWLock(self.env, "%s:%d" % (self.name, ino))
            self._locks[ino] = lock
        return lock

    def drop(self, ino):
        """Forget a deleted inode's lock (its number may be reused)."""
        self._locks.pop(ino, None)

    # -- lockdep ---------------------------------------------------------

    def _check_order(self, ctx, ino, mode):
        held = ctx.held_locks
        if not held:
            return
        for held_ino, held_mode in held:
            if held_ino == ino:
                raise DeadlockError(
                    "recursive inode lock: %r re-acquiring inode %d (%s) "
                    "while already holding it (%s)"
                    % (ctx.name, ino, mode, held_mode),
                    diagnostics=[ThreadDiagnostic.of(ctx)],
                )
            if held_ino > ino:
                raise DeadlockError(
                    "inode lock-order violation (ABBA risk): %r acquiring "
                    "inode %d (%s) while holding inode %d (%s); canonical "
                    "order is lowest-inode-first"
                    % (ctx.name, ino, mode, held_ino, held_mode),
                    diagnostics=[ThreadDiagnostic.of(ctx)],
                    notes=["held inode locks: %s"
                           % ", ".join("%d(%s)" % h for h in held)],
                )

    def _push(self, ctx, ino, mode):
        self._check_order(ctx, ino, mode)
        ctx.held_locks.append((ino, mode))

    def _pop(self, ctx, ino, mode):
        try:
            ctx.held_locks.remove((ino, mode))
        except ValueError:
            pass

    # -- one inode lock: the take/drop pair -------------------------------

    def acquire(self, ctx, ino, mode):
        """Take inode ``ino``'s lock for ``ctx``, shared (``"read"``) or
        exclusive (``"write"``); returns the lock to hand back to
        :meth:`release`.

        An uncontended lock is taken inline -- what ``lock``, ``_push``
        and ``acquire_read``/``acquire_write`` do, without their frames:
        the lockdep check runs only when the context already holds a
        lock, and ``_wait_until`` only when the lock is busy past the
        context's clock.
        """
        lock = self._locks.get(ino)
        if lock is None:
            lock = self.lock(ino)
        held = ctx.held_locks
        if held:
            self._check_order(ctx, ino, mode)
        held.append((ino, mode))
        free_at = lock._write_free_at
        if mode != "read" and lock._read_free_at > free_at:
            free_at = lock._read_free_at
        if free_at > ctx.now:
            lock._wait_until(ctx, free_at, mode + " acquire")
        else:
            lock.env.stats.counters["lock_acquisitions"] += 1
        if mode != "read":
            lock.writer = ctx.name
        return lock

    def release(self, ctx, lock, ino, mode):
        """Drop a lock :meth:`acquire` returned, at ``ctx``'s clock."""
        now = ctx.now
        if mode == "read":
            if now > lock._read_free_at:
                lock._read_free_at = now
        else:
            if now > lock._write_free_at:
                lock._write_free_at = now
            lock.writer = None
        held = ctx.held_locks
        if held and held[-1] == (ino, mode):
            held.pop()
        else:
            self._pop(ctx, ino, mode)

    # -- acquisition context managers ------------------------------------

    def read_locked(self, ctx, ino):
        return _InodeGuard(self, ctx, ino, "read")

    def write_locked(self, ctx, ino):
        return _InodeGuard(self, ctx, ino, "write")

    def write_locked_many(self, ctx, inos):
        """Write-lock a set of inodes in the canonical (ascending) order."""
        return _InodeManyGuard(self, ctx, inos)


class _InodeGuard:
    """One inode lock held for a ``with`` block: the namespace syscalls'
    wrapper over :meth:`InodeLockTable.acquire` / ``release``."""

    __slots__ = ("table", "ctx", "ino", "mode", "lock")

    def __init__(self, table, ctx, ino, mode):
        self.table = table
        self.ctx = ctx
        self.ino = ino
        self.mode = mode

    def __enter__(self):
        self.lock = self.table.acquire(self.ctx, self.ino, self.mode)
        return self.lock

    def __exit__(self, exc_type, exc, tb):
        self.table.release(self.ctx, self.lock, self.ino, self.mode)
        return False


class _InodeManyGuard:
    """Write locks over an inode set, canonical (ascending) order."""

    __slots__ = ("table", "ctx", "inos", "held")

    def __init__(self, table, ctx, inos):
        self.table = table
        self.ctx = ctx
        self.inos = inos

    def __enter__(self):
        table, ctx = self.table, self.ctx
        self.held = []
        try:
            for ino in sorted(set(self.inos)):
                lock = table.lock(ino)
                table._push(ctx, ino, "write")
                lock.acquire_write(ctx)
                self.held.append((ino, lock))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return None

    def __exit__(self, exc_type, exc, tb):
        # Unwind in reverse acquisition order, like ExitStack.
        table, ctx = self.table, self.ctx
        while self.held:
            ino, lock = self.held.pop()
            lock.release_write(ctx)
            table._pop(ctx, ino, "write")
        return False
