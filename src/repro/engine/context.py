"""Execution contexts: where simulated time is charged.

Every syscall issued by a simulated thread runs under an
:class:`ExecContext`.  The context holds the thread's virtual time;
devices charge data-copy time to it (tagged with a breakdown category so
Figure 1 can be regenerated), the VFS records per-syscall durations on it
(for Figure 12), and timed resources synchronise it forward when the
thread has to queue for an NVMM writer slot.

The context managers here (``span``/``syscall``/``layer``/``waiting``)
sit on the hot path of every simulated operation, so they are small
``__slots__`` classes rather than ``contextlib`` generators: entering a
generator-based manager costs a generator frame plus two ``next`` calls,
which at millions of spans per run is real wall-clock time.
"""

from repro.engine.stats import CAT_OTHERS
from repro.obs.trace import LAYER_VFS


class _WaitingCM:
    """Sets ``ctx.waiting_on`` for the duration (deadlock diagnostics)."""

    __slots__ = ("ctx", "what", "previous")

    def __init__(self, ctx, what):
        self.ctx = ctx
        self.what = what

    def __enter__(self):
        ctx = self.ctx
        self.previous = ctx.waiting_on
        ctx.waiting_on = self.what
        return ctx

    def __exit__(self, exc_type, exc, tb):
        self.ctx.waiting_on = self.previous
        return False


class _SpanCM:
    """Closes one pipeline span: feeds stats and (if traced) the ring."""

    __slots__ = ("ctx", "name", "layer", "sp", "start_ns", "previous")

    def __init__(self, ctx, name, layer, sp, start_ns):
        self.ctx = ctx
        self.name = name
        self.layer = layer
        self.sp = sp
        self.start_ns = start_ns

    def __enter__(self):
        ctx = self.ctx
        self.previous = ctx.trace_span
        ctx.trace_span = self.sp
        return self.sp

    def __exit__(self, exc_type, exc, tb):
        ctx = self.ctx
        ctx.trace_span = self.previous
        end_ns = ctx.now
        if self.layer == LAYER_VFS:
            stats = ctx.env.stats
            stats.syscall_time_ns[self.name] += end_ns - self.start_ns
            stats.syscall_counts[self.name] += 1
        sp = self.sp
        if sp is not None:
            sp.close(end_ns)
            add_layer_time = ctx.env.stats.add_layer_time
            for span_layer, ns in sp.layer_totals().items():
                add_layer_time(span_layer, ns)
            ctx.env.trace.record(sp)
        return False


class _NoPhase:
    """What :meth:`ExecContext.layer` returns outside a traced span: one
    shared instance that does nothing."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return False


_NO_PHASE = _NoPhase()


class _PhaseCM:
    """Attaches a sub-layer phase to the enclosing traced span."""

    __slots__ = ("ctx", "name", "sp", "enter_ns")

    def __init__(self, ctx, name, sp):
        self.ctx = ctx
        self.name = name
        self.sp = sp

    def __enter__(self):
        self.enter_ns = self.ctx.now

    def __exit__(self, exc_type, exc, tb):
        self.sp.add_phase(self.name, self.enter_ns, self.ctx.now)
        return False


class ExecContext:
    """The simulated-time identity of one simulated thread."""

    __slots__ = ("env", "name", "now", "waiting_on", "trace_span",
                 "held_locks")

    #: True on a :class:`FreeContext`: devices then skip the shared
    #: writer-slot timeline and the bytes-written ledger as well.
    free = False

    def __init__(self, env, name="ctx", start_ns=0):
        self.env = env
        self.name = name
        #: This thread's virtual time, integer nanoseconds.  ``charge``
        #: and ``sync_to`` only move it forward; background timelines
        #: assign it (catch-up to a due time, rewind to 0 on quiesce).
        self.now = int(start_ns)
        #: Human-readable description of what this thread is currently
        #: blocked on (set around waits; read by deadlock diagnostics).
        self.waiting_on = None
        #: The open trace span while this thread is inside one (tracing
        #: enabled), else None.  Lower layers attach phases to it.
        self.trace_span = None
        #: ``(ino, mode)`` pairs of inode locks this context currently
        #: holds, in acquisition order (see :mod:`repro.engine.locks`);
        #: lockdep checks new acquisitions against this list.
        self.held_locks = []

    # -- time charging --------------------------------------------------

    def charge(self, ns, category=CAT_OTHERS):
        """Spend ``ns`` of this thread's virtual time under ``category``.

        Every device access lands here, several times per op, so the
        breakdown-bucket add is inlined; non-positive amounts are
        dropped, which is what keeps ``now`` monotonic.
        """
        if ns <= 0:
            return self.now
        ns = int(ns)
        self.now += ns
        self.env.stats.breakdown._ns[category] += ns
        return self.now

    def sync_to(self, target_ns, category=CAT_OTHERS):
        """Wait (advance the clock) until ``target_ns`` if it is ahead.

        Used when a resource grant or a background-writeback completion
        lands in this thread's future.  The waited time is charged to
        ``category`` so queueing shows up in the breakdown figures.
        """
        wait = target_ns - self.now
        if wait <= 0:
            return self.now
        wait = int(wait)
        self.now += wait
        self.env.stats.breakdown._ns[category] += wait
        return self.now

    def waiting(self, what):
        """Label this thread as blocked on ``what`` for the duration.

        Purely diagnostic: if a deadlock is detected while the label is
        set, the resulting :class:`~repro.engine.errors.DeadlockError`
        reports it per thread.
        """
        return _WaitingCM(self, what)

    # -- the trace spine's single instrumentation point -------------------

    def span(self, name, layer=LAYER_VFS, req=None, meta=None):
        """Open one pipeline span for the duration of the block.

        This is THE instrumentation point of the request pipeline: at
        close it feeds the per-syscall breakdown (for ``vfs``-layer
        spans), the per-layer :meth:`SimStats.add_layer_time` totals,
        and -- when tracing is enabled -- records the span into the
        bounded trace ring, all from the same measurement, so exported
        per-layer trace durations sum to the stats totals by
        construction.

        Disabled fast path: with tracing off, or the span's layer
        filtered out of the ring (``enable_tracing(layers=...)``), no
        Span is allocated, no request id is drawn here, and the ring is
        never touched -- only the always-on per-syscall accounting runs.
        """
        ring = self.env.trace
        sp = None
        if ring is not None and ring.wants(layer):
            req_id = req.req_id if req is not None else self.env.next_req_id()
            sp = ring.begin(name, self.name, self.now, req_id,
                            layer=layer, meta=meta)
            if req is not None:
                req.span = sp
        return _SpanCM(self, name, layer, sp, self.now)

    def syscall(self, name, req=None):
        """Record the duration of one syscall for per-syscall breakdowns
        (and, when tracing, as a ``vfs``-layer span carrying ``req``).
        Untraced, the span's disabled path without the :meth:`span`
        frame."""
        if self.env.trace is None:
            return _SpanCM(self, name, LAYER_VFS, None, self.now)
        return self.span(name, layer=LAYER_VFS, req=req)

    def layer(self, name):
        """Record a sub-layer visit (``fs``/``writeback``/``nvmm``) as a
        phase on the enclosing span.  Outside a traced span it returns
        a shared no-op."""
        sp = self.trace_span
        if sp is None:
            return _NO_PHASE
        return _PhaseCM(self, name, sp)

    def __repr__(self):
        return "ExecContext(name=%r, now=%d)" % (self.name, self.now)


class FreeContext(ExecContext):
    """A context whose time/resource charges are discarded.

    Used for work that happens before the measured run begins: mkfs,
    mount-time recovery, and pre-allocating filesets (the paper, like
    filebench, pre-allocates 5 GB filesets and clears caches before
    measuring).
    """

    __slots__ = ()

    free = True

    def charge(self, ns, category=None):
        return self.now

    def sync_to(self, target_ns, category=None):
        return self.now
