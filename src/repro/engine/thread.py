"""Simulated foreground threads.

A :class:`SimThread` wraps a Python generator (the workload body).  The
generator performs exactly one logical operation -- typically one syscall
or one workload transaction -- per ``yield``, charging its cost to the
thread's :class:`~repro.engine.context.ExecContext`.  The scheduler
interleaves threads by always resuming the one with the smallest virtual
clock, which is the conservative-time analogue of the kernel running the
least-advanced runnable thread.
"""

from repro.engine.context import ExecContext


class SimThread:
    """One simulated workload thread."""

    def __init__(self, env, name, body, record_latencies=False):
        """``body`` is a callable taking the thread's context and returning
        a generator that yields once per completed operation.  With
        ``record_latencies`` every step's virtual duration is appended to
        :attr:`op_latencies_ns` (exact per-op latency samples for
        percentile reporting); off by default, so the hot path pays one
        ``is None`` check and nothing else.
        """
        self.env = env
        self.name = name
        self.ctx = ExecContext(env, name)
        self._gen = body(self.ctx)
        self.finished = False
        self.ops = 0
        #: Per-operation virtual latencies (ns, one per completed step)
        #: when sampling is enabled, else None.
        self.op_latencies_ns = [] if record_latencies else None

    @property
    def now(self):
        return self.ctx.now

    def step(self):
        """Run one operation; returns False when the thread is done."""
        if self.finished:
            return False
        samples = self.op_latencies_ns
        if samples is not None:
            start_ns = self.ctx.now
            try:
                next(self._gen)
            except StopIteration:
                self.finished = True
                return False
            samples.append(self.ctx.now - start_ns)
            self.ops += 1
            return True
        try:
            next(self._gen)
            self.ops += 1
            return True
        except StopIteration:
            self.finished = True
            return False

    def __repr__(self):
        return "SimThread(name=%r, now=%d, ops=%d, finished=%s)" % (
            self.name,
            self.ctx.now,
            self.ops,
            self.finished,
        )
