"""Exceptions raised by the simulation engine."""


class SimulationError(Exception):
    """Base class for engine-level failures."""


class ThreadDiagnostic:
    """One blocked thread's state at deadlock time.

    Captures the thread (or background timeline) name, its virtual clock,
    and the resource or buffer condition it is waiting on, so a deadlock
    report reads like a kernel hung-task dump instead of a bare message.
    """

    __slots__ = ("name", "clock_ns", "waiting_on")

    def __init__(self, name, clock_ns, waiting_on):
        self.name = name
        self.clock_ns = clock_ns
        self.waiting_on = waiting_on

    @classmethod
    def of(cls, ctx):
        """Diagnostic for an :class:`~repro.engine.context.ExecContext`."""
        return cls(ctx.name, ctx.now, ctx.waiting_on or "nothing")

    def __str__(self):
        return "thread %r at t=%dns waiting on %s" % (
            self.name,
            self.clock_ns,
            self.waiting_on,
        )

    def __repr__(self):
        return "ThreadDiagnostic(%r, %d, %r)" % (
            self.name,
            self.clock_ns,
            self.waiting_on,
        )


class DeadlockError(SimulationError):
    """Raised when every runnable simulated thread is blocked.

    This indicates a modelling bug (for example a foreground thread
    waiting on buffer space while no writeback timeline can make
    progress), never a legitimate simulation outcome.  ``diagnostics``
    carries a :class:`ThreadDiagnostic` per involved thread; ``notes``
    carries environment facts (e.g. NVMM lines marked bad by fault
    injection) that explain *why* no progress is possible.
    """

    def __init__(self, message, diagnostics=(), notes=()):
        self.reason = message
        self.diagnostics = list(diagnostics)
        self.notes = list(notes)
        super().__init__(self._render())

    def _render(self):
        parts = [self.reason]
        for diag in self.diagnostics:
            parts.append("  - %s" % diag)
        for note in self.notes:
            parts.append("  note: %s" % note)
        return "\n".join(parts)

    def attach(self, diagnostics=(), notes=()):
        """Add context discovered further up the stack (the scheduler
        appends every foreground thread's state here); returns self."""
        self.diagnostics.extend(diagnostics)
        self.notes.extend(notes)
        self.args = (self._render(),)
        return self
