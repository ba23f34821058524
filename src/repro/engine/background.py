"""Lazily-advanced background timelines.

HiNFS runs writeback threads that wake up periodically (every 5 s), on
buffer pressure (fewer than ``Low_f`` free blocks), and to expire blocks
dirty for more than 30 s.  In the reproduction these threads are
*timelines*: objects with their own virtual clock whose due work is
materialised whenever the foreground scheduler's minimum clock passes a
due time, or synchronously when a foreground thread must wait for them
(buffer exhaustion).  That is exactly the paper's semantics -- background
work is off the critical path unless the buffer runs dry.
"""

from operator import itemgetter

from repro.engine.context import ExecContext
from repro.engine.errors import DeadlockError, SimulationError, ThreadDiagnostic

#: Returned by :meth:`BackgroundTask.next_due_ns` when the task has no
#: scheduled work.
NEVER = float("inf")

#: Sort key of a round's ``(due_ns, task)`` pairs: ties keep
#: registration order (the sort is stable).
_due_ns = itemgetter(0)


class BackgroundTask:
    """Base class for a background timeline with its own virtual clock."""

    def __init__(self, env, name):
        self.env = env
        self.name = name
        self.ctx = ExecContext(env, name)

    def next_due_ns(self):
        """Earliest virtual time at which this task has work to do."""
        raise NotImplementedError

    def run_due(self, horizon_ns):
        """Perform all work due at or before ``horizon_ns``.

        Implementations must guarantee forward progress: after returning,
        ``next_due_ns()`` must be strictly greater than it was, or
        ``NEVER``.
        """
        raise NotImplementedError

    def quiesce(self):
        """Rewind this timeline to an idle t=0 state.

        Called between a free pre-allocation phase and the measured run,
        after the file system has been unmounted (so the task holds no
        pending work).  Subclasses with their own wakeup state must
        override and also reset that.
        """
        self.ctx.now = 0


class BackgroundRegistry:
    """All background timelines attached to a simulation environment.

    ``advance_to`` is called once per scheduler step, so its idle path is
    hot: the registry caches the minimum due time across its tasks and
    returns without touching any task while the horizon stays below it.
    Due times move *forward* only inside ``run_due`` (where the cache is
    refreshed); the one place they move *backward* from outside is
    :meth:`~repro.core.writeback.WritebackTask.signal_pressure`, which
    calls :meth:`note_earlier` to pull the cached minimum down in place.
    """

    # Safety valve against a task failing to make forward progress.
    _MAX_ROUNDS = 1_000_000

    def __init__(self):
        self._tasks = []
        self._min_due_ns = NEVER
        self._min_due_stale = False

    def register(self, task):
        self._tasks.append(task)
        self._min_due_stale = True
        return task

    def unregister(self, task):
        """Drop a task whose owner is gone (a mapping's applier at
        munmap or unlink)."""
        self._tasks.remove(task)
        self._min_due_stale = True

    def invalidate(self):
        """A task's due time changed outside ``run_due`` (it may now be
        *earlier* than the cached minimum); recompute on next use."""
        self._min_due_stale = True

    def note_earlier(self, due_ns):
        """A task's due time moved to ``due_ns`` at the earliest.

        Cheaper than :meth:`invalidate` for the pressure-signal path: the
        cached minimum only ever needs to be a *lower bound* for the
        ``advance_to`` fast path to stay correct, so pulling it down in
        place keeps the cache warm instead of forcing a full recompute
        across every task.  With the cache already stale, the pending
        recompute will see the new due time anyway.
        """
        if self._min_due_stale:
            return
        if due_ns < self._min_due_ns:
            self._min_due_ns = due_ns

    def quiesce(self):
        """Rewind every registered timeline to idle t=0."""
        for task in self._tasks:
            task.quiesce()
        self._min_due_stale = True

    def advance_to(self, horizon_ns):
        """Run every task's work due at or before ``horizon_ns``.

        Each round scans the tasks once: the ones due run in due order
        (ties in registration order, by the stable sort), then the
        registry rescans; a scan that finds none due is also the new
        cached minimum.
        """
        if self._min_due_stale:
            self._min_due_ns = min(
                (t.next_due_ns() for t in self._tasks), default=NEVER
            )
            self._min_due_stale = False
        if horizon_ns < self._min_due_ns:
            return
        rounds = 0
        while True:
            due = []
            min_due = NEVER
            for task in self._tasks:
                due_ns = task.next_due_ns()
                if due_ns <= horizon_ns:
                    due.append((due_ns, task))
                elif due_ns < min_due:
                    min_due = due_ns
            if not due:
                self._min_due_ns = min_due
                return
            if len(due) > 1:
                # Nothing has run since the scan: its due times stand.
                due.sort(key=_due_ns)
            for index, (before, task) in enumerate(due):
                if index:
                    # An earlier task's run_due may have pulled this one
                    # in: only the first may keep its scanned due time.
                    before = task.next_due_ns()
                task.run_due(horizon_ns)
                after = task.next_due_ns()
                if after <= before:
                    raise DeadlockError(
                        "background task %r made no progress (due %r -> %r)"
                        % (task.name, before, after),
                        diagnostics=self._diagnostics(),
                    )
            rounds += 1
            if rounds > self._MAX_ROUNDS:
                raise DeadlockError(
                    "background registry livelock",
                    diagnostics=self._diagnostics(),
                )

    def _diagnostics(self):
        return [
            ThreadDiagnostic(
                task.name,
                task.ctx.now,
                getattr(task.ctx, "waiting_on", None)
                or "next wakeup due at %r ns" % (task.next_due_ns(),),
            )
            for task in self._tasks
        ]
