"""Min-virtual-clock-first scheduler for simulated threads.

The scheduler repeatedly picks the unfinished thread with the smallest
virtual clock, advances all background timelines up to that clock, and
lets the thread execute one operation.  Operations are atomic with
respect to other *foreground* threads (sub-operation interleavings are
approximated by the FCFS timed resources), which is sufficient for the
contention effects the paper reports: NVMM write-bandwidth queueing and
DRAM-buffer pressure.
"""

import heapq
import itertools

from repro.engine.errors import DeadlockError, ThreadDiagnostic
from repro.engine.thread import SimThread


class Scheduler:
    """Runs a set of :class:`SimThread` objects to completion or a deadline."""

    def __init__(self, env):
        self.env = env
        self.threads = []
        self._counter = itertools.count()

    def spawn(self, name, body, record_latencies=False):
        thread = SimThread(self.env, name, body,
                           record_latencies=record_latencies)
        self.threads.append(thread)
        return thread

    def op_latencies_ns(self):
        """All recorded per-op latency samples across threads (those
        spawned with ``record_latencies=True``), in thread order."""
        out = []
        for thread in self.threads:
            if thread.op_latencies_ns:
                out.extend(thread.op_latencies_ns)
        return out

    def run(self, until_ns=None):
        """Interleave threads min-clock-first.

        Stops when every thread finishes, or -- if ``until_ns`` is given --
        when the minimum clock passes the deadline (the filebench-style
        "run for N simulated seconds" mode).  Returns the largest virtual
        time reached by any thread (the elapsed makespan).
        """
        # Clocks are read as ``thread.ctx.now``, not through the
        # ``SimThread.now`` property: no frame per step.
        heap = [
            (t.ctx.now, next(self._counter), t)
            for t in self.threads if not t.finished
        ]
        heapq.heapify(heap)
        heappop = heapq.heappop
        heappush = heapq.heappush
        counter = self._counter
        advance_to = self.env.background.advance_to
        batch = []
        while heap:
            now, _, thread = heappop(heap)
            if thread.finished:
                continue
            if until_ns is not None and now >= until_ns:
                # This is the minimum clock: every other thread is at or
                # past the deadline too, so the run is over.
                break
            # Batch wakeups: every thread parked at this same instant
            # steps this round anyway (clocks only move forward, so a
            # step can never re-park *below* ``now``), and heap order
            # within one timestamp is insertion-counter order.  Draining
            # them in one pass preserves that exact order while skipping
            # the sift-down each intermediate pop would redo.
            batch.append(thread)
            while heap and heap[0][0] == now:
                other = heappop(heap)[2]
                if not other.finished:
                    batch.append(other)
            for thread in batch:
                # Per-step, not per-batch: an earlier step in this batch
                # may have made background work due *at* ``now`` (buffer
                # pressure), and that work precedes the next step.  The
                # registry's cached min-due makes the idle case O(1).
                advance_to(thread.ctx.now)
                try:
                    stepped = thread.step()
                except DeadlockError as exc:
                    # Enrich with the whole fleet's state: the blocked
                    # thread alone rarely explains a deadlock.
                    raise exc.attach(
                        self.diagnostics(exclude=exc.diagnostics))
                if stepped:
                    heappush(heap, (thread.ctx.now, next(counter), thread))
            batch.clear()
        return self.elapsed_ns()

    def diagnostics(self, exclude=()):
        """Per-thread :class:`ThreadDiagnostic` list for deadlock reports."""
        seen = {d.name for d in exclude}
        out = []
        for thread in self.threads:
            if thread.finished or thread.name in seen:
                continue
            out.append(ThreadDiagnostic.of(thread.ctx))
        return out

    def elapsed_ns(self):
        """Makespan across foreground threads (0 if none ran)."""
        if not self.threads:
            return 0
        return max(t.now for t in self.threads)

    def total_ops(self):
        return sum(t.ops for t in self.threads)
