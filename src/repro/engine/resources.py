"""Timed shared resources with gap-aware FCFS reservation semantics.

The paper models NVMM's limited write bandwidth by capping the number of
concurrent NVMM-writing threads at ``N_w = B_nvmm * L_nvmm`` (Section 5.1:
a writer queues when all slots are busy and is woken when one completes).
:class:`FCFSServers` is the virtual-time version of that model: a fixed
pool of servers, each holding a timeline of busy intervals, handing out
the earliest feasible slice at or after the requested time.

Timelines are *gap-aware*: a background writeback thread that has booked
slot time far in the virtual future does not block a tiny foreground
cacheline flush happening "now" -- the foreground request slots into the
earlier gap, exactly as real hardware would interleave the streams.
"""

from bisect import bisect_right

from repro.engine.errors import SimulationError

#: Busy intervals kept per server; older ones are coalesced away.  All
#: simulated clocks advance roughly together, so a deep history is never
#: probed again.
_MAX_INTERVALS = 128

#: Later than any start (292 years of virtual ns), so the first probed
#: server always beats it; an int, as every start is.
_NEVER = 1 << 63


class Reservation:
    """A granted slice of a timed resource."""

    __slots__ = ("start_ns", "end_ns", "wait_ns")

    def __init__(self, start_ns, end_ns, wait_ns):
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.wait_ns = wait_ns

    @property
    def duration_ns(self):
        return self.end_ns - self.start_ns

    def __repr__(self):
        return "Reservation(start=%d, end=%d, wait=%d)" % (
            self.start_ns,
            self.end_ns,
            self.wait_ns,
        )


class _ServerTimeline:
    """Sorted, non-overlapping busy intervals of one server."""

    __slots__ = ("starts", "ends")

    def __init__(self):
        self.starts = []
        self.ends = []

    def book(self, start_ns, end_ns, i):
        """Insert the busy interval ``[start_ns, end_ns)`` at index ``i``,
        where the gap search stopped: every interval before ``i`` ends
        by ``start_ns`` and ``starts[i]`` (if any) is at or after
        ``end_ns``."""
        # Coalesce with neighbours when exactly adjacent.
        if i > 0 and self.ends[i - 1] == start_ns:
            self.ends[i - 1] = end_ns
            if i < len(self.starts) and self.starts[i] == end_ns:
                self.ends[i - 1] = self.ends[i]
                del self.starts[i], self.ends[i]
        elif i < len(self.starts) and self.starts[i] == end_ns:
            self.starts[i] = start_ns
        else:
            self.starts.insert(i, start_ns)
            self.ends.insert(i, end_ns)
        if len(self.starts) > _MAX_INTERVALS:
            # Merge the two oldest intervals (the gap between them is in
            # the distant past of every clock).
            self.ends[0] = self.ends[1]
            del self.starts[1], self.ends[1]

    def next_free(self):
        return self.ends[-1] if self.ends else 0


class FCFSServers:
    """``capacity`` identical servers granting gap-aware reservations."""

    def __init__(self, capacity, name="resource"):
        if capacity < 1:
            raise SimulationError("resource %r needs capacity >= 1" % name)
        self.name = name
        self.capacity = int(capacity)
        self._servers = [_ServerTimeline() for _ in range(self.capacity)]
        self.total_busy_ns = 0
        self.total_wait_ns = 0
        self.total_grants = 0

    def grant(self, request_ns, duration_ns):
        """Book ``duration_ns`` of exclusive server time at/after
        ``request_ns`` on the server that can start earliest, and return
        the start (integer ns in, integer ns out: the hot-path form of
        :meth:`reserve`).

        Servers are probed in order and the first one with the earliest
        start wins -- which server holds an interval shapes later gaps,
        so the order is part of the model.  A server idle at its tail
        (nothing booked past the request) can start *at* the request,
        which nothing beats: the scan stops there, and the booking is an
        append-or-coalesce with no bisect.  That covers a foreground
        persist on any server, not just server 0 -- the others matter
        whenever background writeback has booked server 0 ahead.

        Otherwise a server's gap walk stops as soon as its candidate
        start reaches the best start found so far (it can only lose),
        and the winner is booked at the index where its walk stopped.
        """
        if duration_ns < 0:
            raise SimulationError("negative reservation on %r" % self.name)
        end_ns = request_ns + duration_ns
        best_server = None
        best_start = _NEVER
        best_index = 0
        for server in self._servers:
            ends = server.ends
            if not ends or ends[-1] <= request_ns:
                if duration_ns > 0:
                    if ends and ends[-1] == request_ns:
                        ends[-1] = end_ns
                    else:
                        server.starts.append(request_ns)
                        ends.append(end_ns)
                        if len(ends) > _MAX_INTERVALS:
                            # As in book(); a steady-state timeline is
                            # always full, so this runs on most grants.
                            ends[0] = ends[1]
                            del server.starts[1], ends[1]
                self.total_busy_ns += duration_ns
                self.total_grants += 1
                return request_ns
            # The earliest t >= request_ns with [t, t + duration) free,
            # from the interval that may still run at the request on.
            starts = server.starts
            n = len(starts)
            i = bisect_right(ends, request_ns)
            start = request_ns
            while i < n:
                if start + duration_ns <= starts[i]:
                    break
                if ends[i] > start:
                    start = ends[i]
                    if start >= best_start:
                        break  # cannot beat the best server any more
                i += 1
            if start < best_start:
                best_start = start
                best_server = server
                best_index = i
                if start == request_ns:
                    break  # a gap right at the request: cannot do better
        if duration_ns > 0:
            best_server.book(best_start, best_start + duration_ns, best_index)
        self.total_busy_ns += duration_ns
        self.total_wait_ns += best_start - request_ns
        self.total_grants += 1
        return best_start

    def reserve(self, request_ns, duration_ns):
        """:meth:`grant` as a :class:`Reservation` (start, end, wait)."""
        request_ns = int(request_ns)
        duration_ns = int(duration_ns)
        start = self.grant(request_ns, duration_ns)
        return Reservation(start, start + duration_ns, start - request_ns)

    def earliest_free_ns(self):
        """Earliest end-of-timeline across servers (legacy metric)."""
        return min(server.next_free() for server in self._servers)

    def utilisation(self, horizon_ns):
        """Fraction of aggregate server time busy up to ``horizon_ns``."""
        if horizon_ns <= 0:
            return 0.0
        return min(1.0, self.total_busy_ns / (horizon_ns * self.capacity))

    def reset(self):
        """Forget all reservations (used between benchmark repetitions)."""
        self._servers = [_ServerTimeline() for _ in range(self.capacity)]
        self.total_busy_ns = 0
        self.total_wait_ns = 0
        self.total_grants = 0

    def __repr__(self):
        return "FCFSServers(name=%r, capacity=%d)" % (self.name, self.capacity)
