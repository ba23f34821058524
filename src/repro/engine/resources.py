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

#: Busy intervals kept per server; the two oldest are merged when a
#: booking passes it, which closes the gap between them.  That gap is
#: not always in every clock's past: a thread far behind the others may
#: still have fitted into it, so the cap is part of the model --
#: ``hinfs-bench scale`` gives other latencies with it raised to 2**20.
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
        so the order is part of the model.  Nothing beats a start *at*
        the request, so the first pass takes the first server that can
        start there: idle at its tail (nothing booked past the request;
        the booking is an append-or-coalesce with no bisect), or with a
        gap right at the request before the first interval still
        running at it.  That covers a foreground persist on any server,
        not just server 0 -- the others matter whenever background
        writeback has booked server 0 ahead.

        Only when no server can start at the request does each walk its
        gaps, stopping as soon as its candidate start reaches the best
        found so far (it can only lose).  The winner is booked, in this
        frame, at the index where its search stopped: every interval
        before it ends by the start, and the one at it (if any) starts
        at or after the end; an exactly adjacent neighbour is coalesced
        with.
        """
        if duration_ns < 0:
            raise SimulationError("negative reservation on %r" % self.name)
        for server in self._servers:
            ends = server.ends
            if not ends or ends[-1] <= request_ns:
                if duration_ns > 0:
                    if ends and ends[-1] == request_ns:
                        ends[-1] = request_ns + duration_ns
                    else:
                        server.starts.append(request_ns)
                        ends.append(request_ns + duration_ns)
                        if len(ends) > _MAX_INTERVALS:
                            # A steady-state timeline is always full, so
                            # this runs on most grants: merge the two
                            # oldest intervals.
                            ends[0] = ends[1]
                            del server.starts[1], ends[1]
                self.total_busy_ns += duration_ns
                self.total_grants += 1
                return request_ns
            # Busy past the request: the first interval that may still
            # run at it, and a gap before that one right at the request.
            best_index = bisect_right(ends, request_ns)
            if request_ns + duration_ns <= server.starts[best_index]:
                best_server, best_start = server, request_ns
                break
        else:
            # No server can start at the request.  The earliest
            # t >= request_ns with [t, t + duration) free, per server:
            # each ends[i] the walk reaches lies past ``start``, as
            # bisect_right put it past every interval ending by the
            # request and the booked ends rise strictly.
            best_start = _NEVER
            for server in self._servers:
                starts, ends = server.starts, server.ends
                n = len(starts)
                i = bisect_right(ends, request_ns)
                start = request_ns
                while i < n and start + duration_ns > starts[i]:
                    start = ends[i]
                    if start >= best_start:
                        break  # cannot beat the best server any more
                    i += 1
                if start < best_start:
                    best_server, best_start, best_index = server, start, i
        if duration_ns > 0:
            starts = best_server.starts
            ends = best_server.ends
            end_ns = best_start + duration_ns
            i = best_index
            if i and ends[i - 1] == best_start:
                if i < len(starts) and starts[i] == end_ns:
                    ends[i - 1] = ends[i]
                    del starts[i], ends[i]
                else:
                    ends[i - 1] = end_ns
            elif i < len(starts) and starts[i] == end_ns:
                starts[i] = best_start
            else:
                starts.insert(i, best_start)
                ends.insert(i, end_ns)
                if len(ends) > _MAX_INTERVALS:
                    ends[0] = ends[1]
                    del starts[1], ends[1]
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
        return min(server.ends[-1] if server.ends else 0
                   for server in self._servers)

    def reset(self):
        """Forget all reservations (used between benchmark repetitions)."""
        self._servers = [_ServerTimeline() for _ in range(self.capacity)]
        self.total_busy_ns = 0
        self.total_wait_ns = 0
        self.total_grants = 0

    def __repr__(self):
        return "FCFSServers(name=%r, capacity=%d)" % (self.name, self.capacity)
