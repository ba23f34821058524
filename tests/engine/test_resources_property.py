"""Property tests for the gap-aware FCFS servers."""

import bisect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.resources import (
    _MAX_INTERVALS, FCFSServers, _ServerTimeline,
)


@settings(max_examples=80, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=4),
    requests=st.lists(
        st.tuples(st.integers(min_value=0, max_value=10_000),
                  st.integers(min_value=0, max_value=500)),
        min_size=1,
        max_size=60,
    ),
)
def test_grants_never_overlap_beyond_capacity(capacity, requests):
    """At any instant, at most ``capacity`` reservations are active."""
    servers = FCFSServers(capacity)
    grants = []
    for request_ns, duration_ns in sorted(requests):
        grant = servers.reserve(request_ns, duration_ns)
        assert grant.start_ns >= request_ns
        assert grant.duration_ns == duration_ns
        if duration_ns:
            grants.append((grant.start_ns, grant.end_ns))
    events = []
    for start, end in grants:
        events.append((start, 1))
        events.append((end, -1))
    active = 0
    for _, delta in sorted(events, key=lambda e: (e[0], e[1])):
        active += delta
        assert active <= capacity


@settings(max_examples=80, deadline=None)
@given(
    future=st.integers(min_value=10_000, max_value=100_000),
    small=st.integers(min_value=1, max_value=64),
)
def test_small_request_slips_into_gap_before_future_booking(future, small):
    """A booking far in the virtual future must not delay a small
    request happening now (the starvation bug the interval timelines
    fixed)."""
    servers = FCFSServers(1)
    servers.reserve(future, 1_000)
    grant = servers.reserve(0, small)
    assert grant.start_ns == 0
    assert grant.end_ns <= future or small > future


@settings(max_examples=60, deadline=None)
@given(durations=st.lists(st.integers(min_value=1, max_value=200),
                          min_size=2, max_size=40))
def test_sequential_single_client_is_contiguous(durations):
    """One client issuing back-to-back work gets a dense schedule."""
    servers = FCFSServers(3)
    now = 0
    for duration in durations:
        grant = servers.reserve(now, duration)
        assert grant.start_ns == now  # capacity 3, one client: no wait
        now = grant.end_ns
    assert now == sum(durations)


def test_interval_history_is_bounded():
    servers = FCFSServers(1)
    for i in range(10_000):
        servers.reserve(i * 10, 5)
    timeline = servers._servers[0]
    assert len(timeline.starts) <= 128


# -- the grant body against the algorithms it replaced ------------------------


def _earliest_start(server, request_ns, duration_ns):
    """The gap search ``grant`` used to call per server: earliest
    t >= request_ns with [t, t+duration) free."""
    starts, ends = server.starts, server.ends
    n = len(starts)
    i = bisect.bisect_right(ends, request_ns)
    candidate = request_ns
    while i < n:
        if candidate + duration_ns <= starts[i]:
            return candidate
        candidate = max(candidate, ends[i])
        i += 1
    return candidate


def _book(server, start_ns, end_ns):
    """The previous ``_ServerTimeline.book``: bisect for the insertion
    point, then coalesce with exactly adjacent neighbours."""
    starts, ends = server.starts, server.ends
    i = bisect.bisect_left(starts, start_ns)
    if i > 0 and ends[i - 1] == start_ns:
        ends[i - 1] = end_ns
        if i < len(starts) and starts[i] == end_ns:
            ends[i - 1] = ends[i]
            del starts[i], ends[i]
    elif i < len(starts) and starts[i] == end_ns:
        starts[i] = start_ns
    else:
        starts.insert(i, start_ns)
        ends.insert(i, end_ns)
    if len(starts) > _MAX_INTERVALS:
        ends[0] = ends[1]
        del starts[1], ends[1]


class _ReserveReference:
    """The previous ``reserve``: only server 0 has the idle-at-tail
    shortcut; otherwise every server is probed to the end with
    ``_earliest_start`` and the first earliest one is booked through the
    bisecting ``_book``."""

    def __init__(self, capacity):
        self.servers = [_ServerTimeline() for _ in range(capacity)]
        self.total_busy_ns = self.total_wait_ns = self.total_grants = 0

    def reserve(self, request_ns, duration_ns):
        server0 = self.servers[0]
        ends0 = server0.ends
        if not ends0 or ends0[-1] <= request_ns:
            end = request_ns + duration_ns
            if duration_ns > 0:
                if ends0 and ends0[-1] == request_ns:
                    ends0[-1] = end
                else:
                    server0.starts.append(request_ns)
                    ends0.append(end)
                    if len(ends0) > _MAX_INTERVALS:
                        server0.ends[0] = server0.ends[1]
                        del server0.starts[1], server0.ends[1]
            self.total_busy_ns += duration_ns
            self.total_grants += 1
            return request_ns, end, 0
        best_server = best_start = None
        for server in self.servers:
            start = _earliest_start(server, request_ns, duration_ns)
            if best_start is None or start < best_start:
                best_start = start
                best_server = server
                if start == request_ns:
                    break
        end = best_start + duration_ns
        if duration_ns > 0:
            _book(best_server, best_start, end)
        wait = best_start - request_ns
        self.total_busy_ns += duration_ns
        self.total_wait_ns += wait
        self.total_grants += 1
        return best_start, end, wait


#: Foreground clocks creep forward by small steps; writeback books far
#: ahead of them, which is what leaves gaps behind on a server.
_REQUEST = st.tuples(
    st.integers(min_value=0, max_value=400),      # clock advance
    st.sampled_from([0, 0, 0, 5_000, 60_000]),    # booked this far ahead
    st.integers(min_value=0, max_value=900),      # duration
)


def _assert_same_pool(servers, ref):
    assert [(s.starts, s.ends) for s in servers._servers] \
        == [(s.starts, s.ends) for s in ref.servers]
    assert (servers.total_busy_ns, servers.total_wait_ns,
            servers.total_grants) \
        == (ref.total_busy_ns, ref.total_wait_ns, ref.total_grants)


@settings(max_examples=120, deadline=None)
@given(capacity=st.integers(min_value=1, max_value=4),
       requests=st.lists(_REQUEST, min_size=1, max_size=120),
       use_grant=st.booleans())
def test_grant_books_what_the_previous_reserve_booked(capacity, requests,
                                                      use_grant):
    servers = FCFSServers(capacity)
    ref = _ReserveReference(capacity)
    clock = 0
    for advance, ahead, duration in requests:
        clock += advance
        start, end, wait = ref.reserve(clock + ahead, duration)
        if use_grant:
            assert servers.grant(clock + ahead, duration) == start
        else:
            grant = servers.reserve(clock + ahead, duration)
            assert (grant.start_ns, grant.end_ns, grant.wait_ns) \
                == (start, end, wait)
        _assert_same_pool(servers, ref)


@pytest.mark.parametrize("capacity", [1, 2, 3, 4])
def test_grant_matches_reference_past_the_interval_bound(capacity):
    """A stream sparse enough that intervals rarely coalesce: every
    server's history reaches ``_MAX_INTERVALS`` and forgets its oldest
    gaps, on the tail path and the gap path alike."""
    servers = FCFSServers(capacity)
    ref = _ReserveReference(capacity)
    rng = random.Random(capacity)
    clock = 0
    at_bound = [False] * capacity
    for _ in range(6 * capacity * _MAX_INTERVALS):
        clock += rng.choice((5, 30, 90)) * (3 if capacity == 1 else 1)
        ahead = rng.choice((0, 0, 0, 0, 0, 2_000, 90_000))
        duration = rng.choice((0, 1, 20, 60, 200))
        assert servers.grant(clock + ahead, duration) \
            == ref.reserve(clock + ahead, duration)[0]
        _assert_same_pool(servers, ref)
        for k, server in enumerate(servers._servers):
            assert len(server.starts) <= _MAX_INTERVALS
            at_bound[k] |= len(server.starts) == _MAX_INTERVALS
    assert all(at_bound)
    assert servers.total_wait_ns > 0


@settings(max_examples=60, deadline=None)
@given(capacity=st.integers(min_value=1, max_value=4),
       seed=st.integers(min_value=0, max_value=2 ** 32),
       grants=st.integers(min_value=800, max_value=1_500))
def test_inline_gap_search_grants_what_earliest_start_granted(
        capacity, seed, grants):
    """Random streams: a creeping foreground clock, bookings far ahead of
    it that leave gaps behind, and requests queued behind those, long
    enough that server 0 reaches ``_MAX_INTERVALS`` and merges.  Every
    start and the pool's totals match the reference."""
    servers = FCFSServers(capacity)
    ref = _ReserveReference(capacity)
    rng = random.Random(seed)
    clock = 0
    merged = False
    for _ in range(grants):
        clock += rng.choice((0, 5, 90, 400))
        request = clock + rng.choice((0, 0, 0, 0, 700, 20_000, 400_000))
        duration = rng.choice((0, 1, 17, 64, 300))
        assert servers.grant(request, duration) \
            == ref.reserve(request, duration)[0]
        merged |= len(servers._servers[0].starts) == _MAX_INTERVALS
    assert merged
    _assert_same_pool(servers, ref)


@pytest.mark.parametrize("capacity,seed", [(2, 0), (3, 1), (3, 2), (4, 3)])
def test_walk_heavy_streams_grant_what_the_reference_granted(capacity, seed):
    """Streams that make every server walk: each one holds far-future
    bookings, a third of the requests are zero-length, and each server's
    history passes ``_MAX_INTERVALS``.  Early-stopped walks and the
    booking at the walk's index must leave every grant, every interval
    and every total exactly where the bisecting reference left them."""
    servers = FCFSServers(capacity)
    ref = _ReserveReference(capacity)
    rng = random.Random(seed)
    # Far-future islands on every server: server k holds bookings every
    # 300 ns from 50 us on, offset by k, so later requests walk them.
    for k in range(capacity):
        for j in range(40):
            request = 50_000 + k * 7 + j * 300
            assert servers.grant(request, 100) == ref.reserve(request, 100)[0]
    clock = 0
    walked_past_bound = [False] * capacity
    for _ in range(5 * capacity * _MAX_INTERVALS):
        clock += rng.choice((0, 3, 40, 150))
        request = clock + rng.choice((0, 0, 200, 45_000, 60_000, 90_000))
        duration = rng.choice((0, 0, 0, 1, 30, 120, 400))
        assert servers.grant(request, duration) \
            == ref.reserve(request, duration)[0]
        _assert_same_pool(servers, ref)
        for k, server in enumerate(servers._servers):
            walked_past_bound[k] |= len(server.starts) == _MAX_INTERVALS
    assert all(walked_past_bound)
    assert servers.total_wait_ns > 0
