"""The fused persist call against the three calls it replaced.

``write_cached`` + ``clflush`` (+ ``fence``) of one range is kept here
as the reference.  Two worlds -- own env, own device, own contexts --
take the same random steps, one through the reference sequence and one
through :meth:`NVMMDevice.persist_cached`, and must agree after every
step on every clock, every stat, every writer-slot interval, every byte
(newest and durable), every observer event and every trace span.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.context import ExecContext, FreeContext
from repro.engine.env import SimEnv
from repro.engine.stats import CAT_OTHERS
from repro.faults import MediaFaultModel
from repro.fs.errors import MediaError
from repro.nvmm.config import CACHELINE_SIZE, NVMMConfig
from repro.nvmm.device import NVMMDevice

CFG = NVMMConfig()
SIZE = 1024
NLINES = SIZE // CACHELINE_SIZE


class Tap:
    """Observer logging each event with what a load and a durable load
    see *inside* the callback (pins event order against the mutation)."""

    def __init__(self, region):
        self.region = region
        self.events = []

    def _seen(self, addr, length):
        return (self.region.read(addr, length),
                self.region.persistent_read(addr, length))

    def on_cached_write(self, addr, data):
        self.events.append(("store", addr, data) + self._seen(addr, len(data)))

    def on_persist(self, addr, data):
        self.events.append(("persist", addr, data)
                           + self._seen(addr, len(data)))

    def on_flush_boundary(self, region):
        self.events.append(("boundary", region.dirty_line_indices()))

    def on_fence(self, region):
        self.events.append(("fence", region.dirty_line_indices()))


class World:
    def __init__(self, fused, observed=False, traced=False, domain=None,
                 faulty=False):
        self.fused = fused
        self.env = SimEnv()
        if traced:
            self.env.enable_tracing()
        self.dev = NVMMDevice(self.env, CFG, SIZE, domain=domain)
        self.tap = None
        if observed:
            self.tap = self.dev.mem.observer = Tap(self.dev.mem)
        self.model = None
        if faulty:
            self.model = self.dev.attach_faults(MediaFaultModel(seed=1))
        # Two foreground threads at different clocks and a background
        # one that books writer slots ahead of both.
        self.ctxs = [ExecContext(self.env, "a"),
                     ExecContext(self.env, "b", start_ns=7_777),
                     ExecContext(self.env, "bg")]

    def persist(self, ctx, addr, data, fence):
        dev = self.dev
        if self.fused:
            return dev.persist_cached(ctx, addr, data, CAT_OTHERS,
                                      fence=fence)
        dev.write_cached(ctx, addr, data, CAT_OTHERS)
        flushed = dev.clflush(ctx, addr, len(data), CAT_OTHERS)
        if fence:
            dev.fence(ctx)
        return flushed

    def step(self, index, step):
        """Run one step; returns its value or the MediaError's lines."""
        kind = step[0]
        dev = self.dev
        if kind == "inject":
            self.model.inject_transient(step[1], step[2])
            return None
        if kind == "poison":
            self.model.poison_line(step[1])
            return None
        if kind == "think":
            self.ctxs[step[1]].now += step[2]
            return None
        if kind == "async":
            # A writeback thread ahead of every foreground clock.
            _, ahead, addr, data = step
            bg = self.ctxs[2]
            bg.now = max(ctx.now for ctx in self.ctxs) + ahead
            try:
                return dev.write_persistent_async(bg, addr, data)
            except MediaError as err:
                return ("EIO", err.lines)
        ctx = self.ctxs[step[1]]
        try:
            with ctx.span("step%d" % index):
                if kind == "persist":
                    return self.persist(ctx, step[2], step[3], step[4])
                if kind == "cached":
                    return dev.write_cached(ctx, step[2], step[3])
                assert kind == "nt"
                return dev.write_persistent(ctx, step[2], step[3])
        except MediaError as err:
            return ("EIO", err.lines)

    def state(self):
        dev, mem = self.dev, self.dev.mem
        pool = dev.write_slots
        ring = self.env.trace
        return {
            "now": [ctx.now for ctx in self.ctxs],
            "stats": self.env.stats.summary(),
            "timelines": [(s.starts, s.ends) for s in pool._servers],
            "pool": (pool.total_busy_ns, pool.total_wait_ns,
                     pool.total_grants),
            "newest": mem.read(0, SIZE),
            "durable": mem.persistent_snapshot(),
            "dirty": mem.dirty_line_indices(),
            "events": None if self.tap is None else self.tap.events,
            "spans": None if ring is None else [
                (sp.name, sp.thread, sp.start_ns, sp.end_ns, sp.phases,
                 sp.meta) for sp in ring.spans()],
            "faults": None if self.model is None else (
                self.model.bad_lines, dict(self.model._transient),
                self.model.persist_errors, self.model.retries),
        }


def _ranged(max_size, min_size=0):
    """``(addr, data)`` inside the region."""
    return st.integers(0, SIZE - 1).flatmap(
        lambda addr: st.tuples(
            st.just(addr),
            st.binary(min_size=min_size,
                      max_size=min(max_size, SIZE - addr))))


WHO = st.integers(0, 1)
PLAIN_STEPS = [
    st.tuples(st.just("persist"), WHO, _ranged(256), st.booleans()).map(
        lambda t: ("persist", t[1], t[2][0], t[2][1], t[3])),
    # A store left volatile: a later persist finds the line dirty.
    st.tuples(st.just("cached"), WHO, _ranged(100, 1)).map(
        lambda t: ("cached", t[1], t[2][0], t[2][1])),
    st.tuples(st.just("nt"), WHO, _ranged(256)).map(
        lambda t: ("nt", t[1], t[2][0], t[2][1])),
    # Up to 16 lines = 3.2 us of one slot, booked up to 20 us ahead.
    st.tuples(st.just("async"), st.integers(0, 20_000), _ranged(SIZE)).map(
        lambda t: ("async", t[1], t[2][0], t[2][1])),
    st.tuples(st.just("think"), WHO, st.integers(0, 3_000)),
]
FAULT_STEPS = [
    # Up to 5 failures against a retry budget of 3: both recoveries
    # and exhaustion (which marks the line bad).
    st.tuples(st.just("inject"), st.integers(0, NLINES - 1),
              st.integers(1, 5)),
    st.tuples(st.just("poison"), st.integers(0, NLINES - 1)),
]


@settings(max_examples=150, deadline=None)
@given(
    observed=st.booleans(), traced=st.booleans(), faulty=st.booleans(),
    domain=st.sampled_from([None, "dev1"]), data=st.data(),
)
def test_fused_persist_matches_store_flush_fence(observed, traced, faulty,
                                                 domain, data):
    steps = data.draw(st.lists(
        st.one_of(PLAIN_STEPS + (FAULT_STEPS if faulty else [])),
        min_size=1, max_size=40))
    ref = World(False, observed, traced, domain, faulty)
    new = World(True, observed, traced, domain, faulty)
    for index, step in enumerate(steps):
        assert new.step(index, step) == ref.step(index, step), step
        assert new.state() == ref.state(), step


# -- the named cases, one by one ---------------------------------------------


def _pair(**kwargs):
    return World(False, **kwargs), World(True, **kwargs)


def test_permanent_fault_leaves_the_store_volatile_and_visible():
    for world in _pair(faulty=True, observed=True):
        world.model.poison_line(3)
        ctx = world.ctxs[0]
        with pytest.raises(MediaError) as err:
            world.persist(ctx, 3 * 64 + 8, b"entry", True)
        assert list(err.value.lines) == [3]
        mem = world.dev.mem
        assert mem.read(3 * 64 + 8, 5) == b"entry"
        assert mem.dirty_line_indices() == [3]
        assert mem.persistent_snapshot() == bytes(SIZE)
        # The store was charged; no slot, no bytes, no fence.
        assert ctx.now == CFG.dram_store_cost_ns(5)
        assert world.dev.write_slots.total_grants == 0
        assert world.env.stats.bytes_written_nvmm == 0
        assert [ev[0] for ev in world.tap.events] == ["store"]


def test_transient_fault_charges_the_same_retries_and_backoff():
    ref, new = _pair(faulty=True, traced=True)
    for world in (ref, new):
        world.model.inject_transient(0, failures=2)
        ctx = world.ctxs[0]
        with ctx.span("op"):
            assert world.persist(ctx, 0, b"x" * 64, True) == 1
        backoff = CFG.media_retry_backoff_ns
        assert ctx.now == (CFG.dram_store_cost_ns(64) + backoff + 2 * backoff
                           + CFG.nvmm_persist_cost_ns(1) + CFG.fence_ns)
        assert world.env.stats.count("media_persist_retries") == 2
        assert world.model.retries == 2
        assert world.dev.mem.persistent_read(0, 64) == b"x" * 64
    assert new.state() == ref.state()
    # The nvmm phase spans guard + flush, not the store or the fence.
    (span,) = new.env.trace.spans()
    store = CFG.dram_store_cost_ns(64)
    assert span.phases == [("nvmm", store, new.ctxs[0].now - CFG.fence_ns)]


def test_free_context_takes_no_slot_and_keeps_no_ledger():
    for world in _pair(domain="dev1"):
        ctx = FreeContext(world.env, "mkfs")
        assert world.persist(ctx, 100, b"y" * 100, True) == 3
        assert ctx.now == 0
        assert world.dev.write_slots.total_grants == 0
        assert world.dev.write_slots._servers[0].starts == []
        assert world.env.stats.bytes_written_nvmm == 0
        assert world.env.stats.counters == {}
        assert world.dev.mem.persistent_read(100, 100) == b"y" * 100
        assert world.dev.mem.dirty_line_indices() == []


def test_persist_while_writeback_holds_slot_0_takes_the_next_idle_slot():
    """Writeback occupies server 0 across the foreground clock and has
    booked it again far ahead: the journal persist starts at its own
    clock on server 1 (idle at its tail), and the next one slips into
    server 0's gap -- same servers, same intervals either way."""
    ref, new = _pair()
    store = CFG.dram_store_cost_ns(64)
    for world in (ref, new):
        bg, ctx = world.ctxs[2], world.ctxs[0]
        world.dev.write_persistent_async(bg, 512, b"w" * 512)
        bg.now = 50_000
        world.dev.write_persistent_async(bg, 512, b"w" * 512)
        assert world.persist(ctx, 0, b"j" * 64, False) == 1
        assert ctx.now == store + 200
        ctx.now = 10_000
        assert world.persist(ctx, 0, b"k" * 64, False) == 1
        servers = world.dev.write_slots._servers
        assert servers[0].starts == [0, 10_000 + store, 50_000]
        assert servers[0].ends == [1_600, 10_200 + store, 51_600]
        assert (servers[1].starts, servers[1].ends) == ([store], [store + 200])
        assert world.dev.write_slots.total_wait_ns == 0
    assert new.state() == ref.state()


def test_zero_length_persist_is_a_boundary_and_nothing_else():
    ref, new = _pair(observed=True)
    for world in (ref, new):
        assert world.persist(world.ctxs[0], 64, b"", True) == 0
        assert world.ctxs[0].now == CFG.fence_ns
        assert [ev[0] for ev in world.tap.events] == ["boundary", "fence"]
    assert new.state() == ref.state()
