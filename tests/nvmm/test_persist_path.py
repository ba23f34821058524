"""The fused persist call against the three calls it replaced, and the
one-line kernel against the fused call.

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
                 faulty=False, line=False):
        self.fused = fused
        #: One-line persists go through persist_line, not persist_cached.
        self.line = line
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
                     ExecContext(self.env, "bg"),
                     FreeContext(self.env, "mkfs")]

    def persist(self, ctx, addr, data, fence):
        dev = self.dev
        if self.fused:
            flushed = dev.persist_cached(ctx, addr, data, CAT_OTHERS)
        else:
            dev.write_cached(ctx, addr, data, CAT_OTHERS)
            flushed = dev.clflush(ctx, addr, len(data), CAT_OTHERS)
        if fence:
            dev.fence(ctx)
        return flushed

    def persist_line(self, ctx, addr, data, fences):
        """One journal entry (``fences=1``) or commit (2) or in-place
        inode core (0): the line kernel, or persist_cached followed by
        ``fences`` fence() calls."""
        dev = self.dev
        if self.line:
            return dev.persist_line(ctx, addr, data, fences)
        dev.persist_cached(ctx, addr, data, CAT_OTHERS)
        for _ in range(fences):
            dev.fence(ctx)
        return None

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
                if kind == "line":
                    return self.persist_line(ctx, step[2], step[3], step[4])
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
    line = World(True, faulty=True, observed=True, line=True)
    for world in _pair(faulty=True, observed=True) + (line,):
        world.model.poison_line(3)
        ctx = world.ctxs[0]
        with pytest.raises(MediaError) as err:
            if world.line:
                world.persist_line(ctx, 3 * 64 + 8, b"entry", 2)
            else:
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


# -- the line kernel against persist_cached + fence -------------------------


def _in_one_line():
    """``(addr, data)``: 1 to 64 bytes inside one cacheline."""
    return st.tuples(st.integers(0, NLINES - 1), st.integers(0, 63)).flatmap(
        lambda t: st.tuples(
            st.just(t[0] * CACHELINE_SIZE + t[1]),
            st.binary(min_size=1, max_size=CACHELINE_SIZE - t[1])))


#: Thread 3 is the FreeContext (mkfs, recovery).
LINE_STEP = st.tuples(st.sampled_from([0, 1, 3]), _in_one_line(),
                      st.integers(0, 2)).map(
    lambda t: ("line", t[0], t[1][0], t[1][1], t[2]))


@settings(max_examples=150, deadline=None)
@given(
    observed=st.booleans(), traced=st.booleans(), faulty=st.booleans(),
    domain=st.sampled_from([None, "dev1"]), data=st.data(),
)
def test_line_kernel_matches_persist_cached_with_fence(observed, traced,
                                                       faulty, domain, data):
    """Journal entries, commits and inode cores between volatile stores,
    non-temporal stores, writeback booked ahead and media faults: the
    same bytes, volatile flags, clocks, buckets, ledger, slot intervals,
    grant counters, spans, observer events and fault state."""
    steps = data.draw(st.lists(
        st.one_of([LINE_STEP, LINE_STEP] + PLAIN_STEPS
                  + (FAULT_STEPS if faulty else [])),
        min_size=1, max_size=40))
    ref = World(True, observed, traced, domain, faulty)
    new = World(True, observed, traced, domain, faulty, line=True)
    for index, step in enumerate(steps):
        assert new.step(index, step) == ref.step(index, step), step
        assert new.state() == ref.state(), step


#: A journal transaction's persists: an undo entry landing on a line a
#: cached store left volatile, the inode core in place, the commit.
_TRANSACTION = [
    ("cached", 0, 2 * 64 + 8, b"dirty"),
    ("line", 0, 2 * 64, b"u" * 64, 1),
    ("line", 0, 5 * 64 + 16, b"c" * 40, 0),
    ("line", 0, 3 * 64, b"C" * 64, 2),
]


@pytest.mark.parametrize("setting", [
    "exec", "free", "traced", "faulty", "observed", "domain"])
def test_one_transaction_through_the_line_kernel(setting):
    # The faulty world is traced too: its nvmm phase spans the retries.
    kwargs = {"traced": setting in ("traced", "faulty"),
              "faulty": setting == "faulty",
              "observed": setting in ("observed", "faulty"),
              "domain": "dev1" if setting == "domain" else None}
    who = 3 if setting == "free" else 0
    ref, new = World(True, **kwargs), World(True, line=True, **kwargs)
    for world in (ref, new):
        if setting == "faulty":
            world.model.inject_transient(3, failures=2)
        for index, step in enumerate(_TRANSACTION):
            world.step(index, (step[0], who) + step[2:])
    assert new.state() == ref.state()
    ctx, stats = new.ctxs[who], new.env.stats
    mem = new.dev.mem
    assert mem.persistent_read(5 * 64 + 16, 40) == b"c" * 40
    assert mem.dirty_line_indices() == []
    if setting == "free":
        assert ctx.now == 0 and new.dev.write_slots.total_grants == 0
        assert stats.bytes_written_nvmm == 0
        return
    store = CFG.dram_store_cost_ns
    line_ns = CFG.nvmm_persist_cost_ns(1)
    backoff = 3 * CFG.media_retry_backoff_ns if setting == "faulty" else 0
    # Serial on an idle pool: no slot wait, three fences in all.
    assert ctx.now == (store(5) + 2 * store(64) + store(40) + 3 * line_ns
                       + 3 * CFG.fence_ns + backoff)
    assert stats.bytes_written_nvmm == 3 * CACHELINE_SIZE
    assert new.dev.write_slots.total_grants == 3
    if setting == "domain":
        assert stats.counters["nvmm_slot_grants@dev1"] == 3
    if setting == "traced":
        phases = [sp.phases for sp in new.env.trace.spans()]
        assert [[p[0] for p in ph] for ph in phases] \
            == [[], ["nvmm"], ["nvmm"], ["nvmm"]]
    if setting == "observed":
        kinds = [ev[0] for ev in new.tap.events]
        assert kinds == ["store", "store", "persist", "boundary", "fence",
                         "store", "persist", "boundary",
                         "store", "persist", "boundary", "fence", "fence"]


def test_the_line_kernel_refuses_a_range_across_two_lines():
    world = World(True, line=True)
    with pytest.raises(ValueError):
        world.persist_line(world.ctxs[0], 60, b"x" * 8, 1)
    with pytest.raises(ValueError):
        world.persist_line(world.ctxs[0], 64, b"", 1)
