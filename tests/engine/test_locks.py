"""Virtual-time lock primitives: exclusion, reader overlap, accounting.

The locks never suspend a generator -- *blocking* is advancing the
waiter's virtual clock to the holder's release point -- so these tests
assert on clock positions and the SimStats lock counters.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import InodeLockTable, VMutex, VRWLock
from repro.engine.context import ExecContext
from repro.engine.env import SimEnv
from repro.engine.errors import DeadlockError
from repro.obs.trace import LAYER_LOCK, LAYER_VFS


@pytest.fixture
def env():
    return SimEnv()


def ctx_at(env, name, now):
    return ExecContext(env, name, start_ns=now)


class TestVMutex:
    def test_uncontended_acquire_is_free(self, env):
        m = VMutex(env, "m")
        a = ctx_at(env, "a", 100)
        m.acquire(a)
        assert a.now == 100
        assert m.owner == "a"
        assert env.stats.count("lock_acquisitions") == 1
        assert env.stats.count("lock_contentions") == 0
        m.release(a)
        assert m.owner is None

    def test_writer_writer_exclusion(self, env):
        m = VMutex(env, "m")
        a = ctx_at(env, "a", 0)
        b = ctx_at(env, "b", 10)
        m.acquire(a)
        a.charge(100)  # critical section: 0..100
        m.release(a)
        m.acquire(b)  # b arrived at t=10, must wait until a released
        assert b.now == 100
        assert env.stats.count("lock_contentions") == 1
        assert env.stats.count("lock_wait_ns") == 90
        assert m.contentions == 1
        assert m.wait_ns_total == 90

    def test_held_context_manager_releases(self, env):
        m = VMutex(env, "m")
        a = ctx_at(env, "a", 0)
        with m.held(a):
            a.charge(50)
        b = ctx_at(env, "b", 60)
        m.acquire(b)  # after the release point: no wait
        assert b.now == 60


class TestVRWLock:
    def test_readers_overlap(self, env):
        rw = VRWLock(env, "rw")
        r1 = ctx_at(env, "r1", 0)
        r2 = ctx_at(env, "r2", 5)
        rw.acquire_read(r1)
        r1.charge(100)
        rw.acquire_read(r2)  # concurrent with r1: no wait
        assert r2.now == 5
        rw.release_read(r2)
        rw.release_read(r1)
        assert env.stats.count("lock_contentions") == 0

    def test_writer_excludes_readers(self, env):
        rw = VRWLock(env, "rw")
        w = ctx_at(env, "w", 0)
        r = ctx_at(env, "r", 10)
        rw.acquire_write(w)
        w.charge(80)  # writing until t=80
        rw.release_write(w)
        rw.acquire_read(r)
        assert r.now == 80

    def test_writer_waits_for_readers_and_writers(self, env):
        rw = VRWLock(env, "rw")
        r = ctx_at(env, "r", 0)
        rw.acquire_read(r)
        r.charge(60)
        rw.release_read(r)
        w = ctx_at(env, "w", 20)
        rw.acquire_write(w)  # must wait out the reader
        assert w.now == 60
        w.charge(40)
        rw.release_write(w)
        w2 = ctx_at(env, "w2", 30)
        rw.acquire_write(w2)  # and a later writer waits out the writer
        assert w2.now == 100

    def test_reader_does_not_wait_for_reader(self, env):
        rw = VRWLock(env, "rw")
        r1 = ctx_at(env, "r1", 0)
        rw.acquire_read(r1)
        r1.charge(1000)
        rw.release_read(r1)
        r2 = ctx_at(env, "r2", 10)
        rw.acquire_read(r2)
        assert r2.now == 10  # _read_free_at never gates readers

    def test_contended_wait_is_a_lock_phase_on_the_span(self, env):
        env.enable_tracing(16)
        rw = VRWLock(env, "rw")
        w = ctx_at(env, "w", 0)
        rw.acquire_write(w)
        w.charge(500)
        rw.release_write(w)
        b = ctx_at(env, "b", 100)
        with b.span("write", layer=LAYER_VFS):
            rw.acquire_write(b)
            rw.release_write(b)
        assert b.now == 500
        assert env.stats.layer_time_ns[LAYER_LOCK] == 400
        spans = env.trace.spans()
        phases = [(layer, enter, exit) for sp in spans
                  for layer, enter, exit in sp.phases
                  if layer == LAYER_LOCK]
        assert len(phases) == 1
        assert phases[0][2] - phases[0][1] == 400


class TestInodeLockTable:
    def test_lock_is_lazily_created_and_dropped(self, env):
        table = InodeLockTable(env)
        lock = table.lock(7)
        assert table.lock(7) is lock
        table.drop(7)
        assert table.lock(7) is not lock

    def test_write_locked_tracks_held_locks(self, env):
        table = InodeLockTable(env)
        a = ctx_at(env, "a", 0)
        with table.write_locked(a, 3):
            assert a.held_locks == [(3, "write")]
        assert a.held_locks == []

    def test_recursive_acquisition_is_diagnosed(self, env):
        table = InodeLockTable(env)
        a = ctx_at(env, "a", 0)
        with table.write_locked(a, 3):
            with pytest.raises(DeadlockError, match="recursive inode lock"):
                with table.read_locked(a, 3):
                    pass

    def test_abba_order_violation_is_diagnosed(self, env):
        table = InodeLockTable(env)
        a = ctx_at(env, "a", 0)
        with table.write_locked(a, 9):
            with pytest.raises(DeadlockError,
                               match="lock-order violation"):
                with table.write_locked(a, 4):
                    pass
        # The failed acquisition must not leak into held_locks.
        assert a.held_locks == []

    def test_abba_diagnostics_name_both_inodes(self, env):
        table = InodeLockTable(env)
        a = ctx_at(env, "a", 0)
        with table.write_locked(a, 9):
            with pytest.raises(DeadlockError) as exc:
                with table.write_locked(a, 4):
                    pass
        text = str(exc.value)
        assert "inode 4" in text and "inode 9" in text
        assert "lowest-inode-first" in text

    def test_write_locked_many_sorts_to_canonical_order(self, env):
        table = InodeLockTable(env)
        a = ctx_at(env, "a", 0)
        with table.write_locked_many(a, (9, 4, 9)):
            assert a.held_locks == [(4, "write"), (9, "write")]
        assert a.held_locks == []

    def test_two_threads_same_inode_serialise(self, env):
        table = InodeLockTable(env)
        a = ctx_at(env, "a", 0)
        b = ctx_at(env, "b", 10)
        with table.write_locked(a, 5):
            a.charge(200)
        with table.write_locked(b, 5):
            assert b.now == 200

    def test_two_threads_disjoint_inodes_overlap(self, env):
        table = InodeLockTable(env)
        a = ctx_at(env, "a", 0)
        b = ctx_at(env, "b", 10)
        with table.write_locked(a, 5):
            a.charge(200)
        with table.write_locked(b, 6):
            assert b.now == 10
        assert env.stats.count("lock_contentions") == 0


# -- the inline inode guard against the calls it replaced ---------------------


class _ReferenceGuard:
    """The previous ``_InodeGuard``: ``lock``, ``_push`` (lockdep on every
    acquisition), ``acquire_*``, then ``release_*`` and ``_pop``."""

    def __init__(self, table, ctx, ino, mode):
        self.table, self.ctx, self.ino, self.mode = table, ctx, ino, mode

    def __enter__(self):
        table, ctx, ino = self.table, self.ctx, self.ino
        self.lock = lock = table.lock(ino)
        table._push(ctx, ino, self.mode)
        if self.mode == "read":
            lock.acquire_read(ctx)
        else:
            lock.acquire_write(ctx)
        return lock

    def __exit__(self, exc_type, exc, tb):
        if self.mode == "read":
            self.lock.release_read(self.ctx)
        else:
            self.lock.release_write(self.ctx)
        self.table._pop(self.ctx, self.ino, self.mode)
        return False


class _LockWorld:
    def __init__(self, inline, traced):
        self.env = SimEnv()
        if traced:
            self.env.enable_tracing(256)
        self.table = InodeLockTable(self.env)
        self.inline = inline
        self.ctxs = [ctx_at(self.env, name, now)
                     for name, now in (("a", 0), ("b", 50), ("c", 120))]

    def guard(self, ctx, ino, mode):
        if self.inline:
            locked = (self.table.read_locked if mode == "read"
                      else self.table.write_locked)
            return locked(ctx, ino)
        return _ReferenceGuard(self.table, ctx, ino, mode)

    def step(self, who, outer, inner, hold_ns):
        """One syscall-like span: an outer guard, optionally a nested
        one, time spent inside.  Returns the DeadlockError's text."""
        ctx = self.ctxs[who]
        try:
            with ctx.syscall("op"):
                with self.guard(ctx, *outer):
                    ctx.charge(hold_ns)
                    if inner is not None:
                        with self.guard(ctx, *inner):
                            ctx.charge(hold_ns // 2)
        except DeadlockError as err:
            return str(err)
        return None

    def state(self):
        locks = self.table._locks
        return {
            "now": [ctx.now for ctx in self.ctxs],
            "held": [list(ctx.held_locks) for ctx in self.ctxs],
            "stats": self.env.stats.summary(),
            "locks": {ino: (lock._write_free_at, lock._read_free_at,
                            lock.writer, lock.contentions,
                            lock.wait_ns_total)
                      for ino, lock in locks.items()},
            "spans": None if self.env.trace is None else [
                (sp.name, sp.thread, sp.start_ns, sp.end_ns, sp.phases)
                for sp in self.env.trace.spans()],
        }


_GUARD = st.tuples(st.integers(1, 4), st.sampled_from(["read", "write"]))


@settings(max_examples=120, deadline=None)
@given(traced=st.booleans(), steps=st.lists(
    st.tuples(st.integers(0, 2), _GUARD, st.one_of(st.none(), _GUARD),
              st.integers(0, 400)),
    min_size=1, max_size=40))
def test_inline_inode_guard_matches_the_reference_guard(traced, steps):
    """Random nests over four inodes and three threads at different
    clocks: contended and free acquisitions, readers and writers,
    recursion and ABBA order (a nested inode at or below the outer one).
    Every error, clock, held-lock list, counter, lock's free times and
    traced ``lock`` phase agree."""
    ref, new = _LockWorld(False, traced), _LockWorld(True, traced)
    for who, outer, inner, hold_ns in steps:
        assert new.step(who, outer, inner, hold_ns) \
            == ref.step(who, outer, inner, hold_ns)
        assert new.state() == ref.state()


def test_inline_guard_counts_a_contended_wait_and_records_its_phase(env):
    env.enable_tracing(16)
    table = InodeLockTable(env)
    a, b = ctx_at(env, "a", 0), ctx_at(env, "b", 100)
    with table.write_locked(a, 5):
        a.charge(500)
    with b.syscall("read"):
        with table.read_locked(b, 5):
            assert b.now == 500
    counters = env.stats.counters
    assert (counters["lock_acquisitions"], counters["lock_contentions"],
            counters["lock_wait_ns"]) == (2, 1, 400)
    (phase,) = [p for sp in env.trace.spans() for p in sp.phases]
    assert phase == (LAYER_LOCK, 100, 500)
    assert a.held_locks == b.held_locks == []


def test_inline_guard_runs_lockdep_only_with_a_lock_held(env, monkeypatch):
    table = InodeLockTable(env)
    a = ctx_at(env, "a", 0)
    checked = []
    real = table._check_order
    monkeypatch.setattr(table, "_check_order",
                        lambda *args: checked.append(args[1:]) or real(*args))
    with table.write_locked(a, 3):
        with table.read_locked(a, 4):
            pass
    assert checked == [(4, "read")]
