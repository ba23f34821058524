"""The writeback timeline: its name, determinism, pressure signalling.

HiNFS's background writeback is one :class:`WritebackTask` timeline
whose batches spread over the NVMM writer slots; these tests pin down
its registered name, that a demand reclaim is deterministic, how
pressure signals reach the background registry, and that ``quiesce``
rewinds the clock and both wakeups.
"""

from repro.core import HiNFS, HiNFSConfig
from repro.engine.background import NEVER

from tests.fs.conftest import PmfsRig


def make_rig(**hconf):
    hconf.setdefault("buffer_bytes", 64 * 4096)
    return PmfsRig(fs_cls=HiNFS, hconfig=HiNFSConfig(**hconf))


def test_worker_zero_keeps_the_registered_timeline_name():
    rig = make_rig()
    task = rig.fs.writeback
    assert task.ctx.name == "hinfs-writeback"
    assert task.name == "hinfs-writeback"


def test_one_worker_matches_pool_of_one():
    """Two identical rigs free the same blocks behind the same
    foreground stall."""
    results = []
    for _ in range(2):
        rig = make_rig()
        rig.vfs.write_file(rig.ctx, "/fill", b"d" * (64 * 4096))
        before = rig.ctx.now
        freed = rig.fs.writeback.demand_reclaim(rig.ctx)
        results.append((freed, rig.ctx.now - before))
    assert results[0] == results[1]


def test_pressure_signals_coalesce_without_invalidating_cache():
    """Repeated pressure signals under sustained saturation must not
    re-invalidate the registry's cached background minimum: the first
    signal pulls the wakeup earlier in place, later (no-earlier) signals
    are pure no-ops."""
    rig = make_rig()
    task = rig.fs.writeback
    registry = rig.env.background
    # Warm the registry cache (PR 7's idle fast path).
    registry.advance_to(0)
    assert not registry._min_due_stale
    task.signal_pressure(1_000)
    assert task.next_due_ns() == 1_000
    # The cached minimum was lowered in place, not invalidated.
    assert not registry._min_due_stale
    assert registry._min_due_ns == 1_000
    # Later signals at the same or later times change nothing.
    task.signal_pressure(1_000)
    task.signal_pressure(5_000)
    assert task.next_due_ns() == 1_000
    assert registry._min_due_ns == 1_000
    # An *earlier* signal still wins.
    task.signal_pressure(500)
    assert task.next_due_ns() == 500
    assert registry._min_due_ns == 500


def test_note_earlier_respects_stale_cache():
    rig = make_rig()
    registry = rig.env.background
    registry.invalidate()
    registry.note_earlier(42)  # stale: recompute will see it anyway
    assert registry._min_due_stale
    # The recompute still finds the true minimum from the tasks.
    registry.advance_to(0)
    assert not registry._min_due_stale


def test_quiesce_rewinds_workers_and_signals():
    rig = make_rig()
    task = rig.fs.writeback
    rig.vfs.write_file(rig.ctx, "/fill", b"d" * (64 * 4096))
    task.demand_reclaim(rig.ctx)
    interval = task.config.periodic_interval_ns
    rig.env.background.advance_to(interval)  # one periodic wake
    task.signal_pressure(rig.ctx.now)
    assert task.ctx.now >= interval
    assert task._next_periodic_ns == 2 * interval
    assert task.next_due_ns() == rig.ctx.now
    task.quiesce()
    assert task.ctx.now == 0
    assert task._pressure_ns == NEVER
    assert task.next_due_ns() == task.config.periodic_interval_ns
