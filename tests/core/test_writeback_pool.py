"""Parallel writeback workers: file ownership, stealing, determinism.

The pool replaces the single writeback timeline with
``nr_writeback_workers`` worker clocks; these tests pin down the
partitioning rules (owner ``ino % N`` first, tail-stealing for hot
files),
the per-worker accounting, and that one worker reproduces the old
single-task behaviour exactly.
"""

import pytest

from repro.core import HiNFS, HiNFSConfig
from repro.engine.background import NEVER

from tests.fs.conftest import PmfsRig


def make_rig(**hconf):
    hconf.setdefault("buffer_bytes", 64 * 4096)
    return PmfsRig(fs_cls=HiNFS, hconfig=HiNFSConfig(**hconf))


def test_worker_zero_keeps_the_registered_timeline_name():
    rig = make_rig(nr_writeback_workers=4)
    pool = rig.fs.writeback
    assert pool.nr_workers == 4
    assert pool.workers[0].ctx is pool.ctx
    assert pool.ctx.name == "hinfs-writeback"
    assert [w.ctx.name for w in pool.workers[1:]] == [
        "hinfs-writeback-1", "hinfs-writeback-2", "hinfs-writeback-3",
    ]


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_demand_victims_land_on_worker_ino_mod_n(workers):
    rig = make_rig(nr_writeback_workers=workers, reclaim_batch=64)
    inos = []
    for i in range(12):  # one block per file, every worker gets some
        rig.vfs.write_file(rig.ctx, "/f%d" % i, b"w" * 4096)
        inos.append(rig.vfs.stat(rig.ctx, "/f%d" % i).ino)
    if workers == 3:
        # With N = 3, ino % N and (ino % 8) % N disagree for some inode
        # here, so this case tells the two rules apart.
        assert any(ino % 8 % 3 != ino % 3 for ino in inos)
    pool = rig.fs.writeback
    owner = {w.ctx: w.worker_id for w in pool.workers}
    landed = {}
    flush = pool._flush_batch

    def spy(ctx, cause, part):
        landed.update((block.ino, owner[ctx]) for block in part)
        flush(ctx, cause, part)

    pool._flush_batch = spy
    assert pool.demand_reclaim(rig.ctx) == len(inos)
    assert rig.env.stats.count("writeback_steals") == 0
    assert landed == {ino: ino % workers for ino in inos}


def test_demand_reclaim_spreads_across_workers():
    rig = make_rig(nr_writeback_workers=4, reclaim_batch=32)
    rig.vfs.write_file(rig.ctx, "/spread", b"d" * (64 * 4096))
    assert rig.fs.buffer.free_blocks == 0
    freed = rig.fs.writeback.demand_reclaim(rig.ctx)
    assert freed > 0
    per_worker = [rig.env.stats.count("writeback_worker%d_blocks" % w)
                  for w in range(4)]
    assert sum(per_worker) == freed
    # A 32-block batch over many files cannot land on a single worker.
    assert sum(1 for n in per_worker if n > 0) >= 2


def test_single_hot_file_is_stolen_from():
    rig = make_rig(nr_writeback_workers=4, reclaim_batch=32)
    # One big file: every block shares an inode, hence one owner.
    rig.vfs.write_file(rig.ctx, "/hot", b"h" * (64 * 4096))
    assert rig.fs.buffer.free_blocks == 0
    freed = rig.fs.writeback.demand_reclaim(rig.ctx)
    assert freed > 0
    assert rig.env.stats.count("writeback_steals") > 0
    assert rig.env.stats.count("writeback_stolen_blocks") > 0
    busy = sum(1 for w in range(4)
               if rig.env.stats.count("writeback_worker%d_blocks" % w))
    assert busy >= 2


def test_parallel_demand_reclaim_is_not_slower():
    """Four timelines draining a batch finish no later than one."""
    def stall_ns(workers):
        rig = make_rig(nr_writeback_workers=workers)
        rig.vfs.write_file(rig.ctx, "/fill", b"d" * (64 * 4096))
        before = rig.ctx.now
        rig.fs.writeback.demand_reclaim(rig.ctx)
        return rig.ctx.now - before

    assert stall_ns(4) <= stall_ns(1)


def test_one_worker_matches_pool_of_one():
    """The pool with one worker must reproduce the legacy behaviour:
    same freed count, same foreground stall."""
    results = []
    for _ in range(2):
        rig = make_rig(nr_writeback_workers=1)
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
    pool = rig.fs.writeback
    registry = rig.env.background
    # Warm the registry cache (PR 7's idle fast path).
    registry.advance_to(0)
    assert not registry._min_due_stale
    pool.signal_pressure(1_000)
    assert pool.next_due_ns() == 1_000
    # The cached minimum was lowered in place, not invalidated.
    assert not registry._min_due_stale
    assert registry._min_due_ns == 1_000
    # Later signals at the same or later times change nothing.
    pool.signal_pressure(1_000)
    pool.signal_pressure(5_000)
    assert pool.next_due_ns() == 1_000
    assert registry._min_due_ns == 1_000
    # An *earlier* signal still wins.
    pool.signal_pressure(500)
    assert pool.next_due_ns() == 500
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
    rig = make_rig(nr_writeback_workers=4)
    pool = rig.fs.writeback
    rig.vfs.write_file(rig.ctx, "/fill", b"d" * (64 * 4096))
    pool.demand_reclaim(rig.ctx)
    assert any(w.ctx.now > 0 for w in pool.workers)
    pool.quiesce()
    assert all(w.ctx.now == 0 for w in pool.workers)
    assert pool._pressure_ns == NEVER
    assert pool.next_due_ns() == pool.config.periodic_interval_ns
