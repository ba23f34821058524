"""Unit tests for the background writeback task."""

import pytest

from repro.core import HiNFS, HiNFSConfig
from repro.fs import flags as f

from tests.fs.conftest import PmfsRig

SEC = 1_000_000_000


def make_rig(**hconf):
    hconf.setdefault("buffer_bytes", 64 * 4096)
    return PmfsRig(fs_cls=HiNFS, hconfig=HiNFSConfig(**hconf))


def test_pressure_signal_reclaims_to_high_watermark():
    rig = make_rig()
    # Dirty most of the 64-block buffer.
    rig.vfs.write_file(rig.ctx, "/p", b"d" * (60 * 4096))
    assert rig.fs.buffer.free_blocks < rig.fs.hconfig.high_blocks
    rig.fs.writeback.signal_pressure(rig.ctx.now)
    rig.env.background.advance_to(rig.ctx.now + 1)
    assert rig.fs.buffer.free_blocks >= rig.fs.hconfig.high_blocks
    assert rig.env.stats.count("writeback_pressure_blocks") > 0


def fill_to_two_free(rig):
    """Dirty 62 blocks of the 64-block buffer in one lazy write; the
    write itself signals pressure (2 free is below ``Low_f`` = 3)."""
    rig.vfs.write_file(rig.ctx, "/p", b"d" * (62 * 4096))
    assert rig.fs.buffer.free_blocks == 2


def pressure_armed(pool):
    return pool.next_due_ns() < pool.config.periodic_interval_ns


def test_a_pressure_wake_flushes_one_batch_and_rearms_at_its_end():
    rig = make_rig(reclaim_batch=4)
    fill_to_two_free(rig)
    buffer, pool = rig.fs.buffer, rig.fs.writeback
    rig.env.background.advance_to(rig.ctx.now)
    assert buffer.free_blocks == 6
    batch_end = pool.ctx.now
    assert batch_end > rig.ctx.now
    assert pool.next_due_ns() == batch_end
    rig.env.background.advance_to(batch_end)
    assert buffer.free_blocks == 10
    assert rig.env.stats.count("writeback_pressure_blocks") == 8


def test_the_aged_scan_and_relief_run_once_high_f_is_reached(monkeypatch):
    rig = make_rig(reclaim_batch=4)
    buffer, pool = rig.fs.buffer, rig.fs.writeback
    calls = []
    for name in ("_journal_relief", "_flush_older_than"):
        # Named by the flush's cause where it has one.
        def counted(*args, real=getattr(pool, name), name=name):
            calls.append((args[0] if args else name, buffer.free_blocks))
            real(*args)
        monkeypatch.setattr(pool, name, counted)
    fill_to_two_free(rig)
    wakes = 0
    while pressure_armed(pool):
        assert calls == []
        rig.env.background.advance_to(pool.next_due_ns())
        wakes += 1
    assert wakes == 3  # 2 -> 6 -> 10 -> 14 free
    assert [name for name, _free in calls] == ["_journal_relief", "aged"]
    assert all(free >= pool.config.high_blocks for _name, free in calls)


def test_a_batch_of_clean_victims_still_rearms_strictly_later():
    rig = make_rig(reclaim_batch=4)
    fill_to_two_free(rig)
    for block in rig.fs.buffer.all_blocks_lrw_order():
        block.bitmap.clean()
    pool = rig.fs.writeback
    due = pool.next_due_ns()
    rig.env.background.advance_to(due)
    assert rig.fs.buffer.free_blocks == 6
    assert pool.ctx.now == due  # nothing to persist, no time passed
    assert pool.next_due_ns() == due + 1
    rig.env.background.advance_to(due + 10)  # no DeadlockError
    assert rig.fs.buffer.at_high_watermark
    assert not pressure_armed(pool)


def test_foreground_persists_between_wakes_wait_one_batch_at_most():
    """A batch of ``N_w`` blocks holds every writer slot for one block's
    persist time, each slot taken as the worker has read its block out
    of DRAM.  A fenced one-block persist issued right after a wake waits
    for that batch only, not for the whole climb to ``High_f``: the
    writer slots' gaps between back-to-back batches are too short for
    it to slip into."""
    config = PmfsRig().config
    batch = config.nvmm_writer_slots
    rig = make_rig(reclaim_batch=batch)
    block_ns = config.nvmm_persist_cost_ns(4096 // 64)
    batch_ns = block_ns + batch * config.load_cost_ns(4096)
    own_ns = config.dram_store_cost_ns(4096) + block_ns + config.fence_ns
    fill_to_two_free(rig)
    pool = rig.fs.writeback
    spare_block = rig.device.size - 4096
    wakes = 0
    while pressure_armed(pool):
        rig.ctx.now = max(rig.ctx.now, pool.next_due_ns())
        rig.env.background.advance_to(rig.ctx.now)
        start = rig.ctx.now
        rig.device.persist_cached(rig.ctx, spare_block, b"j" * 4096)
        rig.device.fence(rig.ctx)
        assert rig.ctx.now - start - own_ns <= batch_ns
        wakes += 1
    assert wakes == 4  # 2 -> 5 -> 8 -> 11 -> 14 free
    assert rig.fs.buffer.at_high_watermark


def test_pressure_when_above_high_is_noop():
    rig = make_rig()
    rig.vfs.write_file(rig.ctx, "/p", b"d" * 4096)
    rig.fs.writeback.signal_pressure(rig.ctx.now)
    rig.env.background.advance_to(rig.ctx.now + 1)
    assert rig.env.stats.count("writeback_pressure_blocks") == 0


def test_demand_reclaim_waits_foreground():
    rig = make_rig()
    rig.vfs.write_file(rig.ctx, "/p", b"d" * (64 * 4096))
    assert rig.fs.buffer.free_blocks == 0
    before = rig.ctx.now
    freed = rig.fs.writeback.demand_reclaim(rig.ctx)
    assert freed > 0
    assert rig.ctx.now > before  # the foreground actually waited
    assert rig.fs.buffer.free_blocks == freed


def test_periodic_flush_only_cold_blocks():
    rig = make_rig(buffer_bytes=256 * 4096)
    rig.vfs.write_file(rig.ctx, "/cold", b"c" * 8192)
    # A hot block written just before the second tick must be skipped
    # (its age is far below the 5 s interval); the cold one is flushed.
    rig.ctx.now = 10 * SEC - 1000
    rig.vfs.write_file(rig.ctx, "/hot", b"h" * 4096)
    rig.env.background.advance_to(10 * SEC + 1)
    flushed = rig.env.stats.count("writeback_periodic_blocks")
    assert flushed == 2  # only /cold's two blocks
    ino_hot = rig.vfs.stat(rig.ctx, "/hot").ino
    assert rig.fs.buffer.file_blocks(ino_hot)  # still buffered


def test_aged_flush_after_pressure():
    rig = make_rig(buffer_bytes=256 * 4096, dirty_age_ns=1 * SEC)
    rig.vfs.write_file(rig.ctx, "/old", b"o" * 4096)
    rig.ctx.now = 2 * SEC
    rig.vfs.write_file(rig.ctx, "/new", b"n" * 4096)
    rig.fs.writeback.signal_pressure(rig.ctx.now)
    rig.env.background.advance_to(rig.ctx.now + 1)
    assert rig.env.stats.count("writeback_aged_blocks") >= 1
    ino_new = rig.vfs.stat(rig.ctx, "/new").ino
    assert rig.fs.buffer.file_blocks(ino_new)  # fresh block survives


def test_journal_relief_closes_the_oldest_deferred_commits_only():
    """Past the relief line the background closes transactions from the
    tail until the ring is back under it; younger blocks stay in DRAM."""
    rig = PmfsRig(fs_cls=HiNFS, journal_blocks=8,
                  hconfig=HiNFSConfig(buffer_bytes=512 * 4096))
    journal = rig.fs.journal
    files = 0
    while journal.used_slots <= journal.relief_limit:
        rig.vfs.write_file(rig.ctx, "/j%d" % files, b"x" * 4096)
        files += 1
    assert journal.open_transactions == files
    # The write that crossed the line signalled the writeback task by itself.
    rig.env.background.advance_to(rig.ctx.now + 1)
    relieved = rig.env.stats.count("writeback_journal_relief_blocks")
    assert 0 < relieved < files // 4
    assert journal.used_slots <= journal.relief_limit
    assert journal.open_transactions == files - relieved
    assert rig.fs.buffer.used_blocks == files - relieved
    for i in range(files):
        ino = rig.vfs.stat(rig.ctx, "/j%d" % i).ino
        assert bool(rig.fs.buffer.file_blocks(ino)) == (i >= relieved)


def test_flusher_charges_its_own_timeline():
    rig = make_rig()
    rig.vfs.write_file(rig.ctx, "/p", b"d" * (60 * 4096))
    fg_before = rig.ctx.now
    rig.fs.writeback.signal_pressure(rig.ctx.now)
    rig.env.background.advance_to(rig.ctx.now + 1)
    # Background reclaim must not consume foreground time.
    assert rig.ctx.now == fg_before
    assert rig.fs.writeback.ctx.now > 0


def test_buffer_exhaustion_raises_diagnosable_deadlock():
    from repro.engine.errors import DeadlockError
    from repro.faults.media import MediaFaultModel

    rig = make_rig(buffer_bytes=8 * 4096, enable_eager_checker=False)
    model = rig.device.attach_faults(MediaFaultModel())
    model.poison_line(rig.device.mem.num_lines - 1)  # unused data line
    # Simulate a flusher that cannot free anything (e.g. every victim's
    # writeback target is on bad media).
    rig.fs.writeback.demand_reclaim = lambda ctx: 0
    with pytest.raises(DeadlockError) as excinfo:
        rig.vfs.write_file(rig.ctx, "/big", b"x" * (9 * 4096))
    text = str(excinfo.value)
    assert "write buffer exhausted" in text
    assert "thread 'test'" in text
    assert "thread 'hinfs-writeback'" in text
    assert "marked bad" in text
