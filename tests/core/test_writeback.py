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
    # The write that crossed the line signalled the pool by itself.
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
