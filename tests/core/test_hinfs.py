"""Functional tests for HiNFS: buffering, CLFW, benefit model, recovery."""

import pytest

from repro.core import HiNFS, HiNFSConfig
from repro.faults.media import MediaFaultModel
from repro.fs import flags as f
from repro.fs.errors import MediaError
from repro.fs.pmfs.layout import block_addr
from repro.nvmm.config import CACHELINE_SIZE, NVMMConfig

from tests.fs.conftest import PmfsRig


def make_rig(hconfig=None, size=32 << 20, config=None, **switches):
    """``switches`` are HiNFSConfig overrides (the paper's ablations)."""
    hconfig = (hconfig or HiNFSConfig(buffer_bytes=2 << 20)).replace(
        **switches)
    return PmfsRig(size=size, config=config, fs_cls=HiNFS, hconfig=hconfig)


@pytest.fixture()
def rig():
    return make_rig()


def test_write_read_roundtrip_through_buffer(rig):
    rig.vfs.write_file(rig.ctx, "/a", b"hello hinfs" * 100)
    assert rig.vfs.read_file(rig.ctx, "/a") == b"hello hinfs" * 100
    assert rig.env.stats.count("hinfs_lazy_writes") > 0


def test_lazy_write_avoids_nvmm_data_traffic(rig):
    before = rig.env.stats.bytes_written_nvmm
    rig.vfs.write_file(rig.ctx, "/a", b"x" * (64 * 4096))
    data_written = rig.env.stats.bytes_written_nvmm - before
    # Metadata journaling writes a little NVMM, but the 256 KiB of file
    # data must all still be sitting in DRAM.
    assert data_written < 64 * 4096 / 4


def test_lazy_write_is_much_faster_than_pmfs():
    pmfs_rig = PmfsRig(size=32 << 20)
    hinfs_rig = make_rig()
    payload = b"z" * (256 * 1024)
    t0 = pmfs_rig.ctx.now
    pmfs_rig.vfs.write_file(pmfs_rig.ctx, "/f", payload)
    pmfs_time = pmfs_rig.ctx.now - t0
    t0 = hinfs_rig.ctx.now
    hinfs_rig.vfs.write_file(hinfs_rig.ctx, "/f", payload)
    hinfs_time = hinfs_rig.ctx.now - t0
    assert hinfs_time < pmfs_time / 3


def test_read_merges_dram_and_nvmm(rig):
    # First write goes to NVMM via fsync; second (partial) stays in DRAM.
    fd = rig.vfs.open(rig.ctx, "/m", f.O_CREAT | f.O_RDWR)
    rig.vfs.pwrite(rig.ctx, fd, 0, b"N" * 4096)
    rig.vfs.fsync(rig.ctx, fd)
    rig.vfs.pwrite(rig.ctx, fd, 1024, b"D" * 64)
    data = rig.vfs.pread(rig.ctx, fd, 0, 4096)
    assert data[:1024] == b"N" * 1024
    assert data[1024:1088] == b"D" * 64
    assert data[1088:] == b"N" * (4096 - 1088)


def test_unaligned_write_fetches_only_edge_lines(rig):
    rig.vfs.write_file(rig.ctx, "/c", b"base" * 1024)  # 4096 B
    # Remount: data is in NVMM, the buffer is cold, the block is lazy.
    rig.vfs.unmount(rig.ctx)
    rig.remount()
    fetched_before = rig.env.stats.count("hinfs_fetched_lines")
    # Paper example: rewrite bytes 0..112 -> only line 1 must be fetched
    # (line 0 is fully overwritten, line 1 only partially).
    fd = rig.vfs.open(rig.ctx, "/c", f.O_RDWR)
    rig.vfs.pwrite(rig.ctx, fd, 0, b"y" * 112)
    assert rig.env.stats.count("hinfs_fetched_lines") - fetched_before == 1
    data = rig.vfs.pread(rig.ctx, fd, 0, 4096)
    assert data[:112] == b"y" * 112
    assert data[112:] == (b"base" * 1024)[112:]


@pytest.mark.parametrize("policy", ["lrw", "lfu", "2q", "arc"])
def test_block_whose_fetch_raised_is_still_evictable(policy):
    rig = make_rig(replacement_policy=policy)
    rig.vfs.write_file(rig.ctx, "/e", b"e" * 4096)
    rig.vfs.unmount(rig.ctx)
    rig.remount()
    ino = rig.vfs.stat(rig.ctx, "/e").ino
    model = rig.device.attach_faults(MediaFaultModel(seed=0))
    model.poison_line(block_addr(rig.fs._map(ino).get(0)) // CACHELINE_SIZE + 1)
    fd = rig.vfs.open(rig.ctx, "/e", f.O_RDWR)
    with pytest.raises(MediaError):
        rig.vfs.pwrite(rig.ctx, fd, 0, b"y" * 112)  # fetches line 1
    (block,) = rig.fs.buffer.file_blocks(ino)
    assert not block.bitmap.dirty
    assert rig.fs.buffer.all_blocks_lrw_order() == [block]
    rig.fs.writeback.demand_reclaim(rig.ctx)
    assert rig.fs.buffer.file_blocks(ino) == []


def test_one_write_larger_than_the_buffer():
    """Demand reclaim mid-request flushes blocks the request already
    attached to its transaction; the transaction must stay open until
    the request is done writing it."""
    rig = make_rig(buffer_bytes=8 * 4096)
    data = bytes(range(256)) * (12 * 16)  # 12 blocks into an 8-block buffer
    rig.vfs.write_file(rig.ctx, "/big", data, chunk=len(data))
    assert rig.env.stats.count("writeback_demand_stalls") > 0
    assert rig.vfs.read_file(rig.ctx, "/big") == data
    fd = rig.vfs.open(rig.ctx, "/big", f.O_RDWR)
    rig.vfs.fsync(rig.ctx, fd)
    rig.crash_and_remount()
    assert rig.vfs.read_file(rig.ctx, "/big") == data


def test_nclfw_fetches_whole_block():
    rig = make_rig(enable_clfw=False)
    rig.vfs.write_file(rig.ctx, "/c", b"base" * 1024)
    rig.vfs.unmount(rig.ctx)
    rig.remount()
    assert not rig.fs.hconfig.enable_clfw     # the remount keeps the switch
    fetched_before = rig.env.stats.count("hinfs_fetched_lines")
    fd = rig.vfs.open(rig.ctx, "/c", f.O_RDWR)
    rig.vfs.pwrite(rig.ctx, fd, 0, b"y" * 112)
    # The whole block (all 64 lines) is fetched before the write.
    assert rig.env.stats.count("hinfs_fetched_lines") - fetched_before == 64
    data = rig.vfs.pread(rig.ctx, fd, 0, 4096)
    assert data[:112] == b"y" * 112
    assert data[112:] == (b"base" * 1024)[112:]


@pytest.mark.parametrize("clfw", [True, False])
def test_fresh_block_written_in_part_reads_zeroes_past_the_write(clfw):
    """Only a whole-block store may skip the zero-fill of a fresh block:
    the recycled DRAM frame still holds its last tenant's bytes."""
    rig = make_rig(enable_clfw=clfw)
    fd = rig.vfs.open(rig.ctx, "/old", f.O_CREAT | f.O_RDWR)
    rig.vfs.pwrite(rig.ctx, fd, 0, b"\xff" * 4096)
    (old,) = rig.fs.buffer.file_blocks(rig.vfs.fstat(rig.ctx, fd).ino)
    rig.vfs.fsync(rig.ctx, fd)  # frees the frame
    fd = rig.vfs.open(rig.ctx, "/new", f.O_CREAT | f.O_RDWR)
    rig.vfs.pwrite(rig.ctx, fd, 1000, b"d" * 100)
    rig.vfs.pwrite(rig.ctx, fd, 8192, b"t")  # size past block 0
    ino = rig.vfs.fstat(rig.ctx, fd).ino
    assert rig.fs.buffer.lookup(ino, 0).dram_block == old.dram_block
    expected = b"\0" * 1000 + b"d" * 100 + b"\0" * 2996
    assert rig.vfs.pread(rig.ctx, fd, 0, 4096) == expected
    rig.vfs.fsync(rig.ctx, fd)
    assert rig.fs.buffer.file_blocks(ino) == []
    assert rig.vfs.pread(rig.ctx, fd, 0, 4096) == expected


@pytest.mark.parametrize("clfw,fetched", [(True, 0), (False, 64)])
def test_whole_block_overwrite_fetches_only_under_nclfw(clfw, fetched):
    """CLFW has no edge lines to fetch for a whole-block store;
    HiNFS-NCLFW still fetches the missing block first (Figure 9)."""
    rig = make_rig(enable_clfw=clfw)
    fd = rig.vfs.open(rig.ctx, "/w", f.O_CREAT | f.O_RDWR)
    rig.vfs.pwrite(rig.ctx, fd, 0, b"a" * 8192)
    rig.vfs.fdatasync(rig.ctx, fd)  # block 1 leaves the buffer, lazy
    before = rig.env.stats.count("hinfs_fetched_lines")
    rig.vfs.pwrite(rig.ctx, fd, 4096, b"b" * 4096)
    assert rig.env.stats.count("hinfs_fetched_lines") - before == fetched
    assert rig.vfs.pread(rig.ctx, fd, 0, 8192) == b"a" * 4096 + b"b" * 4096


def test_mutating_the_callers_buffer_after_pwrite_leaves_the_data(rig):
    fd = rig.vfs.open(rig.ctx, "/m", f.O_CREAT | f.O_RDWR)
    payload = bytearray(b"p" * (8192 + 100))
    rig.vfs.pwrite(rig.ctx, fd, 0, payload)
    payload[:] = b"z" * len(payload)
    assert rig.vfs.pread(rig.ctx, fd, 0, 8292) == b"p" * 8292
    rig.vfs.fsync(rig.ctx, fd)
    assert rig.vfs.pread(rig.ctx, fd, 0, 8292) == b"p" * 8292


def test_clfw_writes_back_fewer_bytes_than_nclfw():
    """Figure 9(b): small unaligned writes -> CLFW's NVMM write size is
    far smaller."""
    results = {}
    for name, clfw in [("clfw", True), ("nclfw", False)]:
        rig = make_rig(enable_clfw=clfw)
        fd = rig.vfs.open(rig.ctx, "/f", f.O_CREAT | f.O_RDWR)
        for i in range(64):
            rig.vfs.pwrite(rig.ctx, fd, i * 4096, b"tiny")
            rig.vfs.fsync(rig.ctx, fd)
        results[name] = rig.env.stats.bytes_written_nvmm
    assert results["clfw"] < results["nclfw"] / 4


def test_fsync_persists_buffered_data(rig):
    fd = rig.vfs.open(rig.ctx, "/p", f.O_CREAT | f.O_RDWR)
    rig.vfs.write(rig.ctx, fd, b"precious" * 512)
    rig.vfs.fsync(rig.ctx, fd)
    rig.crash_and_remount()
    assert rig.vfs.read_file(rig.ctx, "/p") == b"precious" * 512


def test_unsynced_lazy_data_lost_but_consistent(rig):
    rig.vfs.write_file(rig.ctx, "/durable", b"old" * 1000, sync=True)
    fd = rig.vfs.open(rig.ctx, "/durable")
    rig.vfs.pwrite(rig.ctx, fd, 0, b"NEW")
    # Crash before any sync/writeback: the lazy overwrite may vanish, but
    # the file must be intact and readable.
    rig.crash_and_remount()
    data = rig.vfs.read_file(rig.ctx, "/durable")
    assert len(data) == 3000
    assert data[3:] == (b"old" * 1000)[3:]


def test_deferred_commit_rolls_back_new_file_growth(rig):
    """Ordered mode: metadata that references unwritten buffered data
    must not survive a crash (the deferred commit never landed)."""
    rig.vfs.write_file(rig.ctx, "/grow", b"")
    fd = rig.vfs.open(rig.ctx, "/grow")
    rig.vfs.pwrite(rig.ctx, fd, 0, b"unsynced data that only lives in DRAM")
    rig.crash_and_remount()
    st = rig.vfs.stat(rig.ctx, "/grow")
    # The size update was part of the uncommitted tx: rolled back to 0.
    assert st.size == 0


def test_o_sync_writes_durable_immediately(rig):
    fd = rig.vfs.open(rig.ctx, "/s", f.O_CREAT | f.O_RDWR | f.O_SYNC)
    rig.vfs.write(rig.ctx, fd, b"sync write" * 100)
    rig.crash_and_remount()
    assert rig.vfs.read_file(rig.ctx, "/s") == b"sync write" * 100


def test_o_sync_write_with_buffered_copy_evicts_it(rig):
    fd = rig.vfs.open(rig.ctx, "/mix", f.O_CREAT | f.O_RDWR)
    rig.vfs.pwrite(rig.ctx, fd, 0, b"lazy" * 1024)  # buffered
    fd_sync = rig.vfs.open(rig.ctx, "/mix", f.O_RDWR | f.O_SYNC)
    rig.vfs.pwrite(rig.ctx, fd_sync, 0, b"SYNC")
    # The whole block (lazy tail included) must now be durable.
    rig.crash_and_remount()
    data = rig.vfs.read_file(rig.ctx, "/mix")
    assert data[:4] == b"SYNC"
    assert data[4:] == (b"lazy" * 1024)[4:]


def test_frequent_fsync_drives_blocks_eager(rig):
    fd = rig.vfs.open(rig.ctx, "/db", f.O_CREAT | f.O_RDWR)
    # Append-one-line-then-fsync, the pattern that cannot coalesce.
    for i in range(4):
        rig.vfs.pwrite(rig.ctx, fd, i * 64, b"x" * 64)
        rig.vfs.fsync(rig.ctx, fd)
    eager_before = rig.env.stats.count("hinfs_eager_writes")
    rig.vfs.pwrite(rig.ctx, fd, 4 * 64, b"x" * 64)
    assert rig.env.stats.count("hinfs_eager_writes") == eager_before + 1


def test_hinfs_wb_never_writes_eagerly():
    rig = make_rig(enable_eager_checker=False)
    fd = rig.vfs.open(rig.ctx, "/db", f.O_CREAT | f.O_RDWR)
    for i in range(4):
        rig.vfs.pwrite(rig.ctx, fd, i * 64, b"x" * 64)
        rig.vfs.fsync(rig.ctx, fd)
    rig.vfs.pwrite(rig.ctx, fd, 4 * 64, b"x" * 64)
    assert rig.env.stats.count("hinfs_eager_writes") == 0


def test_unlink_discards_buffered_blocks_without_writeback(rig):
    before = rig.env.stats.bytes_written_nvmm
    rig.vfs.write_file(rig.ctx, "/shortlived", b"w" * (32 * 4096))
    rig.vfs.unlink(rig.ctx, "/shortlived")
    data_written = rig.env.stats.bytes_written_nvmm - before
    assert rig.env.stats.count("hinfs_discarded_blocks") == 32
    # Only metadata/journal traffic hit NVMM.
    assert data_written < 32 * 4096 / 4


def test_buffer_pressure_stalls_and_reclaims():
    """Writing far more than the buffer forces demand reclaim; data must
    stay correct and some stalls must be recorded."""
    rig = make_rig(hconfig=HiNFSConfig(buffer_bytes=64 * 4096))
    payload = bytes((i * 7) % 256 for i in range(512 * 4096))
    rig.vfs.write_file(rig.ctx, "/huge", payload, chunk=1 << 16)
    assert rig.env.stats.count("writeback_demand_stalls") > 0
    assert rig.vfs.read_file(rig.ctx, "/huge") == payload


def test_unmount_flushes_everything(rig):
    rig.vfs.write_file(rig.ctx, "/u", b"flushed at unmount" * 100)
    rig.vfs.unmount(rig.ctx)
    rig.crash_and_remount()
    assert rig.vfs.read_file(rig.ctx, "/u") == b"flushed at unmount" * 100


def test_periodic_writeback_flushes_cold_blocks(rig):
    from repro.engine.scheduler import Scheduler

    sched = Scheduler(rig.env)

    def body(ctx):
        rig.vfs.write_file(ctx, "/cold", b"c" * 8192)
        yield
        # Idle for 12 simulated seconds: two periodic wakeups pass.
        ctx.charge(12_000_000_000)
        yield

    sched.spawn("w", body)
    sched.run()
    rig.env.background.advance_to(12_000_000_000)
    assert rig.env.stats.count("writeback_periodic_blocks") >= 2
    rig.crash_and_remount()
    assert rig.vfs.read_file(rig.ctx, "/cold") == b"c" * 8192


def test_journal_makes_room_by_closing_the_oldest_deferred_commits():
    """A 255-slot ring under 100 lazily written files: ``begin`` makes
    room on the foreground, oldest transaction first, and only as far
    as its reserve needs -- the ring wraps with commits still deferred
    and the newest blocks still in DRAM."""
    rig = PmfsRig(fs_cls=HiNFS, hconfig=HiNFSConfig(buffer_bytes=2 << 20),
                  journal_blocks=4)
    journal = rig.fs.journal
    assert journal.capacity == 255
    for i in range(100):
        rig.vfs.write_file(rig.ctx, "/f%d" % i, b"spam" * 256)
        assert journal.used_slots + journal.open_transactions \
            <= journal.capacity
    assert rig.env.stats.count("journal_wraps") >= 3
    assert rig.env.stats.count("writeback_journal_relief_blocks") == 0
    # Flushed oldest first, and no further than needed: the files whose
    # block is still buffered are the youngest ones, without a gap.
    buffered = [i for i in range(100) if rig.fs.buffer.file_blocks(
        rig.vfs.stat(rig.ctx, "/f%d" % i).ino)]
    assert buffered == list(range(100 - len(buffered), 100))
    assert 10 < len(buffered) == journal.open_transactions < 60
    assert journal.oldest_open.owner.blocks.keys() == set(
        rig.fs.buffer.file_blocks(
            rig.vfs.stat(rig.ctx, "/f%d" % buffered[0]).ino))
    for i in range(100):
        assert rig.vfs.read_file(rig.ctx, "/f%d" % i) == b"spam" * 256
    rig.crash_and_remount()
    for i in range(100 - len(buffered)):
        assert rig.vfs.read_file(rig.ctx, "/f%d" % i) == b"spam" * 256


def test_truncate_discards_dropped_range(rig):
    rig.vfs.write_file(rig.ctx, "/t", b"q" * 16384)
    rig.vfs.truncate(rig.ctx, "/t", 4096)
    assert rig.vfs.read_file(rig.ctx, "/t") == b"q" * 4096
    rig.vfs.write_file(rig.ctx, "/t2", b"")  # buffer still consistent


def test_truncate_mid_line_keeps_bytes_below_the_cut(rig):
    # The first truncate writes the block back and drops it from the
    # buffer, so the one-byte write buffers line 0 alone; cutting inside
    # line 1 must then fetch that line before zeroing its tail.
    fd = rig.vfs.open(rig.ctx, "/cut", f.O_CREAT | f.O_RDWR)
    rig.vfs.pwrite(rig.ctx, fd, 0, b"N" * 65)
    rig.vfs.truncate(rig.ctx, "/cut", 65)
    rig.vfs.pwrite(rig.ctx, fd, 0, b"D")
    assert rig.fs.buffer.lookup(rig.vfs.stat(rig.ctx, "/cut").ino,
                                0).bitmap.valid == 1
    rig.vfs.truncate(rig.ctx, "/cut", 65)
    assert rig.vfs.read_file(rig.ctx, "/cut") == b"D" + b"N" * 64


def test_sparse_lazy_write_reads_zeroes(rig):
    fd = rig.vfs.open(rig.ctx, "/sp", f.O_CREAT | f.O_RDWR)
    rig.vfs.pwrite(rig.ctx, fd, 100_000, b"tail")
    data = rig.vfs.pread(rig.ctx, fd, 0, 100_004)
    assert data[:100_000] == b"\0" * 100_000
    assert data[100_000:] == b"tail"


def test_model_accuracy_populated_after_repeat_syncs(rig):
    fd = rig.vfs.open(rig.ctx, "/acc", f.O_CREAT | f.O_RDWR)
    for _ in range(5):
        rig.vfs.pwrite(rig.ctx, fd, 0, b"a" * 64)
        rig.vfs.fsync(rig.ctx, fd)
    assert rig.fs.benefit.accuracy is not None
    assert rig.fs.benefit.accuracy >= 0.5
