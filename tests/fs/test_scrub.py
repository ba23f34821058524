"""Scrubber tests: repair from replicas, isolate lost data, feed the
mount-health FSM."""

import pytest

from repro.bench.runner import build_stack
from repro.engine.context import ExecContext
from repro.engine.env import SimEnv
from repro.faults.media import MediaFaultModel
from repro.fs import STACKS
from repro.fs import flags as f
from repro.fs.scrub import LINES_PER_BLOCK, ScrubTask
from repro.nvmm.config import CACHELINE_SIZE, NVMMConfig

from tests.fs.conftest import PmfsRig


def attach(rig_or_fs):
    device = getattr(rig_or_fs, "device", None) or rig_or_fs.fs.device
    return device.attach_faults(MediaFaultModel(seed=0))


def data_blocks(fs, ino):
    return sorted(b for _fb, b in fs._map(ino).mapped_blocks())


def first_data_line(fs, ino):
    return data_blocks(fs, ino)[0] * LINES_PER_BLOCK


class TestPmfsScrubber:
    def test_clean_pass_scans_allocated_extents(self, rig):
        attach(rig)
        rig.vfs.write_file(rig.ctx, "/a", b"x" * 8192, sync=True)
        report = rig.fs.scrub(rig.ctx)
        assert report.clean
        assert report.bad_lines_found == 0
        assert report.scanned_lines > 0
        assert rig.env.stats.count("scrub_passes") == 1

    def test_superblock_line_repairs_in_place(self, rig):
        model = attach(rig)
        rig.vfs.write_file(rig.ctx, "/a", b"x" * 4096, sync=True)
        model.poison_line(0)
        report = rig.fs.scrub(rig.ctx)
        assert report.clean and report.repaired_lines == 1
        assert not model.bad_lines
        rig.remount()
        assert rig.vfs.read_file(rig.ctx, "/a") == b"x" * 4096

    def test_journal_line_heals_to_regenerable_state(self, rig):
        model = attach(rig)
        rig.vfs.write_file(rig.ctx, "/a", b"x" * 4096, sync=True)
        line = rig.fs.sb.journal_start * LINES_PER_BLOCK + 3
        model.poison_line(line)
        report = rig.fs.scrub(rig.ctx)
        assert report.clean and report.repaired_lines == 1
        rig.remount()  # journal scan must not trip on the healed slot
        assert rig.vfs.read_file(rig.ctx, "/a") == b"x" * 4096

    def test_live_journal_line_closes_its_transaction_first(self):
        """A slot between tail and head may be the only undo image of an
        open deferred transaction: zeroing it and then losing power
        would roll that transaction back by halves.  The scrubber
        closes the transactions up to the slot (and no younger one)."""
        from repro.core import HiNFS, HiNFSConfig

        rig = PmfsRig(fs_cls=HiNFS,
                      hconfig=HiNFSConfig(buffer_bytes=2 << 20))
        model = attach(rig)
        journal = rig.fs.journal
        fd = rig.vfs.open(rig.ctx, "/v", f.O_CREAT | f.O_RDWR)
        rig.vfs.pwrite(rig.ctx, fd, 0, b"v" * 5000)
        tx = journal.oldest_open  # its first entry: the pointer run's undo
        rig.vfs.write_file(rig.ctx, "/young", b"y" * 100)
        assert journal.open_transactions == 2
        model.poison_line(journal._slot_addr(tx.first) // CACHELINE_SIZE)
        report = rig.fs.scrub(rig.ctx)
        assert report.clean and report.repaired_lines == 1
        assert not tx.open and journal.open_transactions == 1
        rig.crash_and_remount()
        ino = rig.vfs.stat(rig.ctx, "/v").ino
        assert rig.vfs.stat(rig.ctx, "/v").size == 5000
        assert len(data_blocks(rig.fs, ino)) == 2
        assert rig.vfs.read_file(rig.ctx, "/v") == b"v" * 5000
        assert rig.vfs.stat(rig.ctx, "/young").size == 0  # rolled back

    def test_inode_table_line_repairs_from_mirror(self, rig):
        model = attach(rig)
        rig.vfs.write_file(rig.ctx, "/a", b"y" * 5000, sync=True)
        ino = rig.fs.lookup(rig.ctx, 1, "a")
        addr = rig.fs.itable.core_addr(ino)
        model.poison_line(addr // CACHELINE_SIZE)
        report = rig.fs.scrub(rig.ctx)
        assert report.clean and report.repaired_lines == 1
        rig.remount()
        assert rig.vfs.stat(rig.ctx, "/a").size == 5000
        assert rig.vfs.read_file(rig.ctx, "/a") == b"y" * 5000

    def test_lost_data_is_isolated_quarantined_and_reported(self, rig):
        model = attach(rig)
        rig.vfs.write_file(rig.ctx, "/a", b"z" * 8192, sync=True)
        ino = rig.fs.lookup(rig.ctx, 1, "a")
        old_block = data_blocks(rig.fs, ino)[0]
        line = old_block * LINES_PER_BLOCK + 3
        model.poison_line(line)
        report = rig.fs.scrub(rig.ctx)
        # PMFS has no DRAM copy of file data: the line is gone.  The
        # block's survivors are salvaged into a fresh block, the loss is
        # on the inode's errseq, and the bad block leaves circulation.
        assert report.clean
        assert report.isolated_lines == 1 and report.repaired_lines == 0
        assert report.quarantined_blocks == [old_block]
        assert old_block in rig.fs.balloc.quarantined
        assert data_blocks(rig.fs, ino)[0] != old_block
        assert rig.fs.wb_err.pending() == [ino]
        # Consume the deferred EIO (first close reports it, errseq-style)
        # so the content checks below read clean descriptors.
        from repro.fs.errors import MediaError

        fd = rig.vfs.open(rig.ctx, "/a", f.O_RDWR)
        with pytest.raises(MediaError):
            rig.vfs.close(rig.ctx, fd)
        got = rig.vfs.read_file(rig.ctx, "/a")
        assert got[3 * CACHELINE_SIZE:4 * CACHELINE_SIZE] == b"\0" * 64
        assert got[:3 * CACHELINE_SIZE] == b"z" * (3 * CACHELINE_SIZE)
        assert got[4 * CACHELINE_SIZE:] == b"z" * (8192 - 4 * 64)
        # The salvage is durable and the quarantine survives remount
        # reconstruction of the allocator.
        rig.remount()
        assert rig.vfs.read_file(rig.ctx, "/a") == got

    def test_lost_data_on_a_full_device_heals_in_place(self):
        """No free block to remap into: the block heals in place with
        the lost line zeroed, and the loss is still reported."""
        from repro.fs.errors import MediaError, NoSpace

        rig = PmfsRig(size=2 << 20)
        model = attach(rig)
        rig.vfs.write_file(rig.ctx, "/a", b"z" * 4096, sync=True)
        fd = rig.vfs.open(rig.ctx, "/a", f.O_RDWR)
        fill = rig.vfs.open(rig.ctx, "/fill", f.O_CREAT | f.O_RDWR)
        with pytest.raises(NoSpace):
            for n in range(rig.fs.sb.total_blocks):
                rig.vfs.pwrite(rig.ctx, fill, n * 4096, b"f" * 4096)
        assert rig.fs.balloc.free_count == 0
        ino = rig.fs.lookup(rig.ctx, 1, "a")
        (block,) = data_blocks(rig.fs, ino)
        model.poison_line(block * LINES_PER_BLOCK + 3)
        report = rig.vfs.scrub(rig.ctx)
        assert report.clean
        assert report.isolated_lines == 1 and report.quarantined_blocks == []
        assert data_blocks(rig.fs, ino) == [block]
        assert not model.bad_lines
        got = rig.vfs.pread(rig.ctx, fd, 0, 4096)
        assert got[3 * CACHELINE_SIZE:4 * CACHELINE_SIZE] == b"\0" * 64
        assert got[:3 * CACHELINE_SIZE] == b"z" * (3 * CACHELINE_SIZE)
        with pytest.raises(MediaError):
            rig.vfs.fsync(rig.ctx, fd)
        rig.vfs.fsync(rig.ctx, fd)  # reported once

    def test_pointer_block_rebuilds_from_mirror(self, rig):
        model = attach(rig)
        data = bytes(range(256)) * 208  # 13 blocks: needs the indirect
        rig.vfs.write_file(rig.ctx, "/big", data, sync=True)
        ino = rig.fs.lookup(rig.ctx, 1, "big")
        indirect = rig.fs.itable.get(ino).indirect
        assert indirect
        model.poison_line(indirect * LINES_PER_BLOCK + 1)
        report = rig.fs.scrub(rig.ctx)
        assert report.clean and report.repaired_lines == 1
        assert report.isolated_lines == 0
        rig.remount()
        assert rig.vfs.read_file(rig.ctx, "/big") == data

    def test_dirent_block_rebuilds_from_directory_mirror(self, rig):
        model = attach(rig)
        for name in ("a", "b", "c"):
            rig.vfs.write_file(rig.ctx, "/" + name, b"1", sync=True)
        root_block = data_blocks(rig.fs, 1)[0]
        model.poison_line(root_block * LINES_PER_BLOCK)
        report = rig.fs.scrub(rig.ctx)
        assert report.clean and report.repaired_lines == 1
        rig.remount()
        assert {name for name, _ in rig.vfs.readdir(rig.ctx, "/")} == \
            {"a", "b", "c"}
        assert rig.vfs.read_file(rig.ctx, "/a") == b"1"

    def test_free_block_is_healed_but_quarantined(self, rig):
        model = attach(rig)
        rig.vfs.write_file(rig.ctx, "/a", b"x" * 4096, sync=True)
        free_block = rig.fs.sb.total_blocks - 1
        model.poison_line(free_block * LINES_PER_BLOCK + 5)
        report = rig.fs.scrub(rig.ctx)
        assert report.clean
        assert report.quarantined_blocks == [free_block]
        assert free_block in rig.fs.balloc.quarantined


class TestHiNFSScrubber:
    def test_buffered_data_repairs_in_place(self):
        from repro.core.hinfs import HiNFS

        rig = PmfsRig(fs_cls=HiNFS)
        model = attach(rig)
        # A fresh lazy write: the write buffer holds a fully-valid DRAM
        # copy of the (already mapped) NVMM block.
        rig.vfs.write_file(rig.ctx, "/a", b"q" * 4096)
        ino = rig.fs.lookup(rig.ctx, 1, "a")
        assert rig.fs.buffer.lookup(ino, 0) is not None
        model.poison_line(first_data_line(rig.fs, ino) + 2)
        report = rig.fs.scrub(rig.ctx)
        assert report.clean
        assert report.repaired_lines == 1 and report.isolated_lines == 0
        assert rig.fs.wb_err.pending() == []  # nothing was lost
        assert rig.vfs.read_file(rig.ctx, "/a") == b"q" * 4096
        # The repair wrote the DRAM copy back: after an fsync persists
        # the metadata, the content is durable across remount.
        fd = rig.vfs.open(rig.ctx, "/a", f.O_RDWR)
        rig.vfs.fsync(rig.ctx, fd)
        rig.vfs.close(rig.ctx, fd)
        rig.remount()
        assert rig.vfs.read_file(rig.ctx, "/a") == b"q" * 4096

    def test_unbuffered_data_is_isolated(self):
        from repro.core.hinfs import HiNFS

        rig = PmfsRig(fs_cls=HiNFS)
        model = attach(rig)
        rig.vfs.write_file(rig.ctx, "/a", b"p" * 4096, sync=True)
        rig.fs.unmount(rig.ctx)  # drain the buffer: no DRAM copy left
        ino = rig.fs.lookup(rig.ctx, 1, "a")
        model.poison_line(first_data_line(rig.fs, ino))
        report = rig.fs.scrub(rig.ctx)
        assert report.clean
        assert report.isolated_lines == 1
        assert rig.fs.wb_err.pending() == [ino]


class TestExtScrubber:
    @pytest.mark.parametrize("fs_name", ["ext2-nvmmbd", "ext4-nvmmbd"])
    def test_cached_page_repairs_in_place(self, fs_name):
        env = SimEnv()
        fs, vfs = build_stack(env, fs_name, NVMMConfig(), 32 << 20)
        ctx = ExecContext(env, "t")
        model = fs.bdev.nvmm.attach_faults(MediaFaultModel(seed=0))
        vfs.write_file(ctx, "/a", b"c" * 4096, sync=True)
        ino = fs.lookup(ctx, 1, "a")
        disk = sorted(fs._inodes[ino].blocks.values())[0]
        model.poison_line(disk * LINES_PER_BLOCK + 7)
        report = fs.scrub(ctx)
        assert report.clean
        assert report.repaired_lines == 1 and report.isolated_lines == 0
        assert not model.bad_lines
        assert vfs.read_file(ctx, "/a") == b"c" * 4096

    def test_uncached_data_is_salvaged_and_remapped(self):
        env = SimEnv()
        fs, vfs = build_stack(env, "ext2-nvmmbd", NVMMConfig(), 32 << 20)
        ctx = ExecContext(env, "t")
        model = fs.bdev.nvmm.attach_faults(MediaFaultModel(seed=0))
        vfs.write_file(ctx, "/a", b"d" * 4096, sync=True)
        fs.unmount(ctx)
        fs.drop_caches()
        ino = fs.lookup(ctx, 1, "a")
        old_disk = sorted(fs._inodes[ino].blocks.values())[0]
        model.poison_line(old_disk * LINES_PER_BLOCK + 1)
        report = fs.scrub(ctx)
        assert report.clean
        assert report.isolated_lines == 1
        assert report.quarantined_blocks == [old_disk]
        assert old_disk in fs.balloc.quarantined
        assert sorted(fs._inodes[ino].blocks.values())[0] != old_disk
        assert fs.wb_err.pending() == [ino]
        from repro.fs.errors import MediaError

        fd = vfs.open(ctx, "/a", f.O_RDWR)
        with pytest.raises(MediaError):
            vfs.close(ctx, fd)
        got = vfs.read_file(ctx, "/a")
        assert got[CACHELINE_SIZE:2 * CACHELINE_SIZE] == b"\0" * 64
        assert got[:CACHELINE_SIZE] == b"d" * 64

    def test_reserved_metadata_heals(self):
        env = SimEnv()
        fs, vfs = build_stack(env, "ext2-nvmmbd", NVMMConfig(), 32 << 20)
        ctx = ExecContext(env, "t")
        model = fs.bdev.nvmm.attach_faults(MediaFaultModel(seed=0))
        vfs.write_file(ctx, "/a", b"m" * 4096, sync=True)
        model.poison_line(2)  # inside the reserved metadata region
        report = fs.scrub(ctx)
        assert report.clean and report.repaired_lines == 1
        assert not model.bad_lines


class TestPlumbing:
    @pytest.mark.parametrize("fs_name", list(STACKS) + ["hinfs@2"])
    def test_every_stack_scrubs_clean(self, fs_name):
        env = SimEnv()
        _, vfs = build_stack(env, fs_name, NVMMConfig(), 32 << 20)
        ctx = ExecContext(env, "t")
        vfs.write_file(ctx, "/a", b"s" * 8192, sync=True)
        report = vfs.scrub(ctx)
        assert report.clean and report.scanned_lines > 0

    def test_report_as_dict_round_trips(self, rig):
        attach(rig)
        rig.vfs.write_file(rig.ctx, "/a", b"x" * 4096, sync=True)
        d = rig.fs.scrub(rig.ctx).as_dict()
        assert d["clean"] and d["fs"] == rig.fs.name
        assert d["duration_ns"] >= 0

    def test_scrub_task_runs_on_interval_and_recovers_health(self, rig):
        model = attach(rig)
        rig.vfs.health.media_error_threshold = 1
        rig.vfs.write_file(rig.ctx, "/a", b"x" * 8192, sync=True)
        ino = rig.fs.lookup(rig.ctx, 1, "a")
        model.poison_line(first_data_line(rig.fs, ino))
        from repro.fs.errors import MediaError

        with pytest.raises(MediaError):
            rig.vfs.read_file(rig.ctx, "/a")
        assert not rig.vfs.health.writable
        task = rig.env.background.register(
            ScrubTask(rig.env, rig.vfs, interval_ns=1_000_000))
        rig.env.background.advance_to(2_500_000)
        assert rig.env.stats.count("scrub_runs") >= 2
        assert rig.vfs.health.writable  # recovery edge, no operator
        assert task.next_due_ns() == 3_000_000
