"""NVMM media faults: EIO propagation, retries, degradation, errseq."""

import pytest

from repro.core import HiNFS, HiNFSConfig
from repro.engine.context import ExecContext
from repro.engine.env import SimEnv
from repro.engine.scheduler import Scheduler
from repro.faults.errseq import ErrseqMap
from repro.faults.media import MediaFaultModel
from repro.faults.plan import FaultPlan
from repro.fs import flags as f
from repro.fs.errors import FSError, MediaError, ReadOnly
from repro.fs.pmfs.layout import block_addr
from repro.fs.pmfs.pmfs import PMFS
from repro.fs.vfs import VFS
from repro.nvmm.config import CACHELINE_SIZE, NVMMConfig
from repro.nvmm.device import NVMMDevice


def build_pmfs(threshold=5, seed=0):
    env = SimEnv()
    config = NVMMConfig()
    device = NVMMDevice(env, config, 8 << 20)
    fs = PMFS(env, device, config, journal_blocks=8, inode_count=64)
    vfs = VFS(env, fs, config, media_error_threshold=threshold)
    model = device.attach_faults(MediaFaultModel(seed=seed))
    return env, config, device, fs, vfs, ExecContext(env, "t"), model


def build_hinfs(threshold=5, seed=0):
    env = SimEnv()
    config = NVMMConfig()
    device = NVMMDevice(env, config, 8 << 20)
    # Eager checker off: every write is buffered, so writeback (not the
    # write itself) is what meets the bad media.
    fs = HiNFS(env, device, config, journal_blocks=8, inode_count=64,
               hconfig=HiNFSConfig(buffer_bytes=256 << 10,
                                   enable_eager_checker=False))
    vfs = VFS(env, fs, config, media_error_threshold=threshold)
    model = device.attach_faults(MediaFaultModel(seed=seed))
    return env, config, device, fs, vfs, ExecContext(env, "t"), model


def data_line(fs, ino, file_block=0, line_in_block=0):
    """Cacheline index backing ``file_block`` of ``ino`` in NVMM."""
    nvmm_block = fs._maps[ino].get(file_block)
    assert nvmm_block is not None
    return block_addr(nvmm_block) // CACHELINE_SIZE + line_in_block


class TestSynchronousEIO:
    def test_read_of_poisoned_line_raises(self):
        env, config, device, fs, vfs, ctx, model = build_pmfs()
        fd = vfs.open(ctx, "/x", f.O_CREAT | f.O_RDWR)
        vfs.pwrite(ctx, fd, 0, b"a" * 8192)
        model.poison_line(data_line(fs, vfs._files[fd].ino))
        with pytest.raises(MediaError):
            vfs.pread(ctx, fd, 0, 100)
        assert model.read_errors == 1
        # The second block of the file is on good media: still served.
        assert vfs.pread(ctx, fd, 4096, 64) == b"a" * 64

    def test_write_to_poisoned_line_raises(self):
        env, config, device, fs, vfs, ctx, model = build_pmfs()
        fd = vfs.open(ctx, "/x", f.O_CREAT | f.O_RDWR)
        vfs.pwrite(ctx, fd, 0, b"a" * 4096)
        model.poison_line(data_line(fs, vfs._files[fd].ino))
        with pytest.raises(MediaError):
            vfs.pwrite(ctx, fd, 0, b"b" * 64)
        assert vfs.health.media_errors == 1

    def test_hinfs_fsync_hits_bad_writeback_target(self):
        env, config, device, fs, vfs, ctx, model = build_hinfs()
        fd = vfs.open(ctx, "/x", f.O_CREAT | f.O_RDWR)
        vfs.pwrite(ctx, fd, 0, b"a" * 4096)  # buffered in DRAM
        model.poison_line(data_line(fs, vfs._files[fd].ino))
        with pytest.raises(MediaError):
            vfs.fsync(ctx, fd)
        assert vfs.health.media_errors == 1

    def test_failed_pread_runs_once_and_counts_one_error(self):
        """A media error is retried once, at the device: the ring runs
        the failed SQE one time and the VFS counts one error."""
        env, config, device, fs, vfs, ctx, model = build_pmfs()
        fd = vfs.open(ctx, "/x", f.O_CREAT | f.O_RDWR)
        vfs.pwrite(ctx, fd, 0, b"a" * 4096)
        model.poison_line(data_line(fs, vfs._files[fd].ino))
        plan = FaultPlan(env)
        with pytest.raises(MediaError):
            vfs.pread(ctx, fd, 0, 100)
        assert [site for site, _key in plan.observed] == ["ring",
                                                          "ring:after"]
        assert model.read_errors == 1
        assert env.stats.count("vfs_media_errors") == 1
        assert vfs.health.media_errors == 1

    def test_error_carries_faulting_lines(self):
        env, config, device, fs, vfs, ctx, model = build_pmfs()
        fd = vfs.open(ctx, "/x", f.O_CREAT | f.O_RDWR)
        vfs.pwrite(ctx, fd, 0, b"a" * 4096)
        line = data_line(fs, vfs._files[fd].ino)
        model.poison_line(line)
        with pytest.raises(MediaError) as excinfo:
            vfs.pread(ctx, fd, 0, 64)
        assert line in excinfo.value.lines


class TestTransientRetry:
    def test_transient_fault_retried_with_backoff(self):
        env = SimEnv()
        config = NVMMConfig()
        device = NVMMDevice(env, config, 1 << 20)
        model = device.attach_faults(MediaFaultModel())
        ctx = ExecContext(env, "t")
        model.inject_transient(0, failures=2)
        before = ctx.now
        device.write_persistent(ctx, 0, b"z" * 64)
        # Two retries, exponential backoff: 1x + 2x the base backoff.
        assert model.retries == 2
        backoff = config.media_retry_backoff_ns * 3
        assert ctx.now - before >= backoff
        assert device.mem.read(0, 64) == b"z" * 64
        assert not model.bad_lines

    def test_exhausted_retries_mark_line_bad(self):
        env = SimEnv()
        config = NVMMConfig()
        device = NVMMDevice(env, config, 1 << 20)
        model = device.attach_faults(MediaFaultModel())
        ctx = ExecContext(env, "t")
        model.inject_transient(0, failures=config.media_retry_limit + 1)
        with pytest.raises(MediaError):
            device.write_persistent(ctx, 0, b"z" * 64)
        assert 0 in model.bad_lines
        # Nothing became durable: the guard runs before the data plane.
        assert device.mem.persistent_read(0, 64) == b"\0" * 64

    def test_background_flush_charges_only_the_device_backoff(self):
        """Transient faults that outlast the device's budget: the device
        retries and marks the line bad, and the writeback task records
        the loss without retrying a line that is now permanent."""
        def flush_with(fault):
            env, config, device, fs, vfs, ctx, model = build_hinfs()
            fd = vfs.open(ctx, "/x", f.O_CREAT | f.O_RDWR)
            vfs.pwrite(ctx, fd, 0, b"a" * 4096)
            ino = vfs._files[fd].ino
            fault(model, data_line(fs, ino), config)
            start = ctx.now
            fs.writeback.demand_reclaim(ctx)
            assert env.stats.count("hinfs_wb_media_errors") == 1
            assert fs.wb_err.pending() == [ino]
            with pytest.raises(MediaError):
                vfs.fsync(ctx, fd)
            vfs.fsync(ctx, fd)  # recorded once, reported once
            return (ctx.now - start,
                    env.stats.count("media_persist_errors"), config)

        # A permanent fault: one persist attempt, no backoff.
        permanent, attempts, _ = flush_with(
            lambda model, line, config: model.poison_line(line))
        assert attempts == 1
        exhausted, attempts, config = flush_with(
            lambda model, line, config: model.inject_transient(
                line, failures=config.media_retry_limit + 1))
        assert attempts == config.media_retry_limit + 1
        device_backoff = sum(config.media_retry_backoff_ns * 2 ** n
                             for n in range(config.media_retry_limit))
        assert exhausted - permanent == device_backoff


class TestRemountReadOnly:
    def test_threshold_flips_mount_read_only(self):
        env, config, device, fs, vfs, ctx, model = build_pmfs(threshold=3)
        fd = vfs.open(ctx, "/x", f.O_CREAT | f.O_RDWR)
        vfs.pwrite(ctx, fd, 0, b"a" * 8192)
        model.poison_line(data_line(fs, vfs._files[fd].ino))
        for _ in range(3):
            with pytest.raises(MediaError):
                vfs.pread(ctx, fd, 0, 64)
        assert not vfs.health.writable
        with pytest.raises(ReadOnly):
            vfs.pwrite(ctx, fd, 4096, b"b")
        with pytest.raises(ReadOnly):
            vfs.open(ctx, "/new", f.O_CREAT | f.O_RDWR)
        with pytest.raises(ReadOnly):
            vfs.rename(ctx, "/x", "/y")
        with pytest.raises(ReadOnly):
            vfs.unlink(ctx, "/x")
        # Reads of good media are still served on the read-only mount.
        assert vfs.pread(ctx, fd, 4096, 64) == b"a" * 64
        assert vfs.stat(ctx, "/x").size == 8192

    def test_degradation_does_not_crash_the_scheduler(self):
        env, config, device, fs, vfs, ctx, model = build_pmfs(threshold=2)
        setup = ExecContext(env, "setup")
        fd = vfs.open(setup, "/x", f.O_CREAT | f.O_RDWR)
        vfs.pwrite(setup, fd, 0, b"a" * 4096)
        model.poison_line(data_line(fs, vfs._files[fd].ino))

        outcomes = []

        def body(tctx, name):
            my_fd = vfs.open(tctx, "/x", f.O_RDWR)
            for _ in range(4):
                try:
                    vfs.pwrite(tctx, my_fd, 0, b"b" * 64)
                    outcomes.append((name, "ok"))
                except FSError as exc:
                    outcomes.append((name, type(exc).__name__))
            yield

        sched = Scheduler(env)
        for i in range(2):
            name = "w%d" % i
            sched.spawn(name, lambda c, n=name: body(c, n))
        sched.run()
        assert not vfs.health.writable
        kinds = {kind for _, kind in outcomes}
        assert "MediaError" in kinds and "ReadOnly" in kinds

    def test_failed_journal_recovery_mounts_read_only(self):
        env, config, device, fs, vfs, ctx, model = build_pmfs()
        vfs.write_file(ctx, "/keep", b"k" * 4096, sync=True)
        vfs.unmount(ctx)
        # Poison the journal header: recovery cannot even read the ring.
        model.poison_line(fs.journal.base_addr // CACHELINE_SIZE)
        device.crash()
        recovered = PMFS.mount(env, device, config)
        assert recovered.degraded_reason is not None
        vfs2 = VFS(env, recovered, config)
        assert not vfs2.health.writable
        assert vfs2.read_file(ctx, "/keep") == b"k" * 4096
        with pytest.raises(ReadOnly):
            vfs2.write_file(ctx, "/nope", b"x")


class TestScatter:
    def test_seeded_scatter_is_deterministic_and_sorted(self):
        a = MediaFaultModel(seed=3).scatter(5, 1000)
        b = MediaFaultModel(seed=3).scatter(5, 1000)
        assert a == b == sorted(set(a))
        assert len(a) == 5
        assert all(0 <= line < 1000 for line in a)
        assert MediaFaultModel(seed=4).scatter(5, 1000) != a

    def test_zero_lines_returns_empty(self):
        assert MediaFaultModel().scatter(0, 100) == []
        assert MediaFaultModel().scatter(0, 0) == []

    def test_rejects_more_lines_than_region(self):
        with pytest.raises(ValueError):
            MediaFaultModel().scatter(11, 10)

    def test_rejects_negative_arguments(self):
        with pytest.raises(ValueError):
            MediaFaultModel().scatter(-1, 10)
        with pytest.raises(ValueError):
            MediaFaultModel().scatter(1, -1)


class TestErrseq:
    def test_map_exactly_once_per_cursor(self):
        errs = ErrseqMap()
        c1 = errs.sample(7)
        errs.record(7)
        hit, c1 = errs.check(7, c1)
        assert hit
        hit, c1 = errs.check(7, c1)
        assert not hit
        assert errs.pending() == [7]

    def test_deferred_writeback_error_reported_once_per_fd(self):
        env, config, device, fs, vfs, ctx, model = build_hinfs()
        fd1 = vfs.open(ctx, "/x", f.O_CREAT | f.O_RDWR)
        fd2 = vfs.open(ctx, "/x", f.O_RDWR)
        vfs.pwrite(ctx, fd1, 0, b"a" * 4096)  # buffered, acknowledged
        ino = vfs._files[fd1].ino
        model.poison_line(data_line(fs, ino))
        # Background demand reclaim meets the bad line: the error is
        # recorded against the inode, nobody gets an exception.
        fs.writeback.demand_reclaim(ctx)
        assert env.stats.count("hinfs_wb_media_errors") == 1
        assert fs.wb_err.pending() == [ino]
        # fd1: the next fsync reports EIO exactly once...
        with pytest.raises(MediaError):
            vfs.fsync(ctx, fd1)
        vfs.fsync(ctx, fd1)  # ...and only once.
        # fd2 predates the error too: its close reports it (fd is gone
        # either way, like filp_close).
        with pytest.raises(MediaError):
            vfs.close(ctx, fd2)
        assert fd2 not in vfs._files
        # A descriptor opened after the error samples the current
        # sequence and reports nothing.
        fd3 = vfs.open(ctx, "/x", f.O_RDWR)
        vfs.fsync(ctx, fd3)
        vfs.close(ctx, fd3)

    def test_async_error_counts_toward_remount_ro(self):
        env, config, device, fs, vfs, ctx, model = build_hinfs(threshold=1)
        fd = vfs.open(ctx, "/x", f.O_CREAT | f.O_RDWR)
        vfs.pwrite(ctx, fd, 0, b"a" * 4096)
        model.poison_line(data_line(fs, vfs._files[fd].ino))
        fs.writeback.demand_reclaim(ctx)
        assert not vfs.health.writable
        with pytest.raises(ReadOnly):
            vfs.pwrite(ctx, fd, 4096, b"b")
