"""``sync_iter`` is the one sync hook: two entrances, one behaviour.

``vfs.fsync(fd)`` and the below-VFS convenience ``fs.fsync(ctx, ino)``
both build an OP_SYNC request and ``submit`` it (``vfs.fdatasync(fd)``
and a ``datasync`` request submitted below the VFS likewise), so on
every stack they must do the same file-system work -- equal counter
deltas once the syscall layer's own counters are set aside -- and leave
the synced bytes on the media.
"""

import pytest

from repro.core.hinfs import HiNFS
from repro.engine.context import ExecContext
from repro.engine.env import SimEnv
from repro.fs.base import ROOT_INO
from repro.fs.ext4dax import Ext4Dax
from repro.fs.pmfs import PMFS
from repro.fs.shard import mount_sharded
from repro.io import OP_SYNC, IORequest
from repro.nvmm.device import NVMMDevice

from tests.fs import test_fdatasync

STACKS = ["pmfs", "hinfs", "ext4-dax", "ext2-nvmmbd", "ext4-nvmmbd",
          "hinfs@2"]

#: Counters the syscall layer owns; the fs hook never sees them.
ABOVE_THE_FS = ("vfs_syscall_entries", "ring_batches", "ring_sqes",
                "ring_cqes", "lock_acquisitions", "app_bytes_fsynced")

#: (offset, data): a pure overwrite (size stays clean, so fdatasync may
#: skip the metadata), then a write into fresh blocks that grows the file.
WRITES = [(0, b"o" * 4096), (8192, b"e" * 8192)]


class Rig(test_fdatasync.Rig):
    def __init__(self, fs_name):
        super().__init__(fs_name)
        self.fs_name = fs_name
        self.fd = self.settled_file()
        self.ino = self.fs.lookup(self.ctx, ROOT_INO, "f")

    def sync_below(self, call):
        """``call`` below the VFS: the request the syscall submits."""
        if call == "fsync":
            self.fs.fsync(self.ctx, self.ino)
        else:
            self.fs.submit(self.ctx, IORequest(
                self.env.next_req_id(), OP_SYNC, self.ino, (), 0,
                eager=True, datasync=True))

    def fs_deltas(self, sync):
        """Counter deltas of one ``sync()`` call, fs side only."""
        before = dict(self.env.stats.counters)
        sync()
        return {name: value - before.get(name, 0)
                for name, value in self.env.stats.counters.items()
                if value != before.get(name, 0)
                and name not in ABOVE_THE_FS}

    def power_cycle(self):
        """Cut the power, bring the stack back, return ``(fs, ctx)``.

        The NVMM stacks remount from the persistent image.  The block
        stacks keep their inodes in memory only (no on-disk format to
        mount), so there the device loses its volatile lines and the
        page cache is dropped: reads must come back from the media.
        """
        if self.fs_name.endswith("nvmmbd"):
            self.fs.bdev.crash()
            self.fs.drop_caches()
            return self.fs, self.ctx
        env = SimEnv()
        ctx = ExecContext(env, "after-crash")
        devices = []
        for inner in getattr(self.fs, "shards", [self.fs]):
            inner.device.crash()
            devices.append(NVMMDevice.on_region(
                env, self.config, inner.device.mem,
                domain=inner.device.domain))
        if "@" in self.fs_name:
            return mount_sharded(env, devices, "hinfs", self.config), ctx
        cls = {"pmfs": PMFS, "hinfs": HiNFS, "ext4-dax": Ext4Dax}
        return cls[self.fs_name].mount(env, devices[0], self.config), ctx


@pytest.mark.parametrize("call", ["fsync", "fdatasync"])
@pytest.mark.parametrize("fs_name", STACKS)
def test_below_vfs_sync_does_what_the_syscall_does(fs_name, call):
    above, below = Rig(fs_name), Rig(fs_name)
    expect = bytearray(b"s" * 8192)
    for offset, data in WRITES:
        expect[offset:offset + len(data)] = data
        for rig in (above, below):
            rig.vfs.pwrite(rig.ctx, rig.fd, offset, data)
        via_vfs = above.fs_deltas(
            lambda: getattr(above.vfs, call)(above.ctx, above.fd))
        via_fs = below.fs_deltas(
            lambda: below.sync_below(call))
        assert via_fs == via_vfs
    for rig in (above, below):
        fs, ctx = rig.power_cycle()
        ino = fs.lookup(ctx, ROOT_INO, "f")
        assert fs.getattr(ctx, ino).size == len(expect)
        assert fs.read(ctx, ino, 0, len(expect)) == bytes(expect)
