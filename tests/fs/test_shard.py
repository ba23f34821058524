"""The shard layer: one VFS mount fanned out over M NVMM devices.

Covers the global inode codec, parent-aware hash placement, namespace
ops through the unchanged VFS (including a rename to a name that hashes
to another shard, with open descriptors, and a power cut at every step
of a rename over a victim on another shard), remount reconciliation of
the mirrored directory skeleton, the per-device request/slot ledgers,
and -- the health satellite -- that one shard entering DEGRADED_RO
refuses writes to its own files only while the mount and every other
shard stay writable, with per-shard MTTR measurable after scrub
recovery.
"""

import pytest

from repro.engine.context import ExecContext, FreeContext
from repro.engine.env import SimEnv
from repro.faults import FaultPlan, PowerCut
from repro.fs import flags as f
from repro.fs.base import ROOT_INO
from repro.fs.errors import MediaError, ReadOnly
from repro.fs.health import DEGRADED_RO, HEALTHY
from repro.fs.shard import (
    INTENT_LOG_NAME,
    XMV_STEPS,
    build_sharded,
    mount_sharded,
    shard_of,
)
from repro.fs.vfs import VFS
from repro.nvmm.config import NVMMConfig
from repro.nvmm.device import NVMMDevice
from repro.workloads.base import payload


class ShardRig:
    """env + M domain'd devices + sharded fs + VFS + a test context."""

    def __init__(self, base="pmfs", nshards=2, size=8 << 20):
        self.env = SimEnv()
        self.config = NVMMConfig()
        self.base = base
        self.fs = build_sharded(self.env, base, self.config, size,
                                nshards=nshards)
        self.vfs = VFS(self.env, self.fs, self.config)
        self.ctx = ExecContext(self.env, "test")

    def remount(self):
        """Rebuild the whole sharded stack on every device's
        power-cycled media (clean images: unmount first for that)."""
        self.env = SimEnv()
        devices = []
        for s, inner in enumerate(self.fs.shards):
            inner.device.crash()
            devices.append(NVMMDevice.on_region(
                self.env, self.config, inner.device.mem,
                domain="dev%d" % s))
        self.fs = mount_sharded(self.env, devices, self.base, self.config)
        self.vfs = VFS(self.env, self.fs, self.config)
        self.ctx = ExecContext(self.env, "test")
        return self.fs


def name_on(shard, nshards, prefix="f", parent=ROOT_INO):
    """A root-entry name whose hash owner is ``shard``."""
    return next("%s%d" % (prefix, i) for i in range(10_000)
                if shard_of("%s%d" % (prefix, i), nshards,
                            parent=parent) == shard)


# -- inode number codec ----------------------------------------------------


@pytest.mark.parametrize("nshards", [1, 2, 4, 8])
def test_codec_round_trips_and_interleaves(nshards):
    rig = ShardRig(nshards=nshards, size=4 << 20)
    fs = rig.fs
    seen = set()
    for local in range(1, 65):
        for shard in range(nshards):
            gino = fs._enc(local, shard)
            assert fs._dec(gino) == (shard, local)
            assert gino not in seen
            seen.add(gino)
    # Shard 0's local root is the global root; at M=1 the codec is the
    # identity, so single-device golden results cannot shift.
    assert fs._enc(ROOT_INO, 0) == ROOT_INO
    if nshards == 1:
        assert all(fs._enc(local, 0) == local for local in range(1, 65))


def test_parent_aware_placement_spreads_same_name():
    # Hashing the bare name would pin every "/tNNNN/data" to one device;
    # keying on (parent gino, name) spreads them.
    owners = {shard_of("data", 4, parent=p) for p in range(1, 200)}
    assert owners == {0, 1, 2, 3}
    # Deterministic for a fixed key.
    assert shard_of("data", 4, parent=7) == shard_of("data", 4, parent=7)


# -- namespace through the unchanged VFS -----------------------------------


def test_create_write_read_across_shards():
    rig = ShardRig(nshards=2)
    names = [name_on(0, 2), name_on(1, 2)]
    for i, name in enumerate(names):
        fd = rig.vfs.open(rig.ctx, "/" + name, f.O_CREAT | f.O_RDWR)
        rig.vfs.pwrite(rig.ctx, fd, 0, bytes([i + 1]) * 3000)
        rig.vfs.fsync(rig.ctx, fd)
        rig.vfs.close(rig.ctx, fd)
    # Each file landed on its hash owner's device.
    for i, name in enumerate(names):
        gino = rig.fs.lookup(rig.ctx, ROOT_INO, name)
        assert rig.fs._dec(gino)[0] == i
        assert rig.vfs.read_file(rig.ctx, "/" + name) == bytes([i + 1]) * 3000
    # readdir merges the shards and hides the intent log.
    listing = [name for name, _ino in rig.vfs.readdir(rig.ctx, "/")]
    assert listing == sorted(names)
    assert INTENT_LOG_NAME not in listing


def test_mkdir_mirrors_and_rmdir_drops_all_mirrors():
    rig = ShardRig(nshards=2)
    free = FreeContext(rig.env)
    rig.vfs.mkdir(rig.ctx, "/sub")
    gino = rig.fs.lookup(rig.ctx, ROOT_INO, "sub")
    locals_ = rig.fs._dir_locals[gino]
    assert len(locals_) == 2
    for s, local in enumerate(locals_):
        assert rig.fs.shards[s].lookup(free, ROOT_INO, "sub") == local
    # Files inside the subdir place by (subdir gino, name).
    inner = name_on(1, 2, parent=gino)
    fd = rig.vfs.open(rig.ctx, "/sub/" + inner, f.O_CREAT | f.O_RDWR)
    rig.vfs.close(rig.ctx, fd)
    assert rig.fs._dec(rig.fs.lookup(rig.ctx, gino, inner))[0] == 1
    rig.vfs.unlink(rig.ctx, "/sub/" + inner)
    rig.vfs.rmdir(rig.ctx, "/sub")
    for s in range(2):
        assert rig.fs.shards[s].lookup(free, ROOT_INO, "sub") is None


def test_misplaced_file_found_by_probe_fallback():
    # A file parked on a non-owner shard (the residue of a rename to a
    # name that hashes elsewhere) must still resolve globally.
    rig = ShardRig(nshards=2)
    free = FreeContext(rig.env)
    name = name_on(1, 2)  # hash owner is shard 1 ...
    local = rig.fs.shards[0].create_file(free, ROOT_INO, name)  # ... on 0
    gino = rig.fs.lookup(rig.ctx, ROOT_INO, name)
    assert gino == rig.fs._enc(local, 0)
    assert rig.vfs.exists(rig.ctx, "/" + name)


def test_cross_hash_rename_keeps_the_inode_and_the_open_fd_serves_it():
    rig = ShardRig(nshards=2)
    src = name_on(0, 2, prefix="src")
    dst = name_on(1, 2, prefix="dst")
    fd = rig.vfs.open(rig.ctx, "/" + src, f.O_CREAT | f.O_RDWR)
    rig.vfs.pwrite(rig.ctx, fd, 0, b"m" * 5000)
    rig.vfs.fsync(rig.ctx, fd)
    gino = rig.fs.lookup(rig.ctx, ROOT_INO, src)
    assert rig.fs._dec(gino)[0] == 0
    rig.vfs.rename(rig.ctx, "/" + src, "/" + dst)
    # The new name hashes to shard 1, but the file stays on shard 0 with
    # its inode: lookup's probe fallback finds it there.
    assert rig.fs.lookup(rig.ctx, ROOT_INO, dst) == gino
    assert rig.vfs.stat(rig.ctx, "/" + dst).ino == gino
    assert not rig.vfs.exists(rig.ctx, "/" + src)
    # The open descriptor still names the file: reads and writes via
    # the old fd hit it, and the new name reads them back.
    assert rig.vfs.pread(rig.ctx, fd, 0, 5000) == b"m" * 5000
    rig.vfs.pwrite(rig.ctx, fd, 0, b"n" * 8)
    rig.vfs.close(rig.ctx, fd)
    assert rig.vfs.read_file(rig.ctx, "/" + dst)[:8] == b"n" * 8


# -- power cut at each step of a rename over a victim on another shard -------

#: Until the victim's unlink lands, recovery rolls the swap back; from
#: there on it rolls forward.
ROLLS_BACK = ("intent",)


@pytest.mark.parametrize("step", XMV_STEPS)
@pytest.mark.parametrize("base", ["pmfs", "hinfs"])
def test_power_cut_at_a_swap_step_recovers_to_exactly_one_name(base, step):
    rig = ShardRig(base=base)
    src = "/" + name_on(0, 2, prefix="src")
    dst = "/" + name_on(1, 2, prefix="dst")
    moved, replaced = payload(24 << 10, tag=7), payload(12 << 10, tag=13)
    rig.vfs.write_file(rig.ctx, src, moved, sync=True)
    rig.vfs.write_file(rig.ctx, dst, replaced, sync=True)
    gino = rig.vfs.stat(rig.ctx, src).ino
    assert rig.fs._dec(rig.vfs.stat(rig.ctx, dst).ino)[0] == 1
    plan = FaultPlan(rig.env).arm("xmv:" + step, crash=True)
    with pytest.raises(PowerCut) as cut:
        rig.vfs.rename(rig.ctx, src, dst)
    assert cut.value.site == "xmv:" + step
    holder = src if step in ROLLS_BACK else dst
    rig.remount()
    # Exactly one name reads the moved file back, under its own inode:
    # never both, never neither.
    assert rig.vfs.read_file(rig.ctx, holder) == moved
    assert rig.vfs.stat(rig.ctx, holder).ino == gino
    if holder == dst:
        assert not rig.vfs.exists(rig.ctx, src)
    else:
        # Rename-over never loses the name: rolled back, the destination
        # still resolves to the file it held.
        assert rig.vfs.read_file(rig.ctx, dst) == replaced
    # The cut leaves one intent for the remount to resolve.
    assert rig.env.stats.count("shard_intents_recovered") == plan.hits == 1


# -- mappings: one FileSystem.mmap hook, one registry per shard ---------------


@pytest.mark.parametrize("base", ["pmfs", "hinfs"])
@pytest.mark.parametrize("policy", [None, "undo", "redo"])
def test_mmap_of_a_file_on_a_later_shard(base, policy):
    """``ShardedFS.mmap`` decodes the global ino and maps on the owning
    device: stores are coherent with descriptor I/O through the global
    namespace and durable after msync across a power cut of all M."""
    rig = ShardRig(base=base, nshards=2)
    name = name_on(1, 2, prefix="m")
    rig.vfs.write_file(rig.ctx, "/" + name, b"x" * 8192)
    fd = rig.vfs.open(rig.ctx, "/" + name, f.O_RDWR)
    flags = 0 if policy is None else f.MAP_ATOMIC
    region = rig.vfs.mmap(rig.ctx, fd, flags=flags, policy=policy)
    shard, local = rig.fs._dec(rig.vfs.fstat(rig.ctx, fd).ino)
    assert shard == 1 and region.ino == local
    assert rig.fs.shards[1]._live_mappings(local) == [region]
    assert local not in rig.fs.shards[0]._mappings
    assert (region.log is None) == (policy is None)
    region.store(rig.ctx, 4000, b"ACROSS-A-BLOCK-BOUNDARY" * 8)
    assert rig.vfs.pread(rig.ctx, fd, 4000, 6) == b"ACROSS"
    region.msync(rig.ctx)
    rig.remount()
    data = rig.vfs.read_file(rig.ctx, "/" + name)
    assert data[4000:4000 + 184] == b"ACROSS-A-BLOCK-BOUNDARY" * 8
    assert data[:4000] == b"x" * 4000 and len(data) == 8192


@pytest.mark.parametrize("policy", [None, "undo"])
def test_rename_of_a_mapped_file_stays_on_its_shard(policy):
    """A live mapping addresses one local inode on one device; a rename
    whose new name hashes elsewhere leaves the file there (it becomes
    *misplaced*; lookup's probe finds it) and the mapping serves on."""
    rig = ShardRig(nshards=2)
    src = name_on(0, 2, prefix="src")
    dst = name_on(1, 2, prefix="dst")
    rig.vfs.write_file(rig.ctx, "/" + src, b"m" * 5000)
    fd = rig.vfs.open(rig.ctx, "/" + src, f.O_RDWR)
    gino = rig.vfs.fstat(rig.ctx, fd).ino
    flags = 0 if policy is None else f.MAP_ATOMIC
    region = rig.vfs.mmap(rig.ctx, fd, flags=flags, policy=policy)
    rig.vfs.rename(rig.ctx, "/" + src, "/" + dst)
    assert rig.fs.lookup(rig.ctx, ROOT_INO, dst) == gino
    region.store(rig.ctx, 0, b"STILL-MAPPED")
    region.munmap(rig.ctx)
    assert rig.vfs.read_file(rig.ctx, "/" + dst)[:12] == b"STILL-MAPPED"


# -- remount / reconciliation ----------------------------------------------


def test_remount_preserves_namespace_and_content():
    rig = ShardRig(nshards=2)
    names = [name_on(s, 2, prefix="p%d" % s) for s in range(2)]
    rig.vfs.mkdir(rig.ctx, "/d")
    for i, name in enumerate(names):
        fd = rig.vfs.open(rig.ctx, "/" + name, f.O_CREAT | f.O_RDWR)
        rig.vfs.pwrite(rig.ctx, fd, 0, bytes([0x40 + i]) * 2048)
        rig.vfs.fsync(rig.ctx, fd)
        rig.vfs.close(rig.ctx, fd)
    rig.fs.unmount(rig.ctx)
    rig.remount()
    listing = [name for name, _ino in rig.vfs.readdir(rig.ctx, "/")]
    assert listing == sorted(names + ["d"])
    for i, name in enumerate(names):
        assert rig.vfs.read_file(rig.ctx, "/" + name) \
            == bytes([0x40 + i]) * 2048


@pytest.mark.parametrize("base, switch", [
    ("hinfs-wb", "enable_eager_checker"), ("hinfs-nclfw", "enable_clfw")])
def test_remount_keeps_the_ablation_switched_off(base, switch):
    """Format and mount resolve the base name through one table.  (At
    the parent ``mount_sharded`` turned every ``hinfs-*`` base into
    plain HiNFS, so a crashed ablation stack came back without it.)"""
    rig = ShardRig(base=base, nshards=2)
    rig.vfs.write_file(rig.ctx, "/f", b"w" * 4096)
    rig.vfs.unmount(rig.ctx)
    for fs in (rig.fs, rig.remount()):
        assert fs.name == base + "@2"
        for inner in fs.shards:
            assert inner.name == base
            assert getattr(inner.hconfig, switch) is False
    assert rig.vfs.read_file(rig.ctx, "/f") == b"w" * 4096


def test_reconcile_repairs_missing_mirror_and_drops_orphan():
    rig = ShardRig(nshards=2)
    free = FreeContext(rig.env)
    rig.vfs.mkdir(rig.ctx, "/kept")
    gino = rig.fs.lookup(rig.ctx, ROOT_INO, "kept")
    locals_ = rig.fs._dir_locals[gino]
    # Sabotage: drop the shard-1 mirror of /kept (as if mkdir crashed
    # after shard 0 committed) and leave a shard-1-only orphan (as if
    # rmdir crashed after canonical shard 0 removed it).
    rig.fs.shards[1].rmdir(free, ROOT_INO, "kept", locals_[1])
    rig.fs.shards[1].mkdir(free, ROOT_INO, "ghost")
    rig.fs.unmount(rig.ctx)
    fs = rig.remount()
    free = FreeContext(rig.env)
    assert rig.env.stats.count("shard_mirrors_repaired") >= 1
    assert rig.env.stats.count("shard_orphans_dropped") >= 1
    listing = [name for name, _ino in rig.vfs.readdir(rig.ctx, "/")]
    assert listing == ["kept"]
    kept = fs.lookup(rig.ctx, ROOT_INO, "kept")
    for s, local in enumerate(fs._dir_locals[kept]):
        assert fs.shards[s].lookup(free, ROOT_INO, "kept") == local


# -- per-device ledgers ----------------------------------------------------


def test_per_device_ledgers_sum_exactly():
    rig = ShardRig(base="hinfs", nshards=4)
    for s in range(4):
        name = name_on(s, 4, prefix="led")
        fd = rig.vfs.open(rig.ctx, "/" + name,
                          f.O_CREAT | f.O_RDWR | f.O_SYNC)
        for i in range(3):
            rig.vfs.pwrite(rig.ctx, fd, i * 4096, b"L" * 4096)
        rig.vfs.close(rig.ctx, fd)
    stats = rig.env.stats
    reqs = [stats.count("sharded_reqs@dev%d" % s) for s in range(4)]
    grants = [stats.count("nvmm_slot_grants@dev%d" % s) for s in range(4)]
    assert all(n > 0 for n in reqs)
    assert sum(reqs) == stats.count("sharded_reqs_total")
    assert sum(grants) == stats.count("nvmm_slot_grants_total") > 0
    # Each device's ledger matches its own FCFSServers grant counter.
    pools = rig.env.resources()
    for s in range(4):
        assert grants[s] == pools["nvmm_write_slots@dev%d" % s].total_grants


# -- per-shard health (one shard degrading must not flip the mount) --------


def _degrade_shard(rig, shard, local_ino, errors=5):
    for _ in range(errors):  # default MountHealth threshold is 5
        rig.fs.shards[shard].note_wb_error(local_ino)


def test_one_shard_degraded_ro_keeps_the_rest_writable():
    rig = ShardRig(nshards=2)
    names = [name_on(s, 2, prefix="h") for s in range(2)]
    fds = []
    for name in names:
        fds.append(rig.vfs.open(rig.ctx, "/" + name, f.O_CREAT | f.O_RDWR))
    sick = rig.fs._dec(rig.fs.lookup(rig.ctx, ROOT_INO, names[1]))
    assert sick[0] == 1
    _degrade_shard(rig, 1, sick[1])
    assert rig.env.stats.count("shard_wb_errors@dev1") == 5
    assert rig.fs.shard_health[1].state == DEGRADED_RO
    assert rig.fs.shard_health[0].state == HEALTHY
    assert rig.fs.shard_states == [HEALTHY, DEGRADED_RO]
    assert rig.fs.aggregate_observable == DEGRADED_RO
    # The mount-level FSM did NOT flip: the VFS still admits writes...
    assert rig.vfs.health.writable
    # ...and shard 0 serves them, while shard 1 refuses its own.
    rig.vfs.pwrite(rig.ctx, fds[0], 0, b"ok")
    with pytest.raises(ReadOnly):
        rig.vfs.pwrite(rig.ctx, fds[1], 0, b"no")
    # Creates route by hash owner: a shard-1 name refuses, shard 0 works.
    with pytest.raises(ReadOnly):
        rig.vfs.open(rig.ctx, "/" + name_on(1, 2, prefix="new"),
                     f.O_CREAT | f.O_RDWR)
    fd = rig.vfs.open(rig.ctx, "/" + name_on(0, 2, prefix="new"),
                      f.O_CREAT | f.O_RDWR)
    rig.vfs.close(rig.ctx, fd)
    # Reads of the degraded shard still serve (remount-ro posture).
    assert rig.vfs.pread(rig.ctx, fds[1], 0, 4) == b""


def test_scrub_recovers_degraded_shard_with_per_device_mttr():
    rig = ShardRig(nshards=2)
    name = name_on(1, 2, prefix="r")
    fd = rig.vfs.open(rig.ctx, "/" + name, f.O_CREAT | f.O_RDWR)
    rig.vfs.close(rig.ctx, fd)
    local = rig.fs._dec(rig.fs.lookup(rig.ctx, ROOT_INO, name))[1]
    _degrade_shard(rig, 1, local)  # outage opens at t=0
    assert rig.fs.shard_mttr_ns() == [None, None]  # still down: no MTTR
    rig.ctx.charge(750_000)
    report = rig.fs.scrub(rig.ctx)  # no bad media lines -> clean pass
    assert report.clean
    assert rig.fs.shard_health[1].state == HEALTHY
    assert rig.fs.shard_states == [HEALTHY, HEALTHY]
    assert rig.fs.aggregate_observable == HEALTHY
    mttrs = rig.fs.shard_mttr_ns()
    assert mttrs[0] is None            # dev0 never degraded
    assert mttrs[1] is not None and mttrs[1] >= 750_000
    # Recovered means writable again.  The injected writeback errors
    # are still owed to the file exactly once (errseq semantics) ...
    fd = rig.vfs.open(rig.ctx, "/" + name, f.O_RDWR)
    with pytest.raises(MediaError):
        rig.vfs.fsync(rig.ctx, fd)
    # ... and once reported, the shard serves writes like any other.
    rig.vfs.pwrite(rig.ctx, fd, 0, b"back")
    rig.vfs.close(rig.ctx, fd)
