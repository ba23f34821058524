"""The shard layer: one VFS mount fanned out over M NVMM devices.

Covers the global inode codec, parent-aware hash placement, namespace
ops through the unchanged VFS (including a rename to a name that hashes
to another shard, with open descriptors, and a power cut at every step
of a rename over a victim on another shard), remount reconciliation of
the mirrored directory skeleton, the per-device request/slot ledgers,
and that every media error on every shard -- synchronous, writeback,
or a failed recovery -- reaches the mount's one health FSM, which a
clean scrub recovers.
"""

import pytest

from repro.engine.context import ExecContext, FreeContext
from repro.engine.env import SimEnv
from repro.faults import FaultPlan, PowerCut
from repro.faults.media import MediaFaultModel
from repro.fs import flags as f
from repro.fs.base import ROOT_INO
from repro.fs.errors import MediaError, ReadOnly
from repro.fs.health import DEGRADED_RO, HEALTHY
from repro.fs.pmfs.layout import block_addr
from repro.fs.shard import (
    INTENT_LOG_NAME,
    XMV_STEPS,
    build_sharded,
    mount_sharded,
    shard_of,
)
from repro.fs.vfs import VFS
from repro.nvmm.config import CACHELINE_SIZE, NVMMConfig
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


# -- one health FSM per mount: every shard's errors reach the VFS's --------


def _local(rig, name):
    """``(shard, local ino)`` of the root entry ``name``."""
    return rig.fs._dec(rig.fs.lookup(rig.ctx, ROOT_INO, name))


def _degrade_shard(rig, shard, local_ino, errors=5):
    for _ in range(errors):  # default MountHealth threshold is 5
        rig.fs.shards[shard].note_wb_error(local_ino)


def test_writeback_errors_on_any_shard_degrade_the_mount():
    rig = ShardRig(nshards=2)
    names = [name_on(s, 2, prefix="h") for s in range(2)]
    fds = []
    for name in names:
        fds.append(rig.vfs.open(rig.ctx, "/" + name, f.O_CREAT | f.O_RDWR))
    sick = _local(rig, names[1])
    assert sick[0] == 1
    _degrade_shard(rig, 1, sick[1])
    assert rig.vfs.health.state == DEGRADED_RO
    assert rig.vfs.health.media_errors == 5
    # The whole mount is read-only: writes and creates on either shard
    # refuse...
    for fd in fds:
        with pytest.raises(ReadOnly):
            rig.vfs.pwrite(rig.ctx, fd, 0, b"no")
    for s in range(2):
        with pytest.raises(ReadOnly):
            rig.vfs.open(rig.ctx, "/" + name_on(s, 2, prefix="new"),
                         f.O_CREAT | f.O_RDWR)
    # ...while reads of either shard still serve (remount-ro posture).
    for fd in fds:
        assert rig.vfs.pread(rig.ctx, fd, 0, 4) == b""


def test_sync_and_async_errors_on_one_shard_feed_one_fsm():
    """Read EIOs surface through the VFS, writeback EIOs through the
    shard's hook: on one shard, both count toward the same threshold."""
    rig = ShardRig(base="hinfs", nshards=2)
    sick, well = name_on(1, 2, prefix="s"), name_on(0, 2, prefix="w")
    for name in (sick, well):
        rig.vfs.write_file(rig.ctx, "/" + name, b"d" * 4096, sync=True)
    shard, local = _local(rig, sick)
    assert shard == 1
    inner = rig.fs.shards[1]
    model = inner.device.attach_faults(MediaFaultModel(seed=0))
    block = sorted(b for _fb, b in inner._map(local).mapped_blocks())[0]
    rig.fs.unmount(rig.ctx)
    rig.fs.drop_caches()
    model.poison_line(block_addr(block) // CACHELINE_SIZE)
    for _ in range(3):
        with pytest.raises(MediaError):
            rig.vfs.read_file(rig.ctx, "/" + sick)
    assert rig.vfs.health.state == HEALTHY
    _degrade_shard(rig, 1, local, errors=2)
    assert rig.vfs.health.state == DEGRADED_RO
    assert rig.vfs.health.media_errors == 5
    with pytest.raises(ReadOnly):
        rig.vfs.write_file(rig.ctx, "/" + well, b"x")
    assert rig.vfs.read_file(rig.ctx, "/" + well) == b"d" * 4096


def test_a_shard_that_failed_recovery_degrades_the_mount():
    rig = ShardRig(nshards=2)
    keep = name_on(0, 2, prefix="k")
    rig.vfs.write_file(rig.ctx, "/" + keep, b"k" * 4096, sync=True)
    rig.vfs.unmount(rig.ctx)
    devices = [inner.device for inner in rig.fs.shards]
    model = devices[1].attach_faults(MediaFaultModel(seed=0))
    # Poison shard 1's journal header: its recovery cannot read the ring.
    model.poison_line(rig.fs.shards[1].journal.base_addr // CACHELINE_SIZE)
    for device in devices:
        device.crash()
    fs = mount_sharded(rig.env, devices, "pmfs", rig.config)
    assert fs.shards[0].degraded_reason is None
    assert fs.degraded_reason == fs.shards[1].degraded_reason is not None
    vfs = VFS(rig.env, fs, rig.config)
    assert vfs.health.state == DEGRADED_RO
    assert vfs.read_file(rig.ctx, "/" + keep) == b"k" * 4096
    with pytest.raises(ReadOnly):
        vfs.write_file(rig.ctx, "/" + name_on(0, 2, prefix="n"), b"x")


def test_scrub_recovers_a_degraded_sharded_mount():
    rig = ShardRig(nshards=2)
    name = name_on(1, 2, prefix="r")
    fd = rig.vfs.open(rig.ctx, "/" + name, f.O_CREAT | f.O_RDWR)
    rig.vfs.close(rig.ctx, fd)
    _degrade_shard(rig, 1, _local(rig, name)[1])  # outage opens at t=0
    assert rig.vfs.health.state == DEGRADED_RO
    assert rig.vfs.health.mttr_ns() is None  # still down: no MTTR
    rig.ctx.charge(750_000)
    report = rig.vfs.scrub(rig.ctx)  # no bad media lines -> clean pass
    assert report.clean
    assert rig.vfs.health.state == HEALTHY
    assert rig.vfs.health.mttr_ns() >= 750_000
    # Recovered means writable again.  The injected writeback errors
    # are still owed to the file exactly once (errseq semantics) ...
    fd = rig.vfs.open(rig.ctx, "/" + name, f.O_RDWR)
    with pytest.raises(MediaError):
        rig.vfs.fsync(rig.ctx, fd)
    rig.vfs.fsync(rig.ctx, fd)
    # ... and once reported, the mount serves writes like any other.
    rig.vfs.pwrite(rig.ctx, fd, 0, b"back")
    rig.vfs.close(rig.ctx, fd)
