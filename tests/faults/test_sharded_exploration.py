"""The one crash explorer on the stacks the old allow-list hid: sharded
mounts (``base@M``) and the HiNFS ablations.

``SHARD_OPS`` drives the shard layer's two intent-logged rename
protocols; every crash state -- not just the protocol boundaries -- is
power-cycled across all M devices and held to the same invariants as a
single-device stack.  Each protocol's recovery method gets a negative
control: with it turned into a no-op the explorer must report, on code
nothing else in the suite reaches at persist granularity.
"""

import pytest

from repro.faults.crashpoints import (
    DEFAULT_OPS,
    SHARD_OPS,
    CrashPointExplorer,
)
from repro.fs.shard import ShardedFS, shard_of

#: Small devices: every state restores all M of them before it mounts.
SAMPLES = {"seed": 3, "eviction_samples_per_op": 4, "torn_samples_per_op": 4,
           "device_bytes": 1 << 20}

#: recovery method -> the slice of SHARD_OPS that drives its protocol.
PROTOCOLS = {
    "_recover_dirmv": SHARD_OPS[:3],
    "_recover_swap": SHARD_OPS[3:6],
}


@pytest.mark.parametrize("nshards", [2, 4])
def test_shard_ops_names_hash_where_the_sequence_needs_them(nshards):
    for op in SHARD_OPS:
        for path in op[1:3]:
            if isinstance(path, str) and path.count("/") == 1 \
                    and path[-1].isdigit():
                assert shard_of(path[1:], nshards) == int(path[-1]) % 2, path
    # /d/f hashes under /d's global inode number: ask a real mount.
    explorer = CrashPointExplorer("pmfs@%d" % nshards)
    _shards, vfs, ctx = explorer._stack(None, "placement", journal_blocks=8,
                                        inode_count=64)
    for index, op in enumerate(SHARD_OPS[:2]):
        explorer._execute(vfs, ctx, op, index)
    assert vfs.fs._dec(vfs.stat(ctx, "/d/f").ino)[0] == 1


@pytest.mark.parametrize("method", sorted(PROTOCOLS))
def test_negative_control_recovery_turned_off_is_caught(method, monkeypatch):
    ops = PROTOCOLS[method]
    clean = CrashPointExplorer("pmfs@2", **SAMPLES).explore(ops)
    clean.raise_if_failed()
    assert clean.states_checked > 0
    monkeypatch.setattr(ShardedFS, method, lambda self, free, rec: None)
    # Reports; never raises out of explore().
    broken = CrashPointExplorer("pmfs@2", **SAMPLES).explore(ops)
    assert broken.failures, "%s as a no-op went undetected" % method
    assert broken.states_checked == clean.states_checked
    if method == "_recover_dirmv":
        # A half-moved directory mirror reads as ENOTDIR: the probe's
        # failure is that state's finding, not the exploration's abort.
        assert any("readdir(/d) failed: NotADirectory" in v.message
                   for v in broken.failures)


def test_same_seed_same_report():
    ops = SHARD_OPS[3:6]
    a = CrashPointExplorer("hinfs@2", **SAMPLES).explore(ops)
    b = CrashPointExplorer("hinfs@2", **SAMPLES).explore(ops)
    assert a.as_dict() == b.as_dict()
    assert a.as_dict()["fs_kind"] == "hinfs@2"
    assert a.as_dict()["violations"] == []
    # One rename over a victim on the other shard reaches every step.
    assert [site for site in a.sites if site.startswith("xmv:")] == [
        "xmv:intent", "xmv:linked", "xmv:victim-unlinked"]


@pytest.mark.parametrize("fs_kind", ["hinfs-wb", "hinfs-nclfw", "hinfs-wb@2"])
def test_every_pmfs_layout_stack_of_the_table_explores_clean(fs_kind):
    report = CrashPointExplorer(fs_kind, **SAMPLES).explore(DEFAULT_OPS)
    report.raise_if_failed()
    assert report.fs_kind == fs_kind and report.states_checked > 0


@pytest.mark.parametrize("fs_kind", ["ext4-dax", "ext4", "pmfs@x"])
def test_other_stacks_are_refused_by_the_stack_table(fs_kind):
    with pytest.raises(ValueError):
        CrashPointExplorer(fs_kind)
