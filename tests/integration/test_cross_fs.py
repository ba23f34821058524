"""Cross-file-system equivalence: every stack must agree on the data.

The same randomly generated operation sequence is applied to all seven
file-system configurations; the observable state (file contents, sizes,
directory listings) must be identical, because the data plane is real
on every one of them.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.runner import FS_NAMES, build_stack
from repro.engine.context import ExecContext
from repro.engine.env import SimEnv
from repro.fs import flags as f
from repro.nvmm.config import NVMMConfig
from repro.workloads.base import payload


def build(fs_name):
    env = SimEnv()
    fs, vfs = build_stack(env, fs_name, NVMMConfig(), 48 << 20)
    return env, vfs, ExecContext(env, "t")


def apply_ops(vfs, ctx, ops):
    """Apply an op script; returns a list of observable results."""
    observations = []
    for op in ops:
        kind = op[0]
        if kind == "write":
            _, path, offset, data = op
            fd = vfs.open(ctx, path, f.O_CREAT | f.O_RDWR)
            vfs.pwrite(ctx, fd, offset, data)
            vfs.close(ctx, fd)
        elif kind == "read":
            _, path, offset, count = op
            if vfs.exists(ctx, path):
                fd = vfs.open(ctx, path, f.O_RDONLY)
                observations.append(vfs.pread(ctx, fd, offset, count))
                vfs.close(ctx, fd)
            else:
                observations.append(None)
        elif kind == "fsync":
            _, path = op
            if vfs.exists(ctx, path):
                fd = vfs.open(ctx, path, f.O_RDWR)
                vfs.fsync(ctx, fd)
                vfs.close(ctx, fd)
        elif kind == "unlink":
            _, path = op
            if vfs.exists(ctx, path):
                vfs.unlink(ctx, path)
        elif kind == "truncate":
            _, path, size = op
            if vfs.exists(ctx, path):
                vfs.truncate(ctx, path, size)
        elif kind == "stat":
            _, path = op
            if vfs.exists(ctx, path):
                observations.append(vfs.stat(ctx, path).size)
            else:
                observations.append(None)
    listing = sorted(name for name, _ in vfs.readdir(ctx, "/"))
    observations.append(listing)
    return observations


def random_ops(seed, count=60):
    rng = random.Random(seed)
    paths = ["/f%d" % i for i in range(6)]
    ops = []
    for _ in range(count):
        path = rng.choice(paths)
        roll = rng.random()
        if roll < 0.40:
            offset = rng.randrange(0, 20_000)
            ops.append(("write", path, offset,
                        payload(rng.randrange(1, 6000), rng.randrange(50))))
        elif roll < 0.65:
            ops.append(("read", path, rng.randrange(0, 25_000),
                        rng.randrange(1, 8000)))
        elif roll < 0.75:
            ops.append(("fsync", path))
        elif roll < 0.85:
            ops.append(("stat", path))
        elif roll < 0.93:
            ops.append(("truncate", path, rng.randrange(0, 15_000)))
        else:
            ops.append(("unlink", path))
    return ops


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_all_file_systems_agree(seed):
    ops = random_ops(seed)
    reference = None
    for fs_name in FS_NAMES:
        env, vfs, ctx = build(fs_name)
        observed = apply_ops(vfs, ctx, ops)
        if reference is None:
            reference = (fs_name, observed)
        else:
            assert observed == reference[1], (
                "%s disagrees with %s on seed %d"
                % (fs_name, reference[0], seed)
            )


@pytest.mark.parametrize("fs_name", FS_NAMES)
def test_unmount_remount_hinfs_pmfs_preserve_data(fs_name):
    if fs_name.startswith("ext"):
        pytest.skip("baseline models do not implement persistent remount")
    env, vfs, ctx = build(fs_name)
    ops = random_ops(99, count=40)
    before = apply_ops(vfs, ctx, ops)
    vfs.unmount(ctx)
    fs2 = type(vfs.fs).mount(env, vfs.fs.device, vfs.config)
    from repro.fs.vfs import VFS

    vfs2 = VFS(env, fs2, vfs.config)
    # Re-reading everything must match the pre-unmount observations'
    # final state: compare full contents of surviving files.
    for name, _ in vfs2.readdir(ctx, "/"):
        assert vfs2.read_file(ctx, "/" + name) == vfs.read_file(ctx, "/" + name)
    assert sorted(n for n, _ in vfs2.readdir(ctx, "/")) == before[-1]


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_hinfs_always_matches_pmfs(seed):
    """Property: HiNFS's buffered/merged read path is indistinguishable
    from PMFS's direct path for any op sequence."""
    ops = random_ops(seed, count=40)
    _, vfs_a, ctx_a = build("pmfs")
    _, vfs_b, ctx_b = build("hinfs")
    assert apply_ops(vfs_a, ctx_a, ops) == apply_ops(vfs_b, ctx_b, ops)


@pytest.mark.parametrize("fs_name", ["pmfs", "hinfs"])
def test_create_unlink_churn_reuses_the_freed_blocks(fs_name):
    """The blocks a file system ever touches follow its live data: 200
    short-lived 64 KB files over a two-file live set stay within one
    file's worth of the live peak (a rotating cursor sweeps 3 400)."""
    _, vfs, ctx = build(fs_name)
    fs = vfs.fs
    data = payload(65536)
    per_file = 16 + 1  # data blocks + the indirect pointer block
    live_peak = highest = 0
    for i in range(200):
        vfs.write_file(ctx, "/f%d" % i, data)
        live_peak = max(live_peak, fs.balloc.used_count)
        ino = vfs.stat(ctx, "/f%d" % i).ino
        highest = max(highest, *fs._map(ino).all_physical_blocks())
        if i >= 2:
            vfs.unlink(ctx, "/f%d" % (i - 2))
    assert live_peak == 3 * per_file + 1  # + the root directory's block
    assert highest < fs.balloc.first_block + live_peak + per_file
