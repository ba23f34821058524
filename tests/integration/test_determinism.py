"""Bit-for-bit run determinism: same seed, same everything.

The whole simulation is a deterministic function of (workload seed,
configuration): two runs must produce identical statistics and an
identical trace spine: no decision may depend on the iteration order
of an unordered container.  This is the regression fence for "someone
iterated a set".
"""

import pytest

from repro.bench.runner import run_workload
from repro.core import HiNFSConfig
from repro.workloads.fio import FioWorkload, RingFioWorkload


def fingerprint(result):
    """Everything observable from one run, as comparable values."""
    stats = result.stats
    spans = tuple(
        (sp.req_id, sp.name, sp.layer, sp.thread, sp.start_ns, sp.end_ns,
         tuple(sp.phases), repr(sp.meta))
        for sp in result.trace.spans()
    )
    return {
        "ops": result.ops,
        "elapsed_ns": result.elapsed_ns,
        "counters": dict(stats.counters),
        "bytes_nvmm_w": stats.bytes_written_nvmm,
        "bytes_nvmm_r": stats.bytes_read_nvmm,
        "bytes_dram_w": stats.bytes_written_dram,
        "syscall_time_ns": dict(stats.syscall_time_ns),
        "syscall_counts": dict(stats.syscall_counts),
        "layer_time_ns": dict(stats.layer_time_ns),
        "spans": spans,
    }


def one_run(fs_name, seed=7):
    workload = FioWorkload(threads=4, ops_per_thread=60, io_size=4096,
                           file_size=256 << 10, read_fraction=1 / 3,
                           fsync_every=16, seed=seed)
    hc = HiNFSConfig(buffer_bytes=2 << 20)
    result = run_workload(fs_name, workload, device_size=32 << 20,
                          hinfs_config=hc, trace_capacity=1 << 14)
    return fingerprint(result)


def test_hinfs_runs_are_identical():
    a = one_run("hinfs")
    b = one_run("hinfs")
    for key in a:
        assert a[key] == b[key], "mismatch in %s" % key


def test_different_seeds_differ():
    """The fingerprint is sensitive enough to catch a changed run."""
    a = one_run("hinfs", seed=7)
    b = one_run("hinfs", seed=8)
    assert a["spans"] != b["spans"]


@pytest.mark.parametrize("fs_name", ["pmfs", "ext4-dax", "ext2-nvmmbd"])
def test_other_stacks_are_deterministic_too(fs_name):
    a = one_run(fs_name)
    b = one_run(fs_name)
    for key in a:
        assert a[key] == b[key], "mismatch in %s" % key


def one_ring_run(batch_depth, seed=7):
    workload = RingFioWorkload(batch_depth=batch_depth, threads=4,
                               ops_per_thread=60, io_size=4096,
                               file_size=256 << 10, read_fraction=1 / 3,
                               fsync_every=16, seed=seed)
    hc = HiNFSConfig(buffer_bytes=2 << 20)
    result = run_workload("hinfs", workload, device_size=32 << 20,
                          hinfs_config=hc, trace_capacity=1 << 14)
    return fingerprint(result)


@pytest.mark.parametrize("batch_depth", [1, 8])
def test_ring_batched_runs_are_identical(batch_depth):
    """Batched submission through the ring -- including its async fsync
    completions -- is as deterministic as the sync path."""
    a = one_ring_run(batch_depth)
    b = one_ring_run(batch_depth)
    for key in a:
        assert a[key] == b[key], "mismatch in %s" % key


def test_ring_depths_produce_the_same_data_plane():
    """Depth changes *when* T_syscall is paid, not what I/O happens: the
    op mix and NVMM traffic match across depths; only timing shifts."""
    a = one_ring_run(1)
    b = one_ring_run(8)
    assert a["ops"] == b["ops"]
    assert a["bytes_nvmm_w"] == b["bytes_nvmm_w"]
    assert a["counters"]["ring_sqes"] == b["counters"]["ring_sqes"]
    assert a["counters"]["ring_batches"] > b["counters"]["ring_batches"]


def make_room_run(seed=11):
    """Multi-block lazy writes over a 255-slot journal until ``begin``
    has made room on the foreground many times: the first code to walk
    ``PendingTx.blocks``, whose order decides which writer slot each
    block of the oldest transaction gets.  Returns a digest of
    everything observable."""
    import hashlib
    import random

    from repro.core import HiNFS
    from repro.fs import flags as f
    from tests.fs.conftest import PmfsRig

    rig = PmfsRig(fs_cls=HiNFS, journal_blocks=4,
                  hconfig=HiNFSConfig(buffer_bytes=4 << 20))
    journal = rig.fs.journal
    hook, flushed = journal.make_room, []
    journal.make_room = lambda ctx, limit: flushed.append(hook(ctx, limit))
    rng = random.Random(seed)
    for i in range(120):
        fd = rig.vfs.open(rig.ctx, "/f%d" % rng.randrange(24),
                          f.O_CREAT | f.O_RDWR)
        rig.vfs.pwrite(rig.ctx, fd, rng.randrange(8) * 4096,
                       bytes([i]) * rng.randrange(4096, 40_000))
        rig.vfs.close(rig.ctx, fd)
    assert sum(flushed) > 100 and max(flushed) > 1
    assert rig.env.stats.count("journal_wraps") >= 1
    digest = hashlib.sha256(repr((
        rig.ctx.now, flushed, sorted(rig.env.stats.counters.items()),
        rig.env.stats.bytes_written_nvmm)).encode())
    digest.update(rig.device.mem.persistent_snapshot())
    return digest.hexdigest()


def in_fresh_interpreter(function):
    """``function()``'s printed result, run in a fresh interpreter whose
    ``PYTHONHASHSEED`` (and heap layout, which is what a set of buffer
    blocks iterates by) differs from this process's randomised one."""
    import os
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), root]))
    out = subprocess.run(
        [sys.executable, "-c",
         "from tests.integration.test_determinism import %s;"
         " print(%s())" % (function.__name__, function.__name__)],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
        check=True)
    return out.stdout.strip()


def test_make_room_is_identical_across_hash_seeds():
    """Same seed, same run -- in this process twice, and in a fresh
    interpreter."""
    here = make_room_run()
    assert make_room_run() == here
    assert make_room_run(seed=12) != here
    assert in_fresh_interpreter(make_room_run) == here


def paced_reclaim_run(seed=5):
    """A fileserver loop over a 1 MB buffer (256 blocks): ~100 paced
    pressure wakes, each re-armed at its batch's end, with demand
    reclaims between them.  Returns
    a digest of the counters and the writer slots' final bookings --
    where each batch landed on which server."""
    import hashlib

    from repro.workloads.filebench import Fileserver

    workload = Fileserver(seed=seed, threads=2, files_per_thread=16,
                          duration_ops=60)
    hc = HiNFSConfig(buffer_bytes=1 << 20)
    result = run_workload("hinfs", workload, device_size=32 << 20,
                          hinfs_config=hc)
    counters = result.stats.counters
    assert counters["writeback_pressure_blocks"] > 50 * hc.reclaim_batch
    assert counters["writeback_demand_stalls"] > 0
    slots = result.fs.device.write_slots
    return hashlib.sha256(repr((
        result.elapsed_ns, sorted(counters.items()), slots.total_grants,
        [(server.starts, server.ends) for server in slots._servers],
    )).encode()).hexdigest()


def test_paced_reclaim_is_identical_across_hash_seeds():
    here = paced_reclaim_run()
    assert paced_reclaim_run() == here
    assert paced_reclaim_run(seed=6) != here
    assert in_fresh_interpreter(paced_reclaim_run) == here
