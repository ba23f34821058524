"""The fio op stream: one generator, three issue strategies.

``FioWorkload.ops`` is the only place an op is drawn.  These tests pin
(a) the drawn values, against literals recorded from the three separate
draw loops the generator replaced, and (b) that each class issues
exactly what the generator yields, in order, with the fsync pacing in
the same places -- so a shadow model replaying ``workload.rng(tid)`` in
the draw order (offset, then read-or-write) still reproduces the file
contents on a real stack.
"""

import pytest

from repro.bench.runner import run_workload
from repro.io import ring as uring
from repro.workloads.base import payload, prepare_context
from repro.workloads.fio import FioWorkload, RingFioWorkload
from repro.workloads.mmio import MmapFioWorkload

#: The first 64 ``(offset, is_read)`` draws of thread 0 at seed 42 with
#: the default geometry, recorded at the parent commit from what
#: ``FioWorkload`` / ``MmapFioWorkload`` (RNG key ``"fio"``) and
#: ``RingFioWorkload`` (key ``"fio-ring"``) issued to a recording VFS.
FIO_SEED42 = (
    (5257625, True), (5680721, False), (2715558, False), (1750451, False),
    (481777, False), (1566687, False), (5024605, False), (1105639, False),
    (5992688, True), (5495166, True), (7285071, True), (451755, False),
    (7447698, False), (4111384, True), (8005098, True), (7635985, True),
    (5458437, False), (5072963, False), (1529269, False), (412256, False),
    (728553, True), (6562553, False), (8243156, True), (5186171, False),
    (1909726, True), (8340620, False), (4154903, False), (5601981, False),
    (2287511, False), (1655096, False), (2760155, False), (2928322, False),
    (7034008, False), (3790121, False), (3159961, True), (2332160, False),
    (8057230, True), (6385214, False), (4037153, False), (619144, True),
    (5586336, False), (5326514, False), (3174142, False), (5510070, False),
    (4522776, False), (8316339, True), (7226740, True), (6674264, False),
    (2748059, False), (1177452, True), (897726, False), (132466, False),
    (7680650, True), (6141979, False), (7094848, False), (6406113, False),
    (3010204, False), (6483002, False), (1033385, True), (3037424, False),
    (6350608, False), (7234407, True), (4473499, False), (641056, False),
)

FIO_RING_SEED42 = (
    (7666183, False), (5050207, False), (6462632, False), (6418541, False),
    (5496076, True), (5231928, False), (5976495, False), (8374051, True),
    (4228860, False), (5217831, False), (5810862, True), (5709400, False),
    (5426181, True), (5896674, False), (5773015, False), (3145161, False),
    (2287533, False), (835833, False), (1062961, True), (3871536, False),
    (2559705, True), (6694170, True), (6850148, True), (3827644, False),
    (7609315, False), (3385208, False), (1385071, True), (338872, False),
    (3548908, True), (6650597, False), (4464091, False), (3788178, False),
    (3213400, False), (4746073, False), (5442972, True), (6425350, True),
    (7777264, True), (4808783, False), (3672160, True), (369678, False),
    (8323364, False), (3527143, False), (4037493, True), (5592188, True),
    (2532440, False), (3851559, False), (7566242, False), (4955248, False),
    (4631546, False), (6408605, True), (747266, True), (493644, False),
    (841405, False), (5283358, False), (3960554, False), (7802962, False),
    (5175161, False), (2858810, True), (1204541, False), (2250232, False),
    (6560905, False), (5463821, False), (5905020, False), (7218387, True),
)


KW = dict(seed=42, ops_per_thread=64, fsync_every=32)

CLASSES = {
    "sync": (FioWorkload, {}, FIO_SEED42),
    "ring": (RingFioWorkload, {"batch_depth": 16}, FIO_RING_SEED42),
    "mmap": (MmapFioWorkload, {}, FIO_SEED42),
}


class _Cqe:
    error = None


class Recorder:
    """Stands in for the VFS, the ring and a mapping: logs every op as
    ``(offset, is_read)``, a sync as ``"sync"``."""

    def __init__(self):
        self.log = []

    def open(self, ctx, path, flags=0):
        return 3

    def close(self, ctx, fd):
        pass

    def ring(self, ctx, sq_depth=0):
        return self

    def pread(self, ctx, fd, offset, count):
        self.log.append((offset, True))

    def load(self, ctx, offset, length):
        self.log.append((offset, True))

    def pwrite(self, ctx, fd, offset, data):
        self.log.append((offset, False))

    def store(self, ctx, offset, data):
        self.log.append((offset, False))

    def fsync(self, ctx, fd=None):
        self.log.append("sync")

    msync = fsync

    def submit_and_wait(self, batch):
        for sqe in batch:
            if sqe.op == uring.IORING_OP_FSYNC:
                self.log.append("sync")
            else:
                self.log.append((sqe.offset,
                                 sqe.op == uring.IORING_OP_READV))
        return [_Cqe() for _ in batch]


def issued(workload, tid=0):
    rec = Recorder()
    if isinstance(workload, MmapFioWorkload):
        workload.mappings[tid] = rec
    for _ in workload.make_thread_body(rec, tid)(None):
        pass
    return rec.log


@pytest.mark.parametrize("leg", sorted(CLASSES))
def test_issued_ops_match_the_parent_draws(leg):
    cls, extra, expected = CLASSES[leg]
    workload = cls(**extra, **KW)
    log = issued(workload)
    assert tuple(op for op in log if op != "sync") == expected
    # fsync=32: a sync right after op 32 and right after op 64.
    assert [i for i, op in enumerate(log) if op == "sync"] == [32, 65]
    # The generator is the single source: same values, same pacing.
    drawn = list(workload.ops(0))
    assert tuple((off, rd) for off, rd, _sync in drawn) == expected
    assert [i for i, (_o, _r, sync) in enumerate(drawn, 1) if sync] == \
        [32, 64]


def test_streams_are_per_thread_and_per_key():
    fio, ring, mm = (cls(threads=2, **extra, **KW)
                     for cls, extra, _ in (CLASSES["sync"], CLASSES["ring"],
                                           CLASSES["mmap"]))
    assert issued(fio, 1) == issued(mm, 1) != issued(fio, 0)
    assert issued(ring, 0) != issued(fio, 0)        # "fio-ring" != "fio"
    deep = RingFioWorkload(batch_depth=64, **KW)
    assert issued(deep) == issued(ring, 0)          # depth moves nothing
    assert not any(sync for *_op, sync in FioWorkload(seed=42).ops(0))


@pytest.mark.parametrize("leg", sorted(CLASSES))
def test_shadow_replay_of_rng_reproduces_the_files(leg):
    """perfbench's ``fio_shadow``, re-derived: replay ``workload.rng``
    in the draw order into a bytearray and compare with what a real
    pmfs stack holds after the run."""
    cls, extra, _ = CLASSES[leg]
    run_and_check(cls(threads=2, ops_per_thread=300, io_size=4096,
                      file_size=1 << 20, fsync_every=32, seed=7, **extra))


@pytest.mark.parametrize("log_blocks", [2, 8])
def test_mapped_stream_survives_autocommits(log_blocks):
    """A 4 KB store takes two log blocks, so neither log holds a 32-op
    epoch: the stream autocommits inside stores on every seed and must
    still read back the shadow bytes.  (With the default 8 blocks this
    once failed on 6 of 10 seeds: an autocommit reset the epoch's
    policy mid-store.)"""
    for seed in range(10):
        env = run_and_check(MmapFioWorkload(
            threads=2, ops_per_thread=150, io_size=4096, file_size=1 << 20,
            fsync_every=32, seed=seed, log_blocks=log_blocks))
        assert env.stats.count("mmio_autocommits") > 0, seed


def run_and_check(workload):
    """Run ``workload`` on pmfs, then compare every file with a replay of
    ``workload.rng`` in the draw order; returns the run's env."""
    stack = {}

    def setup(env, fs, vfs):
        stack.update(env=env, vfs=vfs)
        if isinstance(workload, MmapFioWorkload):
            workload.attach(env, fs, vfs)

    run_workload("pmfs", workload, device_size=16 << 20, setup=setup)
    ctx = prepare_context(stack["env"])
    for mapping in getattr(workload, "mappings", {}).values():
        mapping.msync(ctx)
    max_offset = workload.file_size - workload.io_size
    for tid in range(workload.threads):
        rng = workload.rng(tid)
        model = bytearray(payload(workload.file_size, tag=7))
        chunk = payload(workload.io_size, tag=tid + 1)
        for _ in range(workload.ops_per_thread):
            offset = rng.randrange(max_offset)
            if rng.random() >= workload.read_fraction:
                model[offset:offset + workload.io_size] = chunk
        assert stack["vfs"].read_file(ctx, workload.path(tid)) == model, \
            (workload.seed, tid)
    return stack["env"]
