"""Python frames per syscall, counted -- a perf guard with no wall clock.

Host time in this simulator is mostly interpreter frames, so the number
of Python ``call`` events one syscall raises is a deterministic proxy
for its cost; ``tools/calls.py`` counts them and prints the warm 4 KB
rows.  The ceilings sit about 5 % above what the tree achieves:

- pmfs, a warm 4 KB overwrite / pread / fsync: 44 / 27 / 26 over
  42 / 26 / 25 (46 / 31 / 25 before a request's blocks went to the
  device's run-shaped store and load bodies).  Before a data
  syscall's trip from the ring to the fs became one frame
  (``VFS.execute`` running the request pipeline, the
  inode lock's one ``acquire``/``release`` pair, no untraced ``fs``
  phase, ``PMFS.submit`` dispatching to its hook in the same frame, the
  counters bumped in place), they raised 60 / 44 / 38, through
  ``execute_one -> _dispatch -> execute -> _submit -> PMFS.submit ->
  FileSystem.submit``.  Before the journal's one-line entries went
  through the device's line kernel, and the inode lock, syscall span
  and untraced phase lost their helper frames, 96 / 57 / 48 (the
  two-step persist path made the overwrite 131); before the slot wait
  was booked in ``_persist_lines``'s frame, the read guard ran only
  with a fault model and the read branch's negative-count check lost
  its generator, 61 / 47 / 38.
- a pmfs ``MAP_ATOMIC`` mapping, 4 KB at byte 1000 (two blocks), as
  ``tools/calls.py`` counts it: redo store / load / msync / one applier
  wake 13 / 13 / 26 / 5 over 12 / 12 / 25 / 5, undo store / load /
  msync 32 / 13 / 43 over 30 / 12 / 41.  Before the mapping's entry
  dropped its span object and took its mutex inline, and the store,
  load, log append and applier wake bound their lookups once, they
  raised 38 / 30 / 34 / 9 and 66 / 30 / 57.
- hinfs, the 64 KB append / fsync of 16 buffered blocks / 128 KB
  buffered read: 151 / 143 / 162 over 144 / 136 / 154 (the fsync and
  the read were 168 / 185 before writeback stored through the device's
  run body and a read looked its blocks up in the file's buffer index;
  158 / 181 / 198 before the one-frame syscall path).  Before a
  request's run of fresh blocks was admitted in one pass (one DRAM
  ``alloc_many``, one ``admit_run``, the ghost stamps in one
  ``record_run``) and a flushed batch released in one pass (one
  ``_complete_pending`` walk, one ``evict_many``, one ``free_many``),
  the append and the fsync raised 402 / 319 (456 / 355 before the
  whole-block fast paths; the per-block bookkeeping those replaced cost
  755, 535 and 375).
- ``tools/calls.py``'s lifecycle table: the unlink of a file holding 16
  buffered blocks, 135 over 129 on hinfs (130 before the one-frame
  syscall path, 286 when each block was discarded, evicted and freed on
  its own) and 122 over 116 on pmfs (117; 151 with a ``free`` per
  block), and pmfs's 64 KB append over fresh blocks, 97 over 92 (171
  with a persist call per block; 185 before the one-frame syscall path;
  233 with an ``alloc`` and a zeroing store per block).
- a warm 64 KB ``pread`` of NVMM-resident blocks: 28 on hinfs and 27 on
  pmfs over 27 / 26 (153 / 121 with a device load -- and on hinfs a
  buffer lookup and a helper -- per block).
- ``tools/calls.py``'s workload table, frames per op of perfbench's
  simulated-thread cases in ``--quick`` shape at seed 42, untraced:
  ``fio-sync`` 47.1 over 44.83, ``fio-ring`` 46.9 over 44.66,
  ``fileserver`` 206.6 over 196.76 and ``serve-tenants`` 68.3 over
  65.04 (53.96 / 53.68 / 231.95 / 91.62 before the run-shaped device
  bodies and the one-frame writer-slot booking; 68.03 / 67.81 / 247.39
  / 106.08 before the one-frame syscall path).  ``fio-mmap``'s stores
  bypass the VFS and the ring, so its ceiling is its count, 30.66
  (31.64 before the booking moved into ``FCFSServers.grant``): a frame
  on the syscall path that shows there has leaked into the mapped path.
- an unaligned 16 KB O_SYNC overwrite: 57 on hinfs and 58 on hinfs@2
  over 54 / 55 (72 / 73 with a persist call per block, 87 / 88 before
  the one-frame syscall path, 127 / 128
  before the run-granular change; a buffer lookup, a block-address, a
  line-count and a persist helper and a counter bump per block, the
  barrier's flush of an empty list and the undo capture
  loop around the inode core's one journal entry made it 166 and 186).

Ceilings, not equalities, so interpreter versions that inline
comprehensions or a harmless extra helper do not flip them, while a
lost fast path does.
"""

import importlib.util
import os

import pytest

from repro.bench.runner import build_stack
from repro.core import HiNFSConfig
from repro.core.bitmap import FULL_MASK
from repro.engine.context import ExecContext
from repro.engine.env import SimEnv
from repro.fs import flags as f
from repro.fs import make_fs
from repro.fs.vfs import VFS
from repro.nvmm.config import NVMMConfig
from repro.nvmm.device import NVMMDevice


_PATH = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                     "tools", "calls.py")
_spec = importlib.util.spec_from_file_location("calls", _PATH)
calls = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(calls)
_python_calls = calls.python_calls


#: Lifecycle ceilings (see the module docstring).
APPEND_HINFS, FSYNC_HINFS, UNLINK_HINFS = 151, 143, 135
APPEND_PMFS, UNLINK_PMFS = 97, 122
#: Frames per op of each perfbench workload (see the module docstring).
WORKLOAD_CEILINGS = {"fio-sync": 47.1, "fio-ring": 46.9, "fio-mmap": 30.66,
                     "fileserver": 206.6, "serve-tenants": 68.3}


def _open_file(fs_name):
    """Untraced stack, no fault model, no observer."""
    env = SimEnv()
    _, vfs = build_stack(env, fs_name, NVMMConfig(), 32 << 20)
    ctx = ExecContext(env, "app")
    return vfs, ctx, vfs.open(ctx, "/f", f.O_CREAT | f.O_RDWR)


@pytest.fixture(scope="module")
def pmfs_frames():
    return calls.syscall_frames("pmfs")


@pytest.fixture(scope="module")
def mapped_frames():
    return {policy: calls.mapped_frames(policy) for policy in calls.POLICIES}


def test_overwriting_4k_pwrite_on_pmfs_stays_under_its_frame_ceiling(
        pmfs_frames):
    """One journal transaction: an undo entry, the inode core, the
    commit -- three line-kernel persists."""
    assert pmfs_frames["pwrite"] <= 44


@pytest.mark.parametrize("syscall,ceiling", [("pread", 27), ("fsync", 26)])
def test_warm_4k_pread_and_fsync_on_pmfs_stay_under_their_frame_ceilings(
        pmfs_frames, syscall, ceiling):
    """Little more than the fixed per-request path every syscall shares:
    the SQE, ``VFS.execute`` with its syscall span, entry charge and
    inode lock, and ``PMFS.submit``."""
    assert pmfs_frames[syscall] <= ceiling


@pytest.mark.parametrize("policy,op,ceiling", [
    ("redo", "store", 13), ("redo", "load", 13), ("redo", "msync", 26),
    ("redo", "wake", 5),
    ("undo", "store", 32), ("undo", "load", 13), ("undo", "msync", 43)])
def test_mapped_4k_ops_on_pmfs_stay_under_their_frame_ceilings(
        mapped_frames, policy, op, ceiling):
    """Library mode: no syscall path, so the mapping's own entry, its
    epoch-log append and the applier's wake are all there is.  A redo
    store is one entry append and an index update; a wake is one chunk
    through ``write_persistent``."""
    assert mapped_frames[policy][op] <= ceiling


def test_64k_append_on_hinfs_stays_under_its_frame_ceiling():
    vfs, ctx, fd = _open_file("hinfs")
    vfs.pwrite(ctx, fd, 0, b"a" * 65536)
    chunk = b"b" * 65536
    assert _python_calls(lambda: vfs.pwrite(ctx, fd, 65536, chunk)) \
        <= APPEND_HINFS


def test_16_block_fsync_on_hinfs_stays_under_its_frame_ceiling():
    vfs, ctx, fd = _open_file("hinfs")
    vfs.pwrite(ctx, fd, 0, b"a" * 65536)
    ino = vfs.fstat(ctx, fd).ino
    assert len(vfs.fs.buffer.file_blocks(ino)) == 16
    assert _python_calls(lambda: vfs.fsync(ctx, fd)) <= FSYNC_HINFS
    assert vfs.fs.buffer.file_blocks(ino) == []


@pytest.mark.parametrize("fs_name,op,ceiling", [
    ("hinfs", "unlink", UNLINK_HINFS), ("pmfs", "unlink", UNLINK_PMFS),
    ("pmfs", "append", APPEND_PMFS)])
def test_a_files_blocks_cost_one_pass_per_request(fs_name, op, ceiling):
    """``tools/calls.py``'s lifecycle table: the unlink of a file whose
    16 blocks sit in the DRAM buffer (hinfs discards them) or on NVMM
    (pmfs frees them), and pmfs's 64 KB append over 16 fresh blocks."""
    assert calls.lifecycle_frames(fs_name)[op] <= ceiling


def test_an_unlink_discards_the_buffered_blocks_it_is_measured_on():
    vfs, ctx, fd = _open_file("hinfs")
    vfs.pwrite(ctx, fd, 0, b"a" * 65536)
    vfs.close(ctx, fd)
    vfs.unlink(ctx, "/f")
    assert vfs.env.stats.count("hinfs_discarded_blocks") == 16
    assert vfs.fs.buffer.used_blocks == 0


def test_buffered_128k_read_on_hinfs_stays_under_its_frame_ceiling():
    vfs, ctx, fd = _open_file("hinfs")
    vfs.pwrite(ctx, fd, 0, b"a" * 131072)
    ino = vfs.fstat(ctx, fd).ino
    assert all(b.bitmap.valid == FULL_MASK
               for b in vfs.fs.buffer.file_blocks(ino))
    vfs.pread(ctx, fd, 0, 4096)  # warm: the read ring entry
    assert _python_calls(lambda: vfs.pread(ctx, fd, 0, 131072)) <= 162


@pytest.mark.parametrize("fs_name,ceiling", [("hinfs", 28), ("pmfs", 27)])
def test_nvmm_resident_64k_read_stays_under_its_frame_ceiling(fs_name,
                                                               ceiling):
    """Sixteen blocks written back and out of the buffer: one device
    pass over the run, not a load per block."""
    vfs, ctx, fd = _open_file(fs_name)
    vfs.pwrite(ctx, fd, 0, b"a" * 65536)
    vfs.fsync(ctx, fd)
    if fs_name == "hinfs":
        assert vfs.fs.buffer.file_blocks(vfs.fstat(ctx, fd).ino) == []
    vfs.pread(ctx, fd, 0, 4096)  # warm: the read ring entry
    assert _python_calls(lambda: vfs.pread(ctx, fd, 0, 65536)) <= ceiling


@pytest.mark.parametrize("fs_name,ceiling", [("hinfs", 57), ("hinfs@2", 58)])
def test_unaligned_16k_osync_overwrite_stays_under_its_frame_ceiling(
        fs_name, ceiling):
    """Five blocks, two of them partial, straight to NVMM: the eager
    path, and on hinfs@2 the shard layer's routing too."""
    env = SimEnv()
    _, vfs = build_stack(env, fs_name, NVMMConfig(), 32 << 20)
    ctx = ExecContext(env, "app")
    fd = vfs.open(ctx, "/f", f.O_CREAT | f.O_RDWR | f.O_SYNC)
    vfs.pwrite(ctx, fd, 0, b"a" * 65536)
    vfs.pwrite(ctx, fd, 1000, b"b" * 16384)  # warm: ring, lock table
    chunk = b"c" * 16384
    assert _python_calls(lambda: vfs.pwrite(ctx, fd, 1000, chunk)) \
        <= ceiling


@pytest.mark.parametrize("name", calls.WORKLOADS)
def test_each_perfbench_workload_stays_under_its_frames_per_op_ceiling(name):
    """A whole workload's measured phase, op mix and scheduler included:
    what a per-syscall row cannot show, e.g. a frame on the ring's batch
    path or in a shard's routing."""
    assert calls.workload_frames(name) <= WORKLOAD_CEILINGS[name]


@pytest.mark.parametrize("fs_name,ceiling", [("pmfs", 100), ("hinfs", 150)])
def test_recovered_mount_cost_does_not_follow_the_table_sizes(fs_name,
                                                              ceiling):
    """A warm recovered mount of a freshly formatted image at the default
    geometry -- 16 383 journal slots and 2 048 inodes on this device --
    raises 76 calls on pmfs and 122 on hinfs.  Five frames per inode
    slot, free or not, made it 10 311 and 10 357."""
    config = NVMMConfig()
    fs, _vfs = build_stack(SimEnv(), fs_name, config, 32 << 20)

    def recovered_mount():
        fs.device.crash()
        env = SimEnv()
        device = NVMMDevice.on_region(env, config, fs.device.mem)
        return lambda: make_fs(env, fs_name, device, config, mount=True)

    recovered_mount()()  # warm: the second mount's ring is all stale
    assert _python_calls(recovered_mount()) <= ceiling


@pytest.mark.parametrize("fs_name,entries,grants",
                         [("pmfs", 7, 27), ("hinfs", 6, 10)])
def test_fresh_64k_write_journals_its_pointer_runs_as_ranges(
        fs_name, entries, grants):
    """Foreground persists, counted: the 16 fresh blocks are the run of
    12 direct slots (96 bytes: 3 undo entries, 1 flush), the indirect
    root (1 + 1) and the run of 4 indirect slots (1 + 1), then the
    inode core (1 + 1).  pmfs adds its commit entry and a grant per
    data block (7 entries, 27 grants); hinfs defers the commit and
    buffers the data (6 and 10).  An entry and a flush per pointer made
    it 19 / 53 and 18 / 36."""
    env = SimEnv()
    fs, vfs = build_stack(env, fs_name, NVMMConfig(), 16 << 20)
    ctx = ExecContext(env, "app")
    fd = vfs.open(ctx, "/f", f.O_CREAT | f.O_RDWR)
    head = fs.journal.head
    granted = fs.device.write_slots.total_grants
    vfs.pwrite(ctx, fd, 0, b"a" * 65536)
    assert fs.journal.head - head <= entries
    assert fs.device.write_slots.total_grants - granted <= grants


def test_a_fileserver_loop_needs_no_journal_relief_under_half_a_ring():
    """Create / append / delete over a fileset larger than the buffer,
    long enough for the head to pass the last slot: the reclaim that the
    buffer forces anyway keeps the tail moving, so while the ring is
    under half full nothing is written back for the journal's sake --
    wherever the head happens to sit."""
    env = SimEnv()
    fs = make_fs(env, "hinfs", NVMMDevice(env, NVMMConfig(), 32 << 20),
                 NVMMConfig(), HiNFSConfig(buffer_bytes=1 << 20),
                 journal_blocks=32)
    vfs, ctx = VFS(env, fs, NVMMConfig()), ExecContext(env, "app")
    journal = fs.journal
    fullest = 0
    for i in range(400):
        path = "/f%d" % (i % 48)
        if vfs.exists(ctx, path) and i % 3 == 0:
            vfs.unlink(ctx, path)
        fd = vfs.open(ctx, path, f.O_CREAT | f.O_RDWR)
        vfs.pwrite(ctx, fd, vfs.stat(ctx, path).size, b"d" * 65536)
        vfs.close(ctx, fd)
        env.background.advance_to(ctx.now)  # the scheduler's part
        fullest = max(fullest, journal.used_slots)
    assert env.stats.count("journal_wraps") >= 1
    assert env.stats.count("writeback_pressure_blocks") > 0
    assert 0 < fullest <= journal.relief_limit
    assert env.stats.count("writeback_journal_relief_blocks") == 0
