"""Differential conformance oracle: six stacks vs the reference model.

A Hypothesis stateful machine drives random syscalls -- open / read /
write / writev / lseek / truncate / rename / unlink / fsync -- against
all five simulated file systems, a two-device sharded HiNFS mount
(``hinfs@2`` -- the namespace hashed across independent shards behind
one VFS, including cross-shard renames), *and* the reference model the
crash explorer refines against (:class:`repro.faults.model.Model`:
paths -> files of bytes), with a descriptor table of (file, position)
kept here.  Every return value, every raised error class, and the
final visible namespace must agree across all seven.  This is the
conformance fence the concurrency refactor is locked in by: per-inode
locking and parallel writeback must never change what a syscall
returns -- and the shard layer must be invisible at the syscall
surface.

A ``tick`` rule lets virtual time pass on every stack: the background
timelines (HiNFS's writeback task, the page cache's flusher, jbd2)
catch up through the registry the scheduler drives.  The HiNFS stacks
run an 8-block buffer with a one-block reclaim batch, so buffer
pressure, demand reclaim and paced pressure wakes all happen between
the syscalls -- and must not change what any of them returns.

The machine also drives the library-mode mmap plane: on stacks that
support ``MAP_ATOMIC`` (the PMFS family) it creates real mappings and
interleaves ``store``/``load``/``msync`` with descriptor reads, writes
and truncates on the same file; the block-device stacks emulate the
mapping with pwrite/pread on a held descriptor.  POSIX coherence means
the mapped and emulated stacks must still agree byte-for-byte.

A second property applies per-thread op scripts on *disjoint* files
through the real scheduler with 2-4 threads: interleaving may change
timing, never data.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    consumes,
    initialize,
    invariant,
    multiple,
    rule,
)

from repro.bench.runner import build_stack
from repro.core import HiNFSConfig
from repro.engine.context import ExecContext
from repro.engine.env import SimEnv
from repro.engine.scheduler import Scheduler
from repro.faults.model import File, Model
from repro.fs import flags as f
from repro.fs.base import FileSystem
from repro.fs.errors import FSError, InvalidArgument
from repro.nvmm.config import NVMMConfig

ORACLE_FS = ("hinfs", "pmfs", "ext4-dax", "ext2-nvmmbd", "ext4-nvmmbd",
             "hinfs@2")
PATHS = ["/f0", "/f1", "/f2", "/f3"]
#: Small enough that a few KB of writes fill it: ``Low_f`` is 1 free
#: block, ``High_f`` 2, and each pressure wake reclaims one.
ORACLE_HINFS = HiNFSConfig(buffer_bytes=8 * 4096, reclaim_batch=1)


class OracleStack:
    """One simulated stack with its own fd table keyed by handle."""

    def __init__(self, fs_name):
        self.env = SimEnv()
        self.fs, self.vfs = build_stack(self.env, fs_name, NVMMConfig(),
                                        48 << 20, hinfs_config=ORACLE_HINFS)
        self.ctx = ExecContext(self.env, "oracle")
        self.fds = {}


def outcome(fn, *args):
    """Run one syscall; normalise to a comparable (tag, value) pair: what
    a successful call returned, or the class of the error it raised."""
    try:
        return ("ok", fn(*args))
    except FSError as exc:
        return ("err", type(exc))


class DifferentialOracle(RuleBasedStateMachine):
    handles = Bundle("handles")

    @initialize()
    def build_stacks(self):
        self.stacks = [OracleStack(name) for name in ORACLE_FS]
        self.model = Model()
        #: handle -> [File, position, flags]: a descriptor keeps its
        #: file whatever later happens to the name.
        self.fds = {}
        self._next_handle = 0
        #: path -> per-stack [("real", fd, region) | ("emul", fd, None)]
        #: for live MAP_ATOMIC mappings (emulated on kernel-only stacks).
        self.mappings = {}

    # -- the model's side of the descriptor calls ------------------------

    def ref_open(self, handle, path, flags):
        self.fds[handle] = [self.model.open(path, flags), 0, flags]

    def ref_write(self, handle, data):
        file, pos, flags = self.fds[handle]
        if flags & f.O_APPEND:
            pos = len(file.data)
        written = file.pwrite(pos, data)
        self.fds[handle][1] = pos + written
        return written

    def ref_read(self, handle, count):
        file, pos, _flags = self.fds[handle]
        data = file.pread(pos, count)
        self.fds[handle][1] = pos + len(data)
        return data

    def ref_lseek(self, handle, pos, whence):
        file, cur, _flags = self.fds[handle]
        if whence == f.SEEK_SET:
            new = pos
        elif whence == f.SEEK_CUR:
            new = cur + pos
        else:
            new = len(file.data) + pos
        if new < 0:
            raise InvalidArgument("negative offset")
        self.fds[handle][1] = new
        return new

    def open_paths(self):
        held = [file for file, _pos, _flags in self.fds.values()]
        return {path for path, node in self.model.tree.items()
                if any(node is file for file in held)}

    def check_all(self, expected, per_stack):
        for stack, got in zip(self.stacks, per_stack):
            assert got == expected, (
                "%s diverged: %r != %r" % (stack.fs.__class__.__name__,
                                           got, expected))

    # -- namespace rules -------------------------------------------------

    @rule(target=handles, path=st.sampled_from(PATHS),
          create=st.booleans(), trunc=st.booleans(),
          append=st.booleans())
    def open(self, path, create, trunc, append):
        flags = f.O_RDWR
        flags |= f.O_CREAT if create else 0
        flags |= f.O_TRUNC if trunc else 0
        flags |= f.O_APPEND if append else 0
        handle = self._next_handle
        self._next_handle += 1
        expected = outcome(self.ref_open, handle, path, flags)
        for stack in self.stacks:
            got = outcome(stack.vfs.open, stack.ctx, path, flags)
            assert got[0] == expected[0] and (
                got[0] == "ok" or got == expected), (path, flags, got,
                                                     expected)
            if got[0] == "ok":
                stack.fds[handle] = got[1]
        if expected[0] == "err":
            return multiple()
        return handle

    @rule(handle=consumes(handles))
    def close(self, handle):
        del self.fds[handle]
        for stack in self.stacks:
            stack.vfs.close(stack.ctx, stack.fds.pop(handle))

    @rule(path=st.sampled_from(PATHS), size=st.integers(0, 32 << 10))
    def truncate(self, path, size):
        expected = outcome(self.model.truncate, path, size)
        self.check_all(expected, [
            outcome(stack.vfs.truncate, stack.ctx, path, size)
            for stack in self.stacks
        ])

    @rule(old=st.sampled_from(PATHS), new=st.sampled_from(PATHS))
    def rename(self, old, new):
        # Renaming over (or moving) a file some handle still has open
        # drops an inode under a live descriptor; POSIX keeps such
        # descriptors usable, the stacks reuse the inode -- out of the
        # oracle's scope, like open-unlinked files.  Mapped paths hold a
        # descriptor too (the mapping's own fd).
        if {old, new} & (self.open_paths() | set(self.mappings)):
            return
        expected = outcome(self.model.rename, old, new)
        self.check_all(expected, [
            outcome(stack.vfs.rename, stack.ctx, old, new)
            for stack in self.stacks
        ])

    @rule(path=st.sampled_from(PATHS))
    def unlink(self, path):
        if path in self.open_paths() or path in self.mappings:
            return
        expected = outcome(self.model.unlink, path)
        self.check_all(expected, [
            outcome(stack.vfs.unlink, stack.ctx, path)
            for stack in self.stacks
        ])

    # -- descriptor rules ------------------------------------------------

    @rule(handle=handles, data=st.binary(min_size=1, max_size=2048))
    def write(self, handle, data):
        expected = outcome(self.ref_write, handle, data)
        self.check_all(expected, [
            outcome(stack.vfs.write, stack.ctx, stack.fds[handle], data)
            for stack in self.stacks
        ])

    @rule(handle=handles, blocks=st.integers(1, 6), tag=st.integers(0, 255))
    def write_blocks(self, handle, blocks, tag):
        """Whole blocks at a time: what fills the HiNFS buffers."""
        self.write(handle, bytes([tag]) * (blocks * 4096))

    @rule(handle=handles,
          iovecs=st.lists(st.binary(min_size=1, max_size=512),
                          min_size=1, max_size=4))
    def writev(self, handle, iovecs):
        expected = outcome(self.ref_write, handle, b"".join(iovecs))
        self.check_all(expected, [
            outcome(stack.vfs.writev, stack.ctx, stack.fds[handle], iovecs)
            for stack in self.stacks
        ])

    @rule(handle=handles, count=st.integers(0, 8 << 10))
    def read(self, handle, count):
        expected = outcome(self.ref_read, handle, count)
        self.check_all(expected, [
            outcome(stack.vfs.read, stack.ctx, stack.fds[handle], count)
            for stack in self.stacks
        ])

    @rule(handle=handles, pos=st.integers(-512, 16 << 10),
          whence=st.sampled_from([f.SEEK_SET, f.SEEK_CUR, f.SEEK_END]))
    def lseek(self, handle, pos, whence):
        expected = outcome(self.ref_lseek, handle, pos, whence)
        self.check_all(expected, [
            outcome(stack.vfs.lseek, stack.ctx, stack.fds[handle], pos,
                    whence)
            for stack in self.stacks
        ])

    @rule(handle=handles)
    def fsync(self, handle):
        for stack in self.stacks:
            stack.vfs.fsync(stack.ctx, stack.fds[handle])

    @rule(handle=handles)
    def fdatasync(self, handle):
        for stack in self.stacks:
            stack.vfs.fdatasync(stack.ctx, stack.fds[handle])

    @rule(ns=st.one_of(st.integers(0, 40_000),
                       st.sampled_from([5_000_000_000, 30_000_000_000])))
    def tick(self, ns):
        """Virtual time passes: a batch or two of paced reclaim, or the
        periodic (5 s) and aged (30 s) flushes."""
        for stack in self.stacks:
            stack.ctx.now += ns
            stack.env.background.advance_to(stack.ctx.now)

    # -- library-mode mmap rules -----------------------------------------
    # Mapped stores interleave with the descriptor rules above on the
    # same paths: reads and fsyncs on a mapped file are routed through
    # the mapping by the PMFS-family stacks, and truncate must stay
    # coherent with staged stores.  Content must agree across the real
    # mappings, the emulating stacks, and the model.

    @rule(path=st.sampled_from(PATHS),
          policy=st.sampled_from(["auto", "undo", "redo"]))
    def mmap_atomic(self, path, policy):
        if path in self.mappings or path not in self.model.tree:
            return
        per_stack = []
        for stack in self.stacks:
            fd = stack.vfs.open(stack.ctx, path, f.O_RDWR)
            if type(stack.fs).mmap is not FileSystem.mmap:
                region = stack.vfs.mmap(stack.ctx, fd, flags=f.MAP_ATOMIC,
                                        policy=policy)
                per_stack.append(("real", fd, region))
            else:
                per_stack.append(("emul", fd, None))
        self.mappings[path] = per_stack

    @rule(path=st.sampled_from(PATHS), offset=st.integers(0, 24 << 10),
          size=st.integers(1, 2048), tag=st.integers(0, 255))
    def mstore(self, path, offset, size, tag):
        entry = self.mappings.get(path)
        if entry is None:
            return
        data = bytes([tag]) * size
        self.model.lookup(path).pwrite(offset, data)
        for stack, (kind, fd, region) in zip(self.stacks, entry):
            if kind == "real":
                assert region.store(stack.ctx, offset, data) == size
            else:
                stack.vfs.pwrite(stack.ctx, fd, offset, data)

    @rule(path=st.sampled_from(PATHS), offset=st.integers(0, 24 << 10),
          count=st.integers(1, 4096))
    def mload(self, path, offset, count):
        entry = self.mappings.get(path)
        if entry is None:
            return
        file = self.model.lookup(path)
        # Clamp to EOF: a real load past the last page would fault, and
        # the bytes between size and the end of the last block are
        # unspecified -- the oracle compares the defined range only.
        avail = max(0, min(count, len(file.data) - offset))
        expected = ("ok", file.pread(offset, avail))
        got = []
        for stack, (kind, fd, region) in zip(self.stacks, entry):
            if avail == 0:
                got.append(("ok", b""))
            elif kind == "real":
                got.append(outcome(region.load, stack.ctx, offset, avail))
            else:
                got.append(outcome(stack.vfs.pread, stack.ctx, fd, offset,
                                   avail))
        self.check_all(expected, got)

    @rule(path=st.sampled_from(PATHS))
    def msync_mapping(self, path):
        entry = self.mappings.get(path)
        if entry is None:
            return
        for stack, (kind, fd, region) in zip(self.stacks, entry):
            if kind == "real":
                region.msync(stack.ctx)
            else:
                stack.vfs.fsync(stack.ctx, fd)

    @rule(path=st.sampled_from(PATHS))
    def munmap_mapping(self, path):
        entry = self.mappings.pop(path, None)
        if entry is None:
            return
        for stack, (kind, fd, region) in zip(self.stacks, entry):
            if kind == "real":
                stack.vfs.munmap(stack.ctx, region)
            stack.vfs.close(stack.ctx, fd)

    # -- metadata reads --------------------------------------------------

    @rule(path=st.sampled_from(PATHS))
    def stat(self, path):
        expected = outcome(lambda: len(self.model.lookup(path).data))
        self.check_all(expected, [
            outcome(lambda s=stack: s.vfs.stat(s.ctx, path).size)
            for stack in self.stacks
        ])

    @rule(handle=handles)
    def fstat(self, handle):
        file, _pos, _flags = self.fds[handle]
        expected = ("ok", len(file.data))
        self.check_all(expected, [
            outcome(lambda s=stack: s.vfs.fstat(s.ctx, s.fds[handle]).size)
            for stack in self.stacks
        ])

    @rule()
    def readdir(self):
        expected = ("ok", sorted(self.model.tree))
        self.check_all(expected, [
            outcome(lambda s=stack: sorted(
                "/" + name for name, _ino in s.vfs.readdir(s.ctx, "/")
            ))
            for stack in self.stacks
        ])

    # -- the namespace itself must agree ---------------------------------

    @invariant()
    def namespaces_agree(self):
        if not hasattr(self, "stacks"):
            return
        expected = sorted(self.model.tree)
        for stack in self.stacks:
            listing = sorted(
                "/" + entry[0]
                for entry in stack.vfs.readdir(stack.ctx, "/")
            )
            assert listing == expected, (stack.fs, listing, expected)

    def teardown(self):
        if not hasattr(self, "stacks"):
            return
        for path, file in self.model.tree.items():
            for stack in self.stacks:
                data = stack.vfs.read_file(stack.ctx, path)
                assert data == bytes(file.data), (
                    "%s: %r diverged (%d bytes vs %d)"
                    % (stack.fs.__class__.__name__, path, len(data),
                       len(file.data)))


DifferentialOracle.TestCase.settings = settings(
    max_examples=12, stateful_step_count=30, deadline=None,
)
TestDifferentialOracle = DifferentialOracle.TestCase


def test_mmio_rules_deterministic_smoke():
    """Drive every mmap rule once, interleaved with descriptor I/O and a
    truncate on the same path -- the fixed sequence Hypothesis may or
    may not generate, pinned so the mmio coherence path always runs."""
    machine = DifferentialOracle()
    machine.build_stacks()
    try:
        handle = machine.open("/f0", create=True, trunc=False, append=False)
        machine.write(handle, b"base" * 1024)          # 4096 bytes
        for policy in ("undo", "redo"):
            machine.mmap_atomic("/f0", policy)
            machine.mstore("/f0", 100, 512, 0xAB)
            machine.mload("/f0", 0, 1024)
            machine.read(handle, 256)                  # routed read
            machine.msync_mapping("/f0")
            machine.mstore("/f0", 6000, 300, 0xCD)     # extends the file
            machine.fstat(handle)
            machine.truncate("/f0", 4096)              # cuts staged tail
            machine.mload("/f0", 3900, 400)
            machine.munmap_mapping("/f0")
            machine.namespaces_agree()
        machine.close(handle)
    finally:
        machine.teardown()


def test_tick_rule_deterministic_smoke():
    """Overfill the HiNFS stacks' 8-block buffers across four files, then
    let time pass: on ``hinfs`` and ``hinfs@2`` alike the first tick
    runs one paced pressure wake (one block), a later one the wake that
    reaches ``High_f``, and a 30 s tick the periodic flush -- while every
    stack keeps agreeing with the model."""
    machine = DifferentialOracle()
    machine.build_stacks()
    hinfs = [stack for stack, name in zip(machine.stacks, ORACLE_FS)
             if name.startswith("hinfs")]

    def counts(name):
        return [stack.env.stats.count(name) for stack in hinfs]

    try:
        handles = []
        for i, path in enumerate(PATHS):
            handle = machine.open(path, create=True, trunc=False,
                                  append=True)
            machine.write(handle, bytes([i + 1]) * 9000)  # 3 blocks each
            handles.append(handle)
        assert counts("writeback_demand_stalls") == [4, 4]
        assert counts("writeback_pressure_blocks") == [0, 0]
        machine.tick(1)
        assert counts("writeback_pressure_blocks") == [1, 1]
        for _ in range(2):
            machine.read(handles[0], 4096)
            machine.tick(10_000)
        assert counts("writeback_pressure_blocks") == [2, 2]
        machine.tick(30_000_000_000)
        assert min(counts("writeback_periodic_blocks")) > 0
        for handle in handles:
            machine.lseek(handle, 0, f.SEEK_SET)
            machine.read(handle, 9000)
            machine.close(handle)
        machine.namespaces_agree()
    finally:
        machine.teardown()


# -- multi-threaded: disjoint files through the real scheduler -----------

op_strategy = st.one_of(
    st.tuples(st.just("write"), st.integers(0, 24 << 10),
              st.integers(1, 4096), st.integers(0, 255)),
    st.tuples(st.just("read"), st.integers(0, 24 << 10),
              st.integers(1, 4096)),
    st.tuples(st.just("truncate"), st.integers(0, 24 << 10)),
    st.tuples(st.just("fsync"),),
)


def apply_ref(script):
    """Replay one thread's script on the reference; returns (reads, data)."""
    file = File()
    reads = []
    for op in script:
        if op[0] == "write":
            _, offset, size, tag = op
            file.pwrite(offset, bytes([tag]) * size)
        elif op[0] == "read":
            _, offset, count = op
            reads.append(file.pread(offset, count))
        elif op[0] == "truncate":
            file.truncate(op[1])
    return reads, bytes(file.data)


def thread_body(vfs, tid, script, reads_out):
    path = "/t%d" % tid

    def body(ctx):
        fd = vfs.open(ctx, path, f.O_CREAT | f.O_RDWR)
        for op in script:
            if op[0] == "write":
                _, offset, size, tag = op
                vfs.pwrite(ctx, fd, offset, bytes([tag]) * size)
            elif op[0] == "read":
                _, offset, count = op
                reads_out.append(vfs.pread(ctx, fd, offset, count))
            elif op[0] == "truncate":
                vfs.truncate(ctx, path, op[1])
            elif op[0] == "fsync":
                vfs.fsync(ctx, fd)
            yield
        vfs.close(ctx, fd)

    return body


@settings(max_examples=10, deadline=None)
@given(scripts=st.lists(st.lists(op_strategy, min_size=1, max_size=12),
                        min_size=2, max_size=4))
def test_threads_on_disjoint_files_match_reference(scripts):
    """2-4 scheduler threads, each owning one file: whatever order the
    scheduler interleaves them in, every stack's per-thread reads and
    final file images equal the single-threaded reference replay."""
    expected = [apply_ref(script) for script in scripts]
    for fs_name in ORACLE_FS:
        env = SimEnv()
        fs, vfs = build_stack(env, fs_name, NVMMConfig(), 48 << 20)
        sched = Scheduler(env)
        observed_reads = [[] for _ in scripts]
        for tid, script in enumerate(scripts):
            sched.spawn("t%d" % tid,
                        thread_body(vfs, tid, script, observed_reads[tid]))
        sched.run()
        verify = ExecContext(env, "verify", start_ns=sched.elapsed_ns())
        for tid, (ref_reads, ref_data) in enumerate(expected):
            assert observed_reads[tid] == ref_reads, (fs_name, tid)
            got = vfs.read_file(verify, "/t%d" % tid)
            assert got == ref_data, (fs_name, tid, len(got), len(ref_data))
