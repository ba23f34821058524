#!/usr/bin/env python3
"""Count Python frames per syscall: host cost with no wall clock.

Host time in this simulator is mostly interpreter frames, so the number
of Python ``call`` events one syscall raises is a deterministic proxy
for its cost.  ``tests/integration/test_call_budget.py`` holds ceilings
on these counts and counts with :func:`python_calls` from here.

    PYTHONPATH=src python tools/calls.py              # all four tables
    PYTHONPATH=src python tools/calls.py pmfs hinfs-wb  # syscalls only

The workload table also gives the bytecode instructions per op
(:func:`python_opcodes`): frames fall faster than the work they carry
when a change only inlines calls, so the two columns together say how
much of the host cost went.

The syscall table has one row per stack name (any name ``build_stack``
takes): the frames of a warm 4 KB ``pwrite`` over written data, then of
a warm 4 KB ``pread`` and a warm ``fsync`` of the same file.  Warm
means the same call ran once just before, so the ring entry and the
inode's lock exist; the measured ``fsync`` follows an uncounted 4 KB
``pwrite``, so on every stack it persists one written block (a
buffering stack's warm-up ``fsync`` left the file clean).

The mapped table (default run only) has one row per ``MAP_ATOMIC``
policy on pmfs: see :func:`mapped_frames`.  The lifecycle table
(default run only) has one row per stack of ``LIFECYCLE_STACKS``: a
file's create, a 64 KB append over fresh blocks, an fsync of 16
buffered blocks and an unlink of a file holding them -- see
:func:`lifecycle_frames`.  The workload table (default run only) has one
row per simulated-thread perfbench case: see :func:`workload_frames`.
"""

import gc
import os
import sys

STACKS = ("pmfs", "hinfs", "hinfs@2")
SYSCALLS = ("pwrite", "pread", "fsync")
POLICIES = ("redo", "undo")
MAPPED_OPS = ("store", "load", "msync", "wake")
LIFECYCLE_STACKS = ("hinfs", "pmfs")
LIFECYCLE_OPS = ("create", "append", "fsync", "unlink")
WORKLOADS = ("fio-sync", "fio-ring", "fio-mmap", "fileserver",
             "serve-tenants")
#: The checkout: ``perfbench/`` sits beside ``tools/``.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _collector_off(fn, hook, counter):
    """Run ``fn()`` with ``counter`` installed by ``hook`` (the C
    ``sys.setprofile`` or ``sys.settrace``, so the hooking itself is no
    Python frame) and the cyclic collector run first and kept off.  A
    collection that the call's allocations happen to trigger calls
    every ``gc.callbacks`` entry at its start and at its stop --
    Hypothesis installs one once any of its tests ran, two frames --
    and the finalisers of whatever garbage earlier code left; those
    would count."""
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    previous = sys.getprofile() if hook is sys.setprofile else sys.gettrace()
    hook(counter)
    try:
        fn()
    finally:
        hook(previous)
        if collecting:
            gc.enable()


def python_calls(fn):
    """Python ``call`` events raised while ``fn()`` runs, ``fn``'s own
    frame not counted."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    _collector_off(fn, sys.setprofile, profiler)
    return calls - 1


def python_opcodes(fn):
    """Bytecode instructions executed in the Python frames below
    ``fn()`` (``sys.settrace`` ``opcode`` events), ``fn``'s own frame
    not counted; the collector is handled as in :func:`python_calls`.
    The count is exact for one interpreter version -- another compiles
    the same source to other instructions."""
    opcodes = 0
    top = []

    def local(frame, event, arg):
        nonlocal opcodes
        if event == "opcode":
            opcodes += 1
        return local

    def tracer(frame, event, arg):
        if not top:
            top.append(frame)
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    _collector_off(fn, sys.settrace, tracer)
    return opcodes


def syscall_frames(fs_name):
    """``{syscall: frames}`` of the warm 4 KB ``pwrite``, ``pread`` and
    ``fsync`` on an untraced ``fs_name`` stack (no fault model, no
    observer), measured in that order on one file."""
    from repro.bench.runner import build_stack
    from repro.engine.context import ExecContext
    from repro.engine.env import SimEnv
    from repro.fs import flags as f
    from repro.nvmm.config import NVMMConfig

    env = SimEnv()
    _, vfs = build_stack(env, fs_name, NVMMConfig(), 32 << 20)
    ctx = ExecContext(env, "app")
    fd = vfs.open(ctx, "/f", f.O_CREAT | f.O_RDWR)
    vfs.pwrite(ctx, fd, 0, b"a" * 8192)
    block = b"c" * 4096
    calls = {
        "pwrite": lambda: vfs.pwrite(ctx, fd, 0, block),
        "pread": lambda: vfs.pread(ctx, fd, 0, 4096),
        "fsync": lambda: vfs.fsync(ctx, fd),
    }
    frames = {}
    for name in SYSCALLS:
        calls[name]()
        if name == "fsync":
            calls["pwrite"]()
        frames[name] = python_calls(calls[name])
    return frames


def mapped_frames(policy):
    """``{op: frames}`` on an untraced pmfs ``MAP_ATOMIC`` mapping of
    ``policy``, every op 4 KB at byte 1000 (two blocks) of an 8 KB file:
    a warm ``store`` (not its epoch's first), a ``load`` of the same
    bytes, the ``msync`` of an epoch of one such store and, on redo, one
    ``wake`` of the applier (one in-place chunk).  ``wake`` is absent
    where the applier has nothing queued (undo)."""
    from repro.bench.runner import build_stack
    from repro.engine.context import ExecContext
    from repro.engine.env import SimEnv
    from repro.fs import flags as f
    from repro.nvmm.config import NVMMConfig

    env = SimEnv()
    _, vfs = build_stack(env, "pmfs", NVMMConfig(), 32 << 20)
    ctx = ExecContext(env, "app")
    fd = vfs.open(ctx, "/f", f.O_CREAT | f.O_RDWR)
    vfs.pwrite(ctx, fd, 0, b"a" * 8192)
    mapping = vfs.mmap(ctx, fd, flags=f.MAP_ATOMIC, policy=policy)
    block = b"c" * 4096

    def store():
        mapping.store(ctx, 1000, block)

    def load():
        mapping.load(ctx, 1000, 4096)

    def msync():
        mapping.msync(ctx)

    frames = {}
    store()
    frames["store"] = python_calls(store)
    load()
    frames["load"] = python_calls(load)
    msync()
    store()
    frames["msync"] = python_calls(msync)
    if mapping.applier.pending:
        frames["wake"] = python_calls(lambda: mapping.applier._step())
    return frames


def lifecycle_frames(fs_name):
    """``{op: frames}`` of a buffered file's life on an untraced
    ``fs_name`` stack, each op on a stack of its own: ``create``, an
    ``O_CREAT`` open of a new name (after one such open); ``append``, a
    64 KB ``pwrite`` over 16 fresh blocks past the 64 KB written first;
    ``fsync`` of a file holding 16 buffered blocks (one 64 KB
    ``pwrite``); ``unlink`` of such a file."""
    from repro.bench.runner import build_stack
    from repro.engine.context import ExecContext
    from repro.engine.env import SimEnv
    from repro.fs import flags as f
    from repro.nvmm.config import NVMMConfig

    def written():
        env = SimEnv()
        _, vfs = build_stack(env, fs_name, NVMMConfig(), 32 << 20)
        ctx = ExecContext(env, "app")
        fd = vfs.open(ctx, "/f", f.O_CREAT | f.O_RDWR)
        vfs.pwrite(ctx, fd, 0, b"a" * 65536)
        return vfs, ctx, fd

    vfs, ctx, _ = written()
    chunk = b"b" * 65536
    frames = {"create": python_calls(
        lambda: vfs.open(ctx, "/g", f.O_CREAT | f.O_RDWR))}
    vfs, ctx, fd = written()
    frames["append"] = python_calls(lambda: vfs.pwrite(ctx, fd, 65536, chunk))
    vfs, ctx, fd = written()
    frames["fsync"] = python_calls(lambda: vfs.fsync(ctx, fd))
    vfs, ctx, fd = written()
    vfs.close(ctx, fd)
    frames["unlink"] = python_calls(lambda: vfs.unlink(ctx, "/f"))
    return frames


def workload_frames(name, counter=python_calls):
    """Frames per op of perfbench's ``name`` case (one of
    ``WORKLOADS``) in its ``--quick`` shape at seed 42, untraced: the
    calls of the measured phase over the ops it completes, to two
    decimals.  The case is built and run through ``perfbench.cases``
    as perfbench builds and runs it; nothing of it is changed here.
    ``counter=python_opcodes`` counts bytecode instructions instead."""
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    from perfbench.cases import CASES

    case = CASES[name](42, quick=True)
    case.setup(trace=False)

    def measured_phase():
        for _ in case.slices():
            pass

    return round(counter(measured_phase) / case.units(), 2)


def workload_opcodes(name):
    """Bytecode instructions per op of ``name``, measured as
    :func:`workload_frames` measures frames."""
    return workload_frames(name, python_opcodes)


def main(argv=None):
    args = tuple(sys.argv[1:] if argv is None else argv)
    names = args or STACKS
    width = max(len(name) for name in names + ("stack",))
    print("%-*s %7s %7s %7s" % ((width, "stack") + SYSCALLS))
    for name in names:
        frames = syscall_frames(name)
        print("%-*s %7d %7d %7d"
              % ((width, name) + tuple(frames[s] for s in SYSCALLS)))
    if not args:
        print()
        print("%-7s %7s %7s %7s %7s" % (("policy",) + MAPPED_OPS))
        for policy in POLICIES:
            frames = mapped_frames(policy)
            print("%-7s %7s %7s %7s %7s"
                  % ((policy,) + tuple(frames.get(op, "-")
                                       for op in MAPPED_OPS)))
        print()
        print("%-7s %7s %7s %7s %7s" % (("stack",) + LIFECYCLE_OPS))
        for name in LIFECYCLE_STACKS:
            frames = lifecycle_frames(name)
            print("%-7s %7d %7d %7d %7d"
                  % ((name,) + tuple(frames[op] for op in LIFECYCLE_OPS)))
        print()
        print("%-13s %9s %10s" % ("workload", "frames/op", "opcodes/op"))
        for name in WORKLOADS:
            print("%-13s %9.2f %10.2f" % (name, workload_frames(name),
                                          workload_opcodes(name)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
