#!/usr/bin/env python3
"""Count Python frames per syscall: host cost with no wall clock.

Host time in this simulator is mostly interpreter frames, so the number
of Python ``call`` events one syscall raises is a deterministic proxy
for its cost.  ``tests/integration/test_call_budget.py`` holds ceilings
on these counts and counts with :func:`python_calls` from here.

    PYTHONPATH=src python tools/calls.py              # pmfs, hinfs, hinfs@2
    PYTHONPATH=src python tools/calls.py pmfs hinfs-wb

One row per stack name (any name ``build_stack`` takes): the frames of
a warm 4 KB ``pwrite`` over written data, then of a warm 4 KB ``pread``
and a warm ``fsync`` of the same file.  Warm means the same call ran
once just before, so the ring entry and the inode's lock exist.
"""

import sys

STACKS = ("pmfs", "hinfs", "hinfs@2")
SYSCALLS = ("pwrite", "pread", "fsync")


def python_calls(fn):
    """Python ``call`` events raised while ``fn()`` runs, ``fn``'s own
    frame not counted."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls - 1


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
        frames[name] = python_calls(calls[name])
    return frames


def main(argv=None):
    names = tuple(sys.argv[1:] if argv is None else argv) or STACKS
    width = max(len(name) for name in names + ("stack",))
    print("%-*s %7s %7s %7s" % ((width, "stack") + SYSCALLS))
    for name in names:
        frames = syscall_frames(name)
        print("%-*s %7d %7d %7d"
              % ((width, name) + tuple(frames[s] for s in SYSCALLS)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
