"""Python frames per syscall, counted -- a perf guard with no wall clock.

Host time in this simulator is mostly interpreter frames, so the number
of Python ``call`` events one syscall raises is a deterministic proxy
for its cost.  The ceilings sit about 5 % above what the tree achieves
(105 and 1 479; the two-step persist path and the per-block constant
recomputation they replaced cost 131 and 1 798): ceilings, not
equalities, so interpreter versions that inline comprehensions or a
harmless extra helper do not flip them, while a lost fast path does.
"""

import sys

from repro.bench.runner import build_stack
from repro.engine.context import ExecContext
from repro.engine.env import SimEnv
from repro.fs import flags as f
from repro.nvmm.config import NVMMConfig


def _python_calls(fn):
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
    return calls - 1  # the lambda itself


def _open_file(fs_name):
    """Untraced stack, no fault model, no observer."""
    env = SimEnv()
    _, vfs = build_stack(env, fs_name, NVMMConfig(), 32 << 20)
    ctx = ExecContext(env, "app")
    return vfs, ctx, vfs.open(ctx, "/f", f.O_CREAT | f.O_RDWR)


def test_overwriting_4k_pwrite_on_pmfs_stays_under_its_frame_ceiling():
    vfs, ctx, fd = _open_file("pmfs")
    vfs.pwrite(ctx, fd, 0, b"a" * 8192)
    vfs.pwrite(ctx, fd, 0, b"b" * 4096)  # warm: ring, lock table
    block = b"c" * 4096
    assert _python_calls(lambda: vfs.pwrite(ctx, fd, 0, block)) <= 110


def test_64k_append_on_hinfs_stays_under_its_frame_ceiling():
    vfs, ctx, fd = _open_file("hinfs")
    vfs.pwrite(ctx, fd, 0, b"a" * 65536)
    chunk = b"b" * 65536
    assert _python_calls(lambda: vfs.pwrite(ctx, fd, 65536, chunk)) <= 1550
