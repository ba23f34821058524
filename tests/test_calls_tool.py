"""tools/calls.py: the one frame counter and its table."""

import importlib.util
import os

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "calls.py")
_spec = importlib.util.spec_from_file_location("calls", _PATH)
calls = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(calls)


def _leaf():
    return 1


def _two_leaves():
    return _leaf() + _leaf()


def test_python_calls_counts_the_frames_below_the_callable():
    assert calls.python_calls(_leaf) == 0
    assert calls.python_calls(_two_leaves) == 2
    # Builtins raise no Python frame.
    assert calls.python_calls(lambda: sorted([3, 1, 2])) == 0


def test_python_opcodes_counts_the_instructions_below_the_callable():
    assert calls.python_opcodes(_leaf) == 0
    leaf = calls.python_opcodes(lambda: _leaf())
    # The callable's own instructions are not counted; each _leaf frame
    # runs the same ones, whoever calls it.
    assert leaf > 0
    assert calls.python_opcodes(_two_leaves) == 2 * leaf
    assert calls.python_opcodes(lambda: sorted([3, 1, 2])) == 0


def test_the_cli_prints_one_row_per_stack(capsys):
    assert calls.main(["pmfs", "hinfs"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["stack", "pwrite", "pread", "fsync"]
    assert [row.split()[0] for row in rows] == ["pmfs", "hinfs"]
    pmfs = dict(zip(calls.SYSCALLS, map(int, rows[0].split()[1:])))
    assert pmfs == calls.syscall_frames("pmfs")
    # A write on pmfs persists a journal transaction; a read does not.
    assert pmfs["pwrite"] > pmfs["pread"] > 0


def test_the_default_run_adds_the_mapped_table(capsys):
    """... and the lifecycle and workload tables after it."""
    assert calls.main([]) == 0
    syscalls, mapped, lifecycle, workloads = \
        capsys.readouterr().out.split("\n\n")
    assert [row.split()[0] for row in syscalls.splitlines()[1:]] \
        == list(calls.STACKS)
    header, *rows = mapped.splitlines()
    assert header.split() == ["policy"] + list(calls.MAPPED_OPS)
    table = {row.split()[0]: row.split()[1:] for row in rows}
    assert list(table) == list(calls.POLICIES)
    for policy in calls.POLICIES:
        frames = calls.mapped_frames(policy)
        assert table[policy] == [str(frames.get(op, "-"))
                                 for op in calls.MAPPED_OPS]
    redo, undo = (calls.mapped_frames(p) for p in ("redo", "undo"))
    # Only redo queues work on the applier; an undo store also reads
    # and logs the pre-image before its in-place store.
    assert "wake" in redo and "wake" not in undo
    assert undo["store"] > redo["store"] > 0
    header, *rows = lifecycle.splitlines()
    assert header.split() == ["stack"] + list(calls.LIFECYCLE_OPS)
    table = {row.split()[0]: list(map(int, row.split()[1:])) for row in rows}
    assert list(table) == list(calls.LIFECYCLE_STACKS)
    for name in calls.LIFECYCLE_STACKS:
        frames = calls.lifecycle_frames(name)
        assert table[name] == [frames[op] for op in calls.LIFECYCLE_OPS]
    header, *rows = workloads.splitlines()
    assert header.split() == ["workload", "frames/op", "opcodes/op"]
    table = {row.split()[0]: float(row.split()[1]) for row in rows}
    assert list(table) == list(calls.WORKLOADS)
    assert table["fio-mmap"] == calls.workload_frames("fio-mmap")
    # Mapped stores skip the syscall path a sync write takes.
    assert table["fio-sync"] > table["fio-mmap"] > 0
    opcodes = {row.split()[0]: float(row.split()[2]) for row in rows}
    assert opcodes["fio-mmap"] == calls.workload_opcodes("fio-mmap")
    assert all(opcodes[name] > table[name] for name in calls.WORKLOADS)
