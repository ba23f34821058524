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


def test_the_cli_prints_one_row_per_stack(capsys):
    assert calls.main(["pmfs", "hinfs"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["stack", "pwrite", "pread", "fsync"]
    assert [row.split()[0] for row in rows] == ["pmfs", "hinfs"]
    pmfs = dict(zip(calls.SYSCALLS, map(int, rows[0].split()[1:])))
    assert pmfs == calls.syscall_frames("pmfs")
    # A write on pmfs persists a journal transaction; a read does not.
    assert pmfs["pwrite"] > pmfs["pread"] > 0
