"""Geometry and iovec semantics of the kiocb-style IORequest."""

import pytest

from repro.io import OP_READ, OP_WRITE, IORequest


def test_unknown_op_rejected():
    with pytest.raises(ValueError):
        IORequest(1, "append", 2, [b"x"], 0)


def test_write_geometry():
    req = IORequest(1, OP_WRITE, 7, [b"abc", b"", b"defg"], 100)
    assert req.total_bytes == 7
    assert req.offset + req.total_bytes == 107
    assert list(req.fragments()) == [(100, b"abc"), (103, b""), (103, b"defg")]
    assert req.coalesce() == b"abcdefg"


def test_write_iovecs_are_snapshotted_as_bytes():
    buf = bytearray(b"live")
    req = IORequest(1, OP_WRITE, 7, [buf], 0)
    buf[:] = b"dead"
    assert req.coalesce() == b"live"


def test_single_fragment_coalesce_returns_fragment():
    req = IORequest(1, OP_WRITE, 7, [b"only"], 0)
    assert req.coalesce() is req.iovecs[0]


def test_read_geometry_and_scatter():
    req = IORequest(2, OP_READ, 7, [3, 4, 5], 10)
    assert req.total_bytes == 12
    assert req.offset + req.total_bytes == 22
    assert req.scatter(b"aaabbbbccccc") == [b"aaa", b"bbbb", b"ccccc"]


def test_scatter_short_read_fills_in_order():
    # readv semantics: earlier iovecs fill completely before later ones.
    req = IORequest(2, OP_READ, 7, [3, 4, 5], 0)
    assert req.scatter(b"aaab") == [b"aaa", b"b", b""]
    assert req.scatter(b"") == [b"", b"", b""]


def test_ops_reject_wrong_direction():
    write = IORequest(1, OP_WRITE, 7, [b"x"], 0)
    read = IORequest(2, OP_READ, 7, [1], 0)
    with pytest.raises(ValueError):
        write.scatter(b"x")
    with pytest.raises(ValueError):
        read.coalesce()
    with pytest.raises(ValueError):
        list(read.fragments())


def test_syscall_defaults_to_op():
    assert IORequest(1, OP_WRITE, 7, [b"x"], 0).syscall == "write"
    assert IORequest(1, OP_READ, 7, [1], 0, syscall="preadv").syscall == "preadv"
