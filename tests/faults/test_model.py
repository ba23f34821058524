"""The reference model: each op's effect, the crash windows the explorer
builds from it, and refinement on hand-built recovered trees."""

import pytest

from repro.faults.crashpoints import DEFAULT_OPS, CrashPointExplorer, _window
from repro.faults.model import DIR, File, Model
from repro.fs import flags as f
from repro.fs.errors import NotFound
from repro.fs.vfs import VFS
from repro.workloads.base import payload


def run(*ops):
    """The model after ``ops``, op ``i`` writing ``payload(size, i)``."""
    model = Model()
    for index, op in enumerate(ops):
        model.apply(op, index)
    return model


def stepped(ops):
    """``(before, after)`` around the last of ``ops``."""
    before = run(*ops[:-1])
    after = before.copy()
    after.apply(ops[-1], len(ops) - 1)
    return before, after


# -- apply --------------------------------------------------------------------


def test_writes_change_bytes_and_sync_promises_them():
    model = run(("create", "/a"), ("append", "/a", 300),
                ("write", "/a", 500, 10))
    file = model.tree["/a"]
    assert file.data == payload(300, 1) + bytes(200) + payload(10, 2)
    assert (file.synced, file.clean) == (None, False)
    model.apply(("fsync", "/a"), 3)
    assert (file.synced, file.clean) == (bytes(file.data), True)
    model.apply(("append", "/a", 5), 4)
    # Acknowledged bytes stay promised, but only by length now.
    assert len(file.synced) == 510 and not file.clean


def test_sync_write_promises_the_whole_file():
    model = run(("append", "/e", 600), ("sync_write", "/e", 300, 600))
    file = model.tree["/e"]
    assert file.synced == payload(300, 0) + payload(600, 1) and file.clean


def test_truncate_drops_the_promise():
    model = run(("sync_write", "/a", 0, 100), ("truncate", "/a", 40))
    assert model.tree["/a"].data == payload(40, 0)
    assert model.tree["/a"].synced is None
    model.apply(("truncate", "/a", 50), 2)
    assert model.tree["/a"].data == payload(40, 0) + bytes(10)


def test_a_directory_rename_moves_its_subtree():
    model = run(("mkdir", "/d"), ("mkdir", "/d/g"),
                ("sync_write", "/d/g/f", 0, 10), ("create", "/dx"),
                ("rename", "/d", "/e"))
    assert set(model.tree) == {"/e", "/e/g", "/e/g/f", "/dx"}
    assert model.tree["/e"] is DIR
    assert model.tree["/e/g/f"].synced == payload(10, 2)


def test_rename_over_drops_the_victim():
    model = run(("sync_write", "/c", 0, 64), ("sync_write", "/a", 0, 32),
                ("rename", "/c", "/a"))
    assert set(model.tree) == {"/a"}
    assert model.tree["/a"].synced == payload(64, 0)
    model.apply(("rename", "/a", "/a"), 3)
    assert set(model.tree) == {"/a"}


def test_mapped_stores_are_staged_until_msync():
    model = run(("append", "/m", 100), ("mmap", "/m", "undo"),
                ("mstore", "/m", 10, 20))
    file = model.tree["/m"]
    pre = payload(100, 0)
    assert file.data == pre[:10] + payload(20, 2) + pre[30:]
    assert (file.synced, file.clean) == (pre, True)
    model.apply(("msync_m", "/m"), 3)
    assert (file.synced, file.clean) == (bytes(file.data), True)
    model.apply(("tick", 1), 4)
    model.apply(("munmap", "/m"), 5)
    assert file.synced == bytes(file.data)


def test_calls_on_a_missing_path_raise_what_the_vfs_raises():
    model = run(("create", "/a"))
    for call, args in ((model.open, ("/x", f.O_RDWR)),
                       (model.truncate, ("/x", 0)),
                       (model.rename, ("/x", "/y")),
                       (model.unlink, ("/x",)),
                       (model.lookup, ("/x",))):
        with pytest.raises(NotFound):
            call(*args)
    assert set(model.tree) == {"/a"}
    with pytest.raises(ValueError):
        model.apply(("chmod", "/a"), 1)


def test_open_with_o_trunc_truncates():
    model = run(("sync_write", "/a", 0, 100))
    file = model.open("/a", f.O_RDWR | f.O_TRUNC)
    assert file.data == b"" and file.synced is None
    assert model.open("/b", f.O_CREAT | f.O_RDWR).data == b""


# -- crash windows ------------------------------------------------------------


def test_sync_write_promises_only_at_return():
    """A crash inside an O_SYNC write to a new file may leave it absent
    or holding any part of the write: neither side of the window
    promises anything; the state after it promises every byte."""
    ops = (("create", "/k"), ("sync_write", "/c", 0, 4096))
    before, after = stepped(ops)
    pre, post = _window(before, after, ops[-1])
    assert "/c" not in pre.tree
    assert post.tree["/c"].synced is None
    assert not post.mismatches({"/k": b"", "/c": b"\0" * 10})
    assert after.tree["/c"].synced == payload(4096, 1)
    assert after.mismatches({"/k": b"", "/c": b"\0" * 10})


def test_a_write_keeps_the_promise_by_length_only():
    ops = (("sync_write", "/a", 0, 100), ("write", "/a", 0, 50))
    before, after = stepped(ops)
    window = _window(before, after, ops[-1])
    torn = {"/a": b"x" * 100}
    assert before.mismatches(torn)  # exact outside the window
    assert not window[0].mismatches(torn)
    assert window[0].mismatches({"/a": b"x" * 99})
    # The op left its own bytes unchanged: the window's copies are new.
    assert before.tree["/a"].clean


def test_truncate_is_free_inside_its_window():
    ops = (("sync_write", "/a", 0, 100), ("truncate", "/a", 10))
    pre, post = _window(*stepped(ops), ops[-1])
    assert pre.tree["/a"].synced == payload(100, 0)
    assert post.tree["/a"].synced is None
    assert not post.mismatches({"/a": b""})


def test_msync_is_exactly_pre_or_post():
    ops = (("append", "/m", 128), ("mmap", "/m", "redo"),
           ("mstore", "/m", 0, 64), ("msync_m", "/m"))
    before, after = stepped(ops)
    window = _window(before, after, ops[-1])
    assert window == (before, after)  # never made volatile
    pre, post = before.tree["/m"].synced, after.tree["/m"].synced
    blend = post[:32] + pre[32:]
    assert not before.mismatches({"/m": pre})
    assert not after.mismatches({"/m": post})
    assert all(state.mismatches({"/m": blend}) for state in window)


# -- refinement ---------------------------------------------------------------


def test_refinement_compares_paths_kinds_and_promises():
    model = Model({"/d": DIR, "/d/f": File(b"abcdef", b"abcd", True),
                   "/g": File(b"xy")})
    tree = {"/d": DIR, "/d/f": b"abcdZZ", "/g": b""}
    assert model.mismatches(tree) == []
    assert model.mismatches({"/d": DIR, "/d/f": b"abcd"}) == [
        "path /g missing"]
    assert model.mismatches(dict(tree, **{"/h": DIR})) == ["path /h present"]
    assert model.mismatches(dict(tree, **{"/g": DIR})) == [
        "path /g is a directory"]
    assert model.mismatches(dict(tree, **{"/d": b""})) == [
        "path /d is a file"]
    assert model.mismatches(dict(tree, **{"/d/f": b"abc"})) == [
        "fsynced bytes lost on /d/f: 3 < 4"]
    assert model.mismatches(dict(tree, **{"/d/f": b"abXd"})) == [
        "fsynced content of /d/f corrupted"]
    model.tree["/d/f"].clean = False
    assert model.mismatches(dict(tree, **{"/d/f": b"abXd"})) == []


def test_copies_share_nothing():
    model = run(("sync_write", "/a", 0, 10))
    copy = model.copy()
    copy.apply(("append", "/a", 5), 1)
    copy.apply(("create", "/b"), 2)
    assert set(model.tree) == {"/a"}
    assert len(model.tree["/a"].data) == 10 and model.tree["/a"].clean


# -- a stray name: what a check of every path catches -------------------------


def test_a_rename_that_leaves_a_stray_name_is_caught(monkeypatch):
    """Negative control: a rename that goes through a hidden temp name
    and leaves it behind -- a durable name no op created, like the
    temp file a cross-shard rename once copied through.  A check of
    only the paths the ops name misses it; every state after the
    temp's create recovers a tree with one path too many."""
    rename = VFS.rename

    def via_a_stray(self, ctx, old, new):
        self.close(ctx, self.open(ctx, "/.rename-tmp", f.O_CREAT | f.O_RDWR))
        rename(self, ctx, old, new)

    monkeypatch.setattr(VFS, "rename", via_a_stray)
    ops = DEFAULT_OPS[:7]
    assert ops[-1] == ("rename", "/d/b", "/b2")
    report = CrashPointExplorer("pmfs", seed=3, eviction_samples_per_op=0,
                                torn_samples_per_op=0).explore(ops)
    assert report.failures
    assert all(violation.op_index == 6 for violation in report.failures)
    assert any(violation.message == "path /.rename-tmp present"
               for violation in report.failures)
