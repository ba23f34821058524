"""The reference model: what the namespace and its files hold, and what
of it a crash must keep.

A :class:`Model` is a tree of absolute paths (the root, ``/``, implied),
each a directory (:data:`DIR`) or a :class:`File` -- its bytes, and the
promise the last fsync, ``O_SYNC`` write or msync made about them.  A
call on a missing path raises what the VFS raises; no caller names a
directory where a file belongs.  The differential oracle
(``tests/integration/test_oracle.py``) checks every stack's syscalls
against it; the crash explorer (:mod:`repro.faults.crashpoints`) steps a
copy through each recorded op (:meth:`Model.apply`) and holds every
recovered tree to some state of it (:meth:`Model.mismatches`): the
refinement argument of the VFS-switch model (PAPERS.md) -- whatever sits
below the VFS, what it recovers is an abstract state of the same model.
"""

from repro.fs import flags as f
from repro.fs.errors import NotFound
from repro.workloads.base import payload

#: A directory in a tree: it holds nothing but the paths below it.
DIR = "dir"


class File:
    """One regular file.

    ``synced`` is what the last fsync, ``O_SYNC`` write or msync
    acknowledged, or None: a crash loses none of it.  ``clean`` means no
    write since, so those bytes read back exactly; after one only their
    length is promised -- acknowledged bytes may be overwritten, never
    lost.
    """

    __slots__ = ("data", "synced", "clean")

    def __init__(self, data=b"", synced=None, clean=True):
        self.data = bytearray(data)
        self.synced = synced
        self.clean = clean

    def copy(self):
        return File(self.data, self.synced, self.clean)

    def stage(self, offset, data):
        """Put ``data`` at ``offset`` (a hole reads as zeros) and leave
        the promise alone: a mapped store, which recovery sees only once
        the msync that commits its epoch has returned."""
        if offset > len(self.data):
            self.data.extend(bytes(offset - len(self.data)))
        self.data[offset:offset + len(data)] = data
        return len(data)

    def pwrite(self, offset, data):
        self.clean = False
        return self.stage(offset, data)

    def pread(self, offset, count):
        return bytes(self.data[offset:offset + count])

    def truncate(self, size):
        """Cut or zero-extend to ``size``; the promise goes with it."""
        del self.data[size:]
        self.data.extend(bytes(size - len(self.data)))
        self.synced = None

    def sync(self):
        self.synced = bytes(self.data)
        self.clean = True


class Model:
    """A tree: path -> :data:`DIR` or :class:`File`."""

    def __init__(self, tree=None):
        self.tree = {} if tree is None else tree

    def copy(self):
        return Model({path: node if node is DIR else node.copy()
                      for path, node in self.tree.items()})

    # -- the calls ----------------------------------------------------------

    def lookup(self, path):
        node = self.tree.get(path)
        if node is None:
            raise NotFound(path)
        return node

    def open(self, path, flags=f.O_RDWR):
        """open(2)'s effect on the tree; returns the :class:`File`."""
        node = self.tree.get(path)
        if node is None:
            if not flags & f.O_CREAT:
                raise NotFound(path)
            node = self.tree[path] = File()
        elif flags & f.O_TRUNC and f.writable(flags):
            node.truncate(0)
        return node

    def truncate(self, path, size):
        self.lookup(path).truncate(size)

    def unlink(self, path):
        self.lookup(path)
        del self.tree[path]

    def rename(self, old, new):
        """Move ``old`` -- a directory with everything below it -- to
        ``new``, over the file there if there is one."""
        self.lookup(old)
        for path in [path for path in self.tree
                     if path == old or path.startswith(old + "/")]:
            self.tree[new + path[len(old):]] = self.tree.pop(path)

    def apply(self, op, op_index):
        """One op of the crash explorer's vocabulary
        (:data:`repro.faults.crashpoints.DEFAULT_OPS` and the rest); the
        bytes it writes are ``payload(size, op_index)``, as the explorer
        writes them.  A mapping's stores are staged until its msync or
        munmap commits them; ``mmap`` fsyncs the file first."""
        kind = op[0]
        if kind == "mkdir":
            self.tree[op[1]] = DIR
        elif kind == "create":
            self.open(op[1], f.O_CREAT)
        elif kind == "append":
            file = self.open(op[1], f.O_CREAT)
            file.pwrite(len(file.data), payload(op[2], op_index))
        elif kind in ("write", "sync_write"):
            file = self.open(op[1], f.O_CREAT)
            file.pwrite(op[2], payload(op[3], op_index))
            if kind == "sync_write":
                file.sync()
        elif kind in ("fsync", "msync_m", "munmap"):
            self.lookup(op[1]).sync()
        elif kind == "mmap":
            self.open(op[1], f.O_CREAT).sync()
        elif kind == "mstore":
            self.lookup(op[1]).stage(op[2], payload(op[3], op_index))
        elif kind == "rename":
            self.rename(op[1], op[2])
        elif kind == "unlink":
            self.unlink(op[1])
        elif kind == "truncate":
            self.truncate(op[1], op[2])
        elif kind != "tick":
            raise ValueError("unknown op kind %r" % (kind,))

    # -- refinement ---------------------------------------------------------

    def mismatches(self, tree):
        """Why a recovered ``tree`` -- path -> its bytes, or :data:`DIR`
        -- is not this state, one reason each; none when it refines it:
        the same paths, of the same kinds, and every promised file reads
        back at least its ``synced`` bytes, exactly those when clean."""
        problems = []
        if tree.keys() != self.tree.keys():
            problems += ["path %s missing" % path
                         for path in sorted(self.tree.keys() - tree.keys())]
            problems += ["path %s present" % path
                         for path in sorted(tree.keys() - self.tree.keys())]
        for path, node in sorted(self.tree.items()):
            got = tree.get(path)
            if got is None:
                continue
            if (node is DIR) != (got is DIR):
                problems.append("path %s is a %s" % (
                    path, "directory" if got is DIR else "file"))
            elif node is not DIR and node.synced is not None:
                synced = node.synced
                if len(got) < len(synced):
                    problems.append("fsynced bytes lost on %s: %d < %d"
                                    % (path, len(got), len(synced)))
                elif node.clean and got[:len(synced)] != synced:
                    problems.append("fsynced content of %s corrupted" % path)
        return problems
