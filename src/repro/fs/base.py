"""The inode-level interface every concrete file system implements.

The :class:`repro.fs.vfs.VFS` handles paths, file descriptors, and
syscall-overhead accounting, then calls into this interface.  Inode
numbers are opaque positive integers; inode 1 is always the root
directory.

Data-path operations travel as :class:`repro.io.IORequest` objects
through :meth:`FileSystem.submit`, the one entry point callers above a
file system use: it dispatches to the three per-fs hooks ``read_iter``/
``write_iter``/``sync_iter`` -- one per behaviour, not one per caller;
``sync_iter`` alone decides all four ``(req.eager, req.datasync)`` cases.
The positional ``read``/``write``/``fsync`` conveniences are defined
once, here: each builds a request and submits it too.

Mapped I/O has one hook as well: :meth:`FileSystem.mmap` returns the one
mapping type (:class:`repro.io.mmio.MmioMapping`), and its ``policy``
keyword -- ``None``, ``"undo"``, ``"redo"`` or ``"auto"`` -- says
whether it is a plain mapping or a crash-atomic ``MAP_ATOMIC`` one.
"""

from repro.fs.errors import InvalidArgument
from repro.io import OP_READ, OP_SYNC, OP_WRITE, IORequest

ROOT_INO = 1

S_IFREG = 1
S_IFDIR = 2

#: The op switch of :meth:`FileSystem.submit`: the hook that runs each
#: request op.  An override that routes some requests elsewhere (a live
#: MAP_ATOMIC mapping) dispatches the rest through it in the same frame.
ITER_HOOKS = {OP_READ: "read_iter", OP_WRITE: "write_iter",
              OP_SYNC: "sync_iter"}


class FileStat:
    """stat(2)-style attributes returned by :meth:`FileSystem.getattr`."""

    __slots__ = ("ino", "kind", "size", "nlink", "mtime_ns", "ctime_ns")

    def __init__(self, ino, kind, size, nlink=1, mtime_ns=0, ctime_ns=0):
        self.ino = ino
        self.kind = kind
        self.size = size
        self.nlink = nlink
        self.mtime_ns = mtime_ns
        self.ctime_ns = ctime_ns

    @property
    def is_dir(self):
        return self.kind == S_IFDIR

    def __repr__(self):
        return "FileStat(ino=%d, kind=%d, size=%d)" % (self.ino, self.kind, self.size)


class FileSystem:
    """Abstract inode-level file system.

    Every method takes the calling simulated thread's ``ctx`` first and
    charges all media and software costs to it.  Implementations must be
    functionally correct (reads return the newest written bytes).
    """

    name = "abstract"

    #: Set by :meth:`mount` implementations when the image could not be
    #: recovered cleanly (e.g. the journal region has bad media lines).
    #: The VFS flips such a mount read-only (``errors=remount-ro``).
    degraded_reason = None

    # -- namespace ------------------------------------------------------

    def lookup(self, ctx, parent_ino, name):
        """Return the inode number for ``name`` in directory ``parent_ino``
        or ``None`` when absent."""
        raise NotImplementedError

    def create_file(self, ctx, parent_ino, name):
        """Create an empty regular file; returns the new inode number."""
        raise NotImplementedError

    def mkdir(self, ctx, parent_ino, name):
        """Create a directory; returns the new inode number."""
        raise NotImplementedError

    def unlink(self, ctx, parent_ino, name, ino):
        """Remove a regular file."""
        raise NotImplementedError

    def rmdir(self, ctx, parent_ino, name, ino):
        """Remove an (empty) directory."""
        raise NotImplementedError

    def rename(self, ctx, old_parent, old_name, new_parent, new_name, ino,
               replaced_ino=None):
        """Move ``ino`` from one dirent to another, atomically; the file
        keeps ``ino``, so nothing is returned.

        ``replaced_ino`` is the inode currently at the destination (to be
        released), or ``None`` when the destination is free.
        """
        raise NotImplementedError

    def readdir(self, ctx, ino):
        """Return a list of ``(name, ino)`` pairs."""
        raise NotImplementedError

    def getattr(self, ctx, ino):
        """Return a :class:`FileStat`."""
        raise NotImplementedError

    # -- file I/O ---------------------------------------------------------

    def submit(self, ctx, req):
        """Execute one :class:`~repro.io.IORequest` against this fs.

        Dispatches to :meth:`write_iter`/:meth:`read_iter`/
        :meth:`sync_iter`.  Writes return the number of bytes written;
        reads return the flat bytes (the VFS scatters them back into the
        caller's iovecs); sync requests return 0 -- or, when the request
        allows it (``eager=False``), a pending
        :class:`~repro.engine.locks.VCompletion` the submission ring
        resolves into a CQE when the persist actually lands.
        """
        return getattr(self, ITER_HOOKS[req.op])(ctx, req)

    def write_iter(self, ctx, req):
        """Write the request's gathered payload at ``req.offset``.

        ``req.eager`` requests synchronous persistence (O_SYNC / sync
        mount): the bytes must be durable when the call returns.  Returns
        the number of bytes written.
        """
        raise NotImplementedError

    def read_iter(self, ctx, req):
        """Return up to ``req.total_bytes`` bytes from ``req.offset``
        (short at EOF) as one flat buffer."""
        raise NotImplementedError

    def sync_iter(self, ctx, req):
        """Execute one OP_SYNC request: the file system's ONE sync hook.

        ``req.datasync`` selects fdatasync(2) -- the inode's *data* (and
        any metadata needed to retrieve it, e.g. its size) must be
        durable; other metadata, and on the journaling stacks the
        metadata commit for pure overwrites, may persist lazily.
        ``req.eager`` means the work happens in the foreground and 0 is
        returned.  Without it a file system whose persist point genuinely
        lands later (HiNFS async flushes, jbd2 commits) may return a
        pending :class:`~repro.engine.locks.VCompletion` instead, letting
        the ring complete the CQE at the persist's virtual time.
        """
        raise NotImplementedError

    # Positional conveniences for callers below the VFS (recovery, crash
    # checking, tests): each builds one request and submits it, so
    # whatever ``submit`` routes (a live MAP_ATOMIC mapping, a shard)
    # routes here too.

    def read(self, ctx, ino, offset, count):
        """Return up to ``count`` bytes from ``offset`` (short at EOF)."""
        req = IORequest(self.env.next_req_id(), OP_READ, ino, [count], offset)
        return self.submit(ctx, req)

    def write(self, ctx, ino, offset, data, eager=False):
        """Write ``data`` at ``offset``.

        ``eager=True`` requests synchronous persistence (O_SYNC / sync
        mount): the bytes must be durable when the call returns.  Returns
        the number of bytes written.
        """
        req = IORequest(self.env.next_req_id(), OP_WRITE, ino, [data], offset,
                        eager=eager)
        return self.submit(ctx, req)

    def fsync(self, ctx, ino):
        """Make all of the inode's data and metadata durable on return."""
        self.submit(ctx, IORequest(self.env.next_req_id(), OP_SYNC, ino, (),
                                   0, eager=True))

    def truncate(self, ctx, ino, new_size):
        """Grow or shrink the file to ``new_size`` bytes."""
        raise NotImplementedError

    # -- memory-mapped I/O --------------------------------------------------

    def mmap(self, ctx, ino, policy=None, log_blocks=4, log_checksums=True):
        """Map a file for direct access (direct-access stacks only);
        returns a :class:`~repro.io.mmio.MmioMapping`.

        ``policy`` is the crash contract of the stores made through it:
        ``None`` is a plain mapping (volatile until ``msync``, no
        atomicity); ``"undo"``, ``"redo"`` or ``"auto"`` is
        ``MAP_ATOMIC`` -- an epoch log of ``log_blocks`` blocks
        (``log_checksums`` guards its entries) makes every ``msync``'d
        epoch all-or-nothing.  An atomic mapping is exclusive: mapping
        an inode that has one, or atomically mapping an inode that has
        any live mapping, raises ``InvalidArgument``.
        """
        raise InvalidArgument("%s does not support mmap" % self.name)

    # -- deferred writeback errors ----------------------------------------

    @property
    def wb_err(self):
        """The file system's errseq-style writeback-error map (lazy).

        The map is owned by the underlying device, not the mount, so an
        unreported writeback error survives unmount/remount -- the model
        of a persistent media error log (NVDIMM address-range-scrub
        badblock records): remounting the same device cannot make an
        unacknowledged loss disappear.
        """
        errs = getattr(self, "_wb_err_map", None)
        if errs is None:
            from repro.faults.errseq import ErrseqMap

            dev = getattr(self, "device", None)
            if dev is None:
                dev = getattr(getattr(self, "bdev", None), "nvmm", None)
            if dev is not None:
                errs = getattr(dev, "wb_err_log", None)
                if errs is None:
                    errs = dev.wb_err_log = ErrseqMap()
            else:
                errs = ErrseqMap()
            self._wb_err_map = errs
        return errs

    def note_wb_error(self, ino):
        """Record an asynchronous writeback failure against ``ino``.

        Called by background flushers when a persist fails after the
        write was already acknowledged; the next ``fsync``/``close`` of
        the file reports EIO exactly once per fd.  ``wb_error_hook`` (set
        by the VFS) also fires, feeding the remount-ro error threshold.
        """
        self.wb_err.record(ino)
        hook = getattr(self, "wb_error_hook", None)
        if hook is not None:
            hook(ino)

    # -- integrity ---------------------------------------------------------

    def scrub(self, ctx):
        """Walk allocated extents, verify/repair bad media, return a
        :class:`~repro.fs.scrub.ScrubReport`: one pass of the scrubber
        of this fs's on-media layout (:mod:`repro.fs.scrub`)."""
        raise NotImplementedError

    # -- lifecycle --------------------------------------------------------

    def unmount(self, ctx):
        """Flush all volatile state (HiNFS flushes its DRAM buffer here)."""

    def drop_caches(self):
        """Discard clean cached state (the paper clears the OS page cache
        before every measured run).  Flush first via :meth:`unmount`."""
