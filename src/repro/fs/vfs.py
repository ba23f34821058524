"""The syscall surface: paths, file descriptors, and overhead accounting.

Workloads talk to a :class:`VFS`, never to a file system directly.  The
VFS charges the user/kernel mode-switch and file-abstraction costs that
the paper's Figure 1 groups under *Others*, resolves paths through a
dentry cache, tracks per-syscall time (Figure 12's breakdown), and
forwards inode-level work to the mounted file system.

Data syscalls build one :class:`repro.io.IORequest` each -- vectored
variants (``readv``/``writev``/``pwritev``/``preadv``) put the whole
iovec list in a single request, so the fs below sees one operation, one
syscall-overhead charge, and (for HiNFS) one eager/lazy decision.

Concurrency: the VFS serializes per inode, not globally.  Data reads
take the file's inode lock shared, writes/fsync/truncate take it
exclusive, and multi-inode namespace operations (``rename``, ``unlink``)
acquire their whole inode set in the canonical lowest-inode-first order
(enforced by :class:`repro.engine.locks.InodeLockTable` -- an inverted
pair raises ``DeadlockError`` instead of hanging).  Threads touching
disjoint files never contend here; shared bottlenecks below (NVMM writer
slots, the journal) remain the only cross-file serialization.
"""

from repro.engine.locks import InodeLockTable
from repro.fs import flags as f
from repro.fs.base import ROOT_INO
from repro.fs.health import MountHealth
from repro.io import OP_READ, OP_SYNC, OP_WRITE, IORequest
from repro.io import ring as uring
from repro.obs.trace import LAYER_FS
from repro.fs.errors import (
    BadFileDescriptor,
    ExistsError,
    InvalidArgument,
    IsADirectory,
    MediaError,
    NotADirectory,
    NotFound,
    ReadOnly,
)


class OpenFile:
    """One entry in the open-file table."""

    __slots__ = ("fd", "ino", "flags", "pos", "path", "wb_cursor")

    def __init__(self, fd, ino, flags, path, wb_cursor=0):
        self.fd = fd
        self.ino = ino
        self.flags = flags
        self.pos = 0
        self.path = path
        #: errseq cursor sampled at open: deferred writeback errors newer
        #: than this are reported by the next fsync/close on this fd.
        self.wb_cursor = wb_cursor


class _Syscall:
    """One namespace syscall: its span and entry charge on enter, one
    completed op on a clean exit (a syscall that raises completed
    nothing)."""

    __slots__ = ("vfs", "ctx", "span")

    def __init__(self, vfs, ctx, name):
        self.vfs = vfs
        self.ctx = ctx
        self.span = ctx.syscall(name)

    def __enter__(self):
        self.span.__enter__()
        vfs = self.vfs
        self.ctx.charge(vfs.config.syscall_ns + vfs.config.vfs_op_ns)
        vfs.env.stats.bump("vfs_syscall_entries")

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.vfs.env.stats.ops_completed += 1
        return self.span.__exit__(exc_type, exc, tb)


class VFS:
    """Path/descriptor layer over one mounted file system.

    Failure semantics: media errors surface to the caller as EIO
    (:class:`MediaError`), and the mount's posture is governed by a
    :class:`~repro.fs.health.MountHealth` state machine.  Once
    ``media_error_threshold`` errors have been seen -- synchronous or via
    background writeback -- the mount degrades to read-only (mutations
    raise :class:`ReadOnly` while reads of good media keep being served);
    further errors while degraded isolate it entirely; a clean
    :meth:`scrub` pass recovers it back to read-write.  A mount whose
    journal recovery failed starts out degraded.
    """

    def __init__(self, env, fs, config, sync_mount=False,
                 media_error_threshold=5):
        self.env = env
        self.fs = fs
        self.config = config
        #: ``mount -o sync``: every write becomes eager-persistent
        #: (the paper's Section 3.3.2, case (1)).
        self.sync_mount = sync_mount
        self._files = {}
        self._next_fd = 3
        #: Per-inode reader/writer locks (shared for reads, exclusive
        #: for writes/fsync/truncate and namespace mutations).
        self.ilocks = InodeLockTable(env)
        # (parent_ino, name) -> child ino; the kernel's dentry cache.
        self._dcache = {}
        # Per-inode bytes written since the last fsync, for the paper's
        # Figure 2 "percentage of fsync bytes" accounting.
        self._unsynced_bytes = {}
        #: Mount-health FSM (HEALTHY -> DEGRADED_RO -> ISOLATED with a
        #: scrub-driven recovery edge back to HEALTHY).
        self.health = MountHealth(
            env, media_error_threshold=media_error_threshold)
        fs.wb_error_hook = self._on_async_media_error
        #: Per-tenant QoS controller (:class:`repro.fs.qos.QosController`)
        #: or None; the data path consults it once per request.
        self.qos = None
        #: Per-thread submission/completion rings (see :meth:`ring`).
        self._rings = {}
        if fs.degraded_reason:
            # errors=remount-ro: a mount whose recovery failed starts
            # degraded instead of crashing the scheduler.
            self.health.force_degraded(0, fs.degraded_reason)

    # -- QoS ---------------------------------------------------------------

    def attach_qos(self, qos):
        """Install a :class:`repro.fs.qos.QosController` on the data path
        and return it.  Untenanted requests are unaffected; detach by
        attaching ``None``.
        """
        self.qos = qos
        return qos

    # -- degradation / health --------------------------------------------

    def _check_writable(self, what, path):
        """Refuse ``what`` (``"write to"``, ``"create of"``, ...) of
        ``path`` unless the mount is writable; the message is only
        formatted when it is raised."""
        if not self.health.writable:
            raise ReadOnly(
                "%s %r on %s mount (%s)"
                % (what, path, self.health.state, self.health.reason)
            )

    def _check_readable(self, what, path):
        """An ISOLATED mount refuses even reads (the media is rotting)."""
        if not self.health.readable:
            raise MediaError(
                "%s %r on isolated mount (%s)" % (what, path,
                                                  self.health.reason)
            )

    def _on_async_media_error(self, ino):
        """Background writeback hit bad media; nobody to raise at, so the
        error only feeds the degradation threshold (and the errseq map,
        which the next fsync/close of the file reports from)."""
        self.health.count_media_error(0)

    def _guarded(self, ctx, fs_call, *args, **kwargs):
        """Run a synchronous namespace call into the fs, counting an
        EIO from it toward the health FSM."""
        try:
            return fs_call(ctx, *args, **kwargs)
        except MediaError:
            self.health.count_media_error(ctx.now)
            raise

    def scrub(self, ctx):
        """Run one scrub/repair pass and feed the result to the FSM.

        A clean pass (every bad line repaired or isolated) recovers a
        degraded mount back to HEALTHY read-write.  Returns the
        :class:`~repro.fs.scrub.ScrubReport`.
        """
        report = self.fs.scrub(ctx)
        self.health.scrub_result(ctx.now, report)
        self.env.stats.bump("scrub_runs")
        return report

    def _check_wb_error(self, file):
        """Report a deferred writeback error exactly once per fd."""
        hit, file.wb_cursor = self.fs.wb_err.check(file.ino, file.wb_cursor)
        if hit:
            raise MediaError(
                "deferred writeback error on %r (EIO)" % file.path
            )

    # -- internals ------------------------------------------------------

    def _file(self, fd):
        try:
            return self._files[fd]
        except KeyError:
            raise BadFileDescriptor("fd %d is not open" % fd) from None

    @staticmethod
    def _split(path):
        parts = [p for p in path.split("/") if p]
        if not parts:
            raise InvalidArgument("empty path %r" % path)
        return parts[:-1], parts[-1]

    def _walk(self, ctx, components):
        """Resolve directory components from the root; returns an ino."""
        ino = ROOT_INO
        for name in components:
            cached = self._dcache.get((ino, name))
            if cached is not None:
                ino = cached
                continue
            ctx.charge(self.config.index_lookup_ns)
            child = self.fs.lookup(ctx, ino, name)
            if child is None:
                raise NotFound("component %r not found" % name)
            self._dcache[(ino, name)] = child
            ino = child
        return ino

    def _resolve_parent(self, ctx, path):
        dirs, name = self._split(path)
        return self._walk(ctx, dirs), name

    def _lookup_child(self, ctx, parent, name):
        cached = self._dcache.get((parent, name))
        if cached is not None:
            return cached
        ctx.charge(self.config.index_lookup_ns)
        child = self.fs.lookup(ctx, parent, name)
        if child is not None:
            self._dcache[(parent, name)] = child
        return child

    # -- namespace syscalls ----------------------------------------------

    def open(self, ctx, path, flags=f.O_RDWR):
        """open(2); returns a file descriptor."""
        with _Syscall(self, ctx, "open"):
            parent, name = self._resolve_parent(ctx, path)
            ino = self._lookup_child(ctx, parent, name)
            if ino is None:
                if not flags & f.O_CREAT:
                    raise NotFound(path)
                self._check_writable("create of", path)
                ino = self._guarded(ctx, self.fs.create_file, parent, name)
                # A new inode starts with a clean errseq, even where it
                # reuses the number of an unlinked file with an error
                # no descriptor reported.
                self.fs.wb_err.drop(ino)
                self._dcache[(parent, name)] = ino
            else:
                if self.fs.getattr(ctx, ino).is_dir:
                    raise IsADirectory(path)
                if flags & f.O_TRUNC and f.writable(flags):
                    self._check_writable("truncate of", path)
                    with self.ilocks.write_locked(ctx, ino):
                        self._guarded(ctx, self.fs.truncate, ino, 0)
            fd = self._next_fd
            self._next_fd += 1
            self._files[fd] = OpenFile(
                fd, ino, flags, path, wb_cursor=self.fs.wb_err.sample(ino)
            )
            return fd

    def close(self, ctx, fd):
        with _Syscall(self, ctx, "close"):
            file = self._file(fd)
            del self._files[fd]
        # Like Linux filp_close: the fd is gone and the close counted
        # either way, but a deferred writeback error unreported on this
        # fd surfaces now.
        self._check_wb_error(file)

    def mkdir(self, ctx, path):
        with _Syscall(self, ctx, "mkdir"):
            self._check_writable("mkdir of", path)
            parent, name = self._resolve_parent(ctx, path)
            if self._lookup_child(ctx, parent, name) is not None:
                raise ExistsError(path)
            ino = self._guarded(ctx, self.fs.mkdir, parent, name)
            self._dcache[(parent, name)] = ino
            return ino

    def unlink(self, ctx, path):
        with _Syscall(self, ctx, "unlink"):
            self._check_writable("unlink of", path)
            parent, name = self._resolve_parent(ctx, path)
            ino = self._lookup_child(ctx, parent, name)
            if ino is None:
                raise NotFound(path)
            if self.fs.getattr(ctx, ino).is_dir:
                raise IsADirectory(path)
            # Parent and victim locked together, lowest inode first.
            with self.ilocks.write_locked_many(ctx, (parent, ino)):
                self._guarded(ctx, self.fs.unlink, parent, name, ino)
            self.ilocks.drop(ino)
            self._dcache.pop((parent, name), None)
            self._unsynced_bytes.pop(ino, None)

    def rmdir(self, ctx, path):
        with _Syscall(self, ctx, "rmdir"):
            self._check_writable("rmdir of", path)
            parent, name = self._resolve_parent(ctx, path)
            ino = self._lookup_child(ctx, parent, name)
            if ino is None:
                raise NotFound(path)
            if not self.fs.getattr(ctx, ino).is_dir:
                raise NotADirectory(path)
            self._guarded(ctx, self.fs.rmdir, parent, name, ino)
            self._dcache.pop((parent, name), None)

    def rename(self, ctx, old_path, new_path):
        """rename(2): atomically move ``old_path`` to ``new_path``.

        An existing regular file at the destination is replaced (the
        POSIX overwrite semantics crash-consistency tooling cares about:
        at no crash point do both names vanish).  Replacing a directory
        is rejected to keep the namespace model simple.
        """
        with _Syscall(self, ctx, "rename"):
            self._check_writable("rename of", old_path)
            old_parent, old_name = self._resolve_parent(ctx, old_path)
            ino = self._lookup_child(ctx, old_parent, old_name)
            if ino is None:
                raise NotFound(old_path)
            new_parent, new_name = self._resolve_parent(ctx, new_path)
            if (old_parent, old_name) == (new_parent, new_name):
                return
            replaced = self._lookup_child(ctx, new_parent, new_name)
            if replaced is not None:
                moving_dir = self.fs.getattr(ctx, ino).is_dir
                if self.fs.getattr(ctx, replaced).is_dir:
                    raise IsADirectory(new_path)
                if moving_dir:
                    raise NotADirectory(new_path)
            # Both parents, the moved inode, and any replaced victim are
            # locked as one set in the canonical ascending-inode order;
            # concurrent cross renames (a->b, b->a) therefore cannot
            # deadlock -- both threads lock the same sequence.
            lock_set = [old_parent, new_parent, ino]
            if replaced is not None:
                lock_set.append(replaced)
            with self.ilocks.write_locked_many(ctx, lock_set):
                self._guarded(
                    ctx, self.fs.rename, old_parent, old_name, new_parent,
                    new_name, ino, replaced_ino=replaced,
                )
            if replaced is not None:
                self.ilocks.drop(replaced)
                self._unsynced_bytes.pop(replaced, None)
            self._dcache.pop((old_parent, old_name), None)
            self._dcache[(new_parent, new_name)] = ino

    def readdir(self, ctx, path):
        with _Syscall(self, ctx, "readdir"):
            parts = [p for p in path.split("/") if p]
            ino = self._walk(ctx, parts)
            if not self.fs.getattr(ctx, ino).is_dir:
                raise NotADirectory(path)
            return self.fs.readdir(ctx, ino)

    def stat(self, ctx, path):
        with _Syscall(self, ctx, "stat"):
            parts = [p for p in path.split("/") if p]
            ino = self._walk(ctx, parts) if parts else ROOT_INO
            return self.fs.getattr(ctx, ino)

    def exists(self, ctx, path):
        try:
            self.stat(ctx, path)
            return True
        except NotFound:
            return False

    # -- the data path -------------------------------------------------------
    #
    # Every data operation is one SQE executed by :meth:`execute`, reached
    # through the thread's ring either way: the sync syscalls below call
    # ``ring.execute_one`` (value back or exception raised, no queues),
    # batching workloads ``ring.submit`` many SQEs and pay the
    # ``T_syscall`` mode switch once per batch instead of once per op.

    def ring(self, ctx, sq_depth=64):
        """This thread's :class:`repro.io.ring.IORing` (lazily created)."""
        ring = self._rings.get(ctx)
        if ring is None:
            ring = uring.IORing(self, ctx, sq_depth=sq_depth)
            self._rings[ctx] = ring
        return ring

    def execute(self, ctx, sqe, ring):
        """Run one SQE: descriptor and generic checks, one
        :class:`IORequest`, then the request pipeline every data
        operation shares, in order, under the syscall's span: the entry
        charge (the ring's batch pays ``T_syscall`` once), QoS admission,
        the inode lock (shared for reads, exclusive for writes and
        syncs), the fs -- an EIO from it feeds the health FSM before the
        lock is released -- and the completed op count.

        Returns a read's per-iovec buffers, a write's byte count, or for
        fsync 0 -- unless the SQE allows a deferred completion
        (``IOSQE_ASYNC``) and the fs hands back a pending
        :class:`~repro.engine.locks.VCompletion`.  ``sqe.offset is None``
        means read(2)/write(2) semantics: use the descriptor's position
        (honouring O_APPEND) and advance it.  The descriptor is resolved
        before anything is charged or recorded, for every opcode.
        """
        # An OpenFile is always true: _file only runs to raise EBADF.
        file = self._files.get(sqe.fd) or self._file(sqe.fd)
        op = sqe.op
        positional = sqe.offset is None
        if op == uring.IORING_OP_FSYNC:
            # The span is made before the request is built: a traced run
            # draws the span's id, then the request's, and the golden
            # fixtures pin that order.
            syscall = ctx.syscall(sqe.syscall)
            req = IORequest(
                self.env.next_req_id(), OP_SYNC, file.ino, (), 0,
                flags=file.flags, eager=not sqe.flags & uring.IOSQE_ASYNC,
                datasync=bool(sqe.fsync_flags & uring.IORING_FSYNC_DATASYNC),
                syscall=sqe.syscall, tenant=sqe.tenant,
            )
            mode = "write"
        elif op == uring.IORING_OP_READV:
            if not f.readable(file.flags):
                raise ReadOnly("fd %d not open for reading" % sqe.fd)
            self._check_readable("read of", file.path)
            offset = file.pos if positional else sqe.offset
            if offset < 0 or min(sqe.iovecs, default=0) < 0:
                raise InvalidArgument("negative offset/count")
            req = IORequest(
                self.env.next_req_id(), OP_READ, file.ino, sqe.iovecs, offset,
                flags=file.flags, syscall=sqe.syscall, tenant=sqe.tenant,
            )
            syscall = ctx.syscall(sqe.syscall, req=req)
            mode = "read"
        else:
            if not f.writable(file.flags):
                raise ReadOnly("fd %d not open for writing" % sqe.fd)
            if positional:
                if file.flags & f.O_APPEND:
                    file.pos = self.fs.getattr(ctx, file.ino).size
                offset = file.pos
            else:
                offset = sqe.offset
            if offset < 0:
                raise InvalidArgument("negative offset")
            self._check_writable("write to", file.path)
            eager = self.sync_mount or bool(
                file.flags & (f.O_SYNC | f.O_DSYNC))
            req = IORequest(
                self.env.next_req_id(), OP_WRITE, file.ino, sqe.iovecs, offset,
                flags=file.flags, eager=eager, datasync=bool(
                    eager and not self.sync_mount
                    and not file.flags & f.O_SYNC),
                syscall=sqe.syscall, tenant=sqe.tenant,
            )
            syscall = ctx.syscall(sqe.syscall, req=req)
            mode = "write"
        counters = self.env.stats.counters
        with syscall:
            config = self.config
            if ring._entry_done:
                ctx.charge(config.vfs_op_ns)
            else:
                ring._entry_done = True
                ctx.charge(config.syscall_ns + config.vfs_op_ns)
                counters["vfs_syscall_entries"] += 1
            if self.qos is not None:
                self.qos.admit(ctx, req)
            ino = file.ino
            lock = self.ilocks.acquire(ctx, ino, mode)
            sp = ctx.trace_span
            fs_start = ctx.now
            try:
                result = self.fs.submit(ctx, req)
            except MediaError:
                self.health.count_media_error(ctx.now)
                raise
            finally:
                if sp is not None:
                    sp.add_phase(LAYER_FS, fs_start, ctx.now)
                self.ilocks.release(ctx, lock, ino, mode)
            self.env.stats.ops_completed += 1
            if op == uring.IORING_OP_FSYNC:
                counters["app_bytes_fsynced"] += \
                    self._unsynced_bytes.pop(ino, 0)
                # A deferred error from background writeback of this
                # inode is reported by the first fsync after it was
                # recorded -- exactly once per fd (errseq semantics).
                self._check_wb_error(file)
                return result
            if op == uring.IORING_OP_READV:
                moved = len(result)
                result = req.scatter(result)
            else:
                moved = result
                counters["app_bytes_written"] += moved
                if req.eager:
                    counters["app_bytes_fsynced"] += moved
                else:
                    self._unsynced_bytes[ino] = \
                        self._unsynced_bytes.get(ino, 0) + moved
        if positional:
            file.pos += moved
        return result

    # -- data syscalls: one SQE each, executed now --------------------------

    def read(self, ctx, fd, count):
        """read(2) at the descriptor's position."""
        return self.ring(ctx).execute_one(uring.prep_read(fd, count))[0]

    def pread(self, ctx, fd, offset, count):
        """pread(2): positioned single-buffer read."""
        return self.ring(ctx).execute_one(
            uring.prep_read(fd, count, offset))[0]

    def readv(self, ctx, fd, sizes):
        """readv(2): scatter-read at the descriptor's position."""
        return self.ring(ctx).execute_one(uring.prep_readv(fd, sizes))

    def preadv(self, ctx, fd, offset, sizes):
        """preadv(2): positioned scatter read."""
        return self.ring(ctx).execute_one(
            uring.prep_readv(fd, sizes, offset, syscall="preadv"))

    def write(self, ctx, fd, data):
        """write(2) at the descriptor's position (honours O_APPEND)."""
        return self.ring(ctx).execute_one(uring.prep_write(fd, data))

    def pwrite(self, ctx, fd, offset, data):
        """pwrite(2): positioned single-buffer write."""
        return self.ring(ctx).execute_one(uring.prep_write(fd, data, offset))

    def writev(self, ctx, fd, iovecs):
        """writev(2) at the descriptor's position (honours O_APPEND).

        The whole iovec list is ONE request: one syscall-overhead
        charge, one fs submission, one eager/lazy decision below.
        """
        return self.ring(ctx).execute_one(uring.prep_writev(fd, iovecs))

    def pwritev(self, ctx, fd, offset, iovecs):
        """pwritev(2): positioned gather write."""
        return self.ring(ctx).execute_one(
            uring.prep_writev(fd, iovecs, offset, syscall="pwritev"))

    def fsync(self, ctx, fd):
        """fsync(2): the file's data and metadata are durable on return."""
        self.ring(ctx).execute_one(uring.prep_fsync(fd))

    def fdatasync(self, ctx, fd):
        """fdatasync(2): the file's data (and the metadata needed to read
        it back) is durable on return; clean-metadata commits are
        skipped."""
        self.ring(ctx).execute_one(uring.prep_fsync(fd, datasync=True))

    def truncate(self, ctx, path, new_size):
        with _Syscall(self, ctx, "truncate"):
            self._check_writable("truncate of", path)
            parts = [p for p in path.split("/") if p]
            ino = self._walk(ctx, parts)
            with self.ilocks.write_locked(ctx, ino), ctx.layer("fs"):
                self._guarded(ctx, self.fs.truncate, ino, new_size)

    def lseek(self, ctx, fd, pos, whence=f.SEEK_SET):
        """lseek(2): reposition the descriptor; returns the new offset.

        Seeking past EOF is allowed (a later write leaves a hole that
        reads back as zeros); a resulting negative offset is EINVAL.
        """
        file = self._file(fd)
        if whence == f.SEEK_SET:
            new_pos = int(pos)
        elif whence == f.SEEK_CUR:
            new_pos = file.pos + int(pos)
        elif whence == f.SEEK_END:
            new_pos = self.fs.getattr(ctx, file.ino).size + int(pos)
        else:
            raise InvalidArgument("unknown whence %r" % (whence,))
        if new_pos < 0:
            raise InvalidArgument("lseek to negative offset %d" % new_pos)
        file.pos = new_pos
        return new_pos

    def fstat(self, ctx, fd):
        """fstat(2): attributes of an open descriptor."""
        with _Syscall(self, ctx, "fstat"):
            return self.fs.getattr(ctx, self._file(fd).ino)

    # -- memory-mapped I/O ----------------------------------------------------

    def mmap(self, ctx, fd, flags=0, policy="auto", log_blocks=4,
             log_checksums=True):
        """mmap(2): map an open descriptor for direct access.

        This is the *last* syscall of the library-mode path: with
        ``flags & MAP_ATOMIC`` the returned
        :class:`~repro.io.mmio.MmioMapping`'s ``load``/``store``/
        ``msync`` run entirely in the process -- zero syscall charges
        after this call -- with a per-file epoch log (``policy`` picks
        undo/redo/auto, Libnvmmio-style) keeping stores crash-atomic.
        Without it the same mapping type with no log (``policy`` is
        ignored): stores are volatile until ``msync`` and not atomic.
        """
        with _Syscall(self, ctx, "mmap"):
            file = self._file(fd)
            if not flags & f.MAP_ATOMIC:
                policy = None
            else:
                self._check_writable("atomic mmap of", file.path)
                if not f.writable(file.flags):
                    raise InvalidArgument(
                        "MAP_ATOMIC needs a writable descriptor")
            with ctx.layer("fs"):
                return self._guarded(ctx, self.fs.mmap, file.ino, policy,
                                     log_blocks, log_checksums)

    def msync(self, ctx, region):
        with _Syscall(self, ctx, "msync"):
            return region.msync(ctx)

    def munmap(self, ctx, region):
        with _Syscall(self, ctx, "munmap"):
            region.munmap(ctx)

    # -- whole-file helpers (workload convenience, still charged) ---------

    def read_file(self, ctx, path, chunk=1 << 20):
        """Open, read fully, close; returns the bytes.

        The whole file is ONE scatter-read request sized from fstat
        (``chunk``-grained iovecs), not a loop of N accounted reads.
        """
        fd = self.open(ctx, path, f.O_RDONLY)
        size = self.fstat(ctx, fd).size
        if size == 0:
            self.close(ctx, fd)
            return b""
        sizes = self._chunk_sizes(size, chunk)
        bufs = self.ring(ctx).execute_one(
            uring.prep_readv(fd, sizes, 0, syscall="read"))
        self.close(ctx, fd)
        return b"".join(bufs)

    def write_file(self, ctx, path, data, chunk=1 << 20, sync=False):
        """Create/overwrite ``path`` with ``data``.

        The payload goes down as ONE gather-write request with
        ``chunk``-sized iovecs, not a loop of N accounted writes.  With
        ``sync=True`` the write and its fsync travel as ONE linked
        two-SQE batch (write -> IOSQE_IO_LINK -> fsync), so the pair
        pays a single syscall entry.
        """
        fd = self.open(ctx, path, f.O_RDWR | f.O_CREAT | f.O_TRUNC)
        data = bytes(data)
        if data:
            iovecs = [data[start : start + chunk]
                      for start in range(0, len(data), chunk)]
            write_sqe = uring.prep_writev(fd, iovecs, 0, syscall="write")
            if sync:
                write_sqe.flags |= uring.IOSQE_IO_LINK
                cqes = self.ring(ctx).submit_and_wait(
                    [write_sqe, uring.prep_fsync(fd)])
                for cqe in cqes:
                    # The first real failure; the fsync it cancelled
                    # rides behind it.
                    if cqe.error is not None and \
                            cqe.res != -uring.ECANCELED:
                        raise cqe.error
            else:
                self.ring(ctx).execute_one(write_sqe)
        elif sync:
            self.fsync(ctx, fd)
        self.close(ctx, fd)

    @staticmethod
    def _chunk_sizes(size, chunk):
        """Iovec sizes covering ``size`` bytes in ``chunk``-sized pieces."""
        return [min(chunk, size - start) for start in range(0, size, chunk)]

    # -- lifecycle ---------------------------------------------------------

    def reset_accounting(self):
        """Forget fsync-byte bookkeeping (called when stats are reset)."""
        self._unsynced_bytes.clear()

    def unmount(self, ctx):
        """Flush everything volatile; the fs must be consistent afterwards."""
        self._files.clear()
        self.fs.unmount(ctx)
