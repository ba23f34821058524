"""kiocb-style I/O request objects built at the VFS syscall boundary.

An :class:`IORequest` carries everything a data-path operation needs
across layer boundaries: the operation kind, the target inode, an iovec
list, the file offset, the originating open-flags, the sync policy
(eager vs. lazy persistence), and -- when tracing is enabled -- the
request's trace span.  File systems consume requests through
:meth:`repro.fs.base.FileSystem.submit` instead of positional
arguments, which is what lets the VFS expose vectored I/O
(``readv``/``writev``/``pwritev``) with one syscall-overhead charge and
one persistence decision per request rather than per fragment.

Iovec conventions (matching ``struct iovec`` semantics):

- **writes**: each iovec is a bytes-like fragment; fragments are
  gathered into one contiguous file range starting at ``offset``.
- **reads**: each iovec is an integer byte count; the file range
  starting at ``offset`` is scattered back into per-iovec buffers.
"""

OP_READ = "read"
OP_WRITE = "write"
#: fsync/fdatasync travelling the same pipeline as data requests: no
#: payload (empty iovec list), ``datasync`` selects the data-only
#: variant, and :meth:`repro.fs.base.FileSystem.submit` may return a
#: pending :class:`repro.engine.locks.VCompletion` instead of a result.
OP_SYNC = "sync"


class IORequest:
    """One in-flight data-path operation crossing the layer stack."""

    __slots__ = ("req_id", "op", "ino", "iovecs", "total_bytes", "offset",
                 "flags", "eager", "datasync", "syscall", "span", "tenant")

    def __init__(self, req_id, op, ino, iovecs, offset, flags=0,
                 eager=False, datasync=False, syscall=None, tenant=None):
        # The one copy of the caller's iovecs: a write's fragments are
        # snapshotted as ``bytes``, so a buffer the caller reuses later
        # cannot change what the fs holds.
        if op == OP_WRITE:
            self.iovecs = list(map(bytes, iovecs))
            total = sum(map(len, self.iovecs))
        elif op == OP_READ:
            self.iovecs = list(map(int, iovecs))
            total = sum(self.iovecs)
        elif op == OP_SYNC:
            if iovecs:
                raise ValueError("sync requests carry no iovecs")
            self.iovecs = []
            total = 0
        else:
            raise ValueError("unknown request op %r" % (op,))
        self.req_id = req_id
        self.op = op
        self.ino = ino
        #: Bytes this request covers (sum over the iovec list), counted
        #: once here: the iovecs never change after construction.
        self.total_bytes = total
        self.offset = offset
        self.flags = flags
        #: Synchronous-persistence policy (O_SYNC / ``mount -o sync``):
        #: the whole request is durable when ``submit`` returns.  For
        #: OP_SYNC requests it means "do the flush in the foreground";
        #: without it the fs may hand back a pending completion instead.
        self.eager = eager
        #: Data-only persistence (fdatasync / O_DSYNC): metadata not
        #: needed to retrieve the data may stay volatile.
        self.datasync = datasync
        #: Syscall name this request was built for (``write``/``writev``
        #: /...); feeds the per-syscall breakdown and the trace span.
        self.syscall = syscall or op
        #: The request's trace span while tracing is enabled, else None.
        self.span = None
        #: Tenant id this request is billed to (multi-tenant QoS; see
        #: :mod:`repro.fs.qos`).  ``None`` = untenanted traffic, which
        #: the admission controller never throttles or sheds.
        self.tenant = tenant

    # -- geometry ---------------------------------------------------------

    def coalesce(self):
        """The write payload as ONE contiguous buffer.

        Since a gather write's fragments land back to back in the file,
        joining them is semantically lossless; it is what lets HiNFS run
        a single DRAM-buffer operation per 4 KiB block and a single
        eager/lazy decision per request instead of per fragment.
        Single-fragment requests return the fragment itself (no copy).
        """
        if self.op != OP_WRITE:
            raise ValueError("coalesce() is only defined for writes")
        if len(self.iovecs) == 1:
            return self.iovecs[0]
        return b"".join(self.iovecs)

    def fragments(self):
        """Yield ``(file_offset, data)`` per write iovec, in file order."""
        if self.op != OP_WRITE:
            raise ValueError("fragments() is only defined for writes")
        pos = self.offset
        for vec in self.iovecs:
            yield pos, vec
            pos += len(vec)

    def scatter(self, data):
        """Split a flat read result back into per-iovec buffers.

        Mirrors ``readv``: earlier iovecs fill completely before later
        ones see any bytes; a short read (EOF) leaves the tail empty.
        """
        if self.op != OP_READ:
            raise ValueError("scatter() is only defined for reads")
        out = []
        pos = 0
        for count in self.iovecs:
            out.append(data[pos:pos + count])
            pos += count
        return out

    def __repr__(self):
        return "IORequest(#%d %s ino=%s off=%d len=%d iovecs=%d%s)" % (
            self.req_id, self.op, self.ino, self.offset, self.total_bytes,
            len(self.iovecs), " eager" if self.eager else "",
        )
