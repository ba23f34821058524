"""fio-style micro generator (the paper's Figure 1 experiment).

Random reads and writes at a fixed I/O size against one pre-allocated
file, with a configurable read:write ratio (the paper uses 1:2).

One seeded op stream, three ways into the file system:
:meth:`FioWorkload.ops` is the only place an op is drawn -- offset,
then read-or-write, then whether an fsync is due -- and the three
classes differ only in how one op is issued: :class:`FioWorkload` as
one syscall, :class:`RingFioWorkload` as an SQE in a batch through the
submission/completion ring (``hinfs-bench ring``), and
:class:`~repro.workloads.mmio.MmapFioWorkload` as a load/store through
a ``MAP_ATOMIC`` mapping (``hinfs-bench mmap``).
"""

from repro.fs import flags as f
from repro.io import ring as uring
from repro.workloads.base import Workload, payload


class FioWorkload(Workload):
    """Random mixed I/O against a single pre-allocated file."""

    name = "fio"

    def __init__(self, io_size=4096, file_size=8 << 20, read_fraction=1 / 3,
                 ops_per_thread=2000, seed=42, threads=1, fsync_every=0):
        super().__init__(seed=seed, threads=threads)
        self.io_size = int(io_size)
        self.file_size = int(file_size)
        self.read_fraction = read_fraction
        self.ops_per_thread = ops_per_thread
        #: fio's ``fsync=N``: sync the file every N ops (0 = never).
        self.fsync_every = int(fsync_every)

    def path(self, thread_id):
        return "/fio.%d.dat" % thread_id

    def prepare(self, vfs, ctx):
        data = payload(self.file_size, tag=7)
        for tid in range(self.threads):
            vfs.write_file(ctx, self.path(tid), data, chunk=1 << 20)

    def ops(self, thread_id):
        """One thread's op stream: ``(offset, is_read, sync_due)`` per op,
        drawn lazily from :meth:`rng` as offset, then read-or-write."""
        rng = self.rng(thread_id)
        max_offset = max(1, self.file_size - self.io_size)
        for op in range(1, self.ops_per_thread + 1):
            offset = rng.randrange(max_offset)
            yield (offset, rng.random() < self.read_fraction,
                   self.fsync_every and op % self.fsync_every == 0)

    def make_thread_body(self, vfs, thread_id):
        chunk = payload(self.io_size, tag=thread_id + 1)

        def body(ctx):
            fd = vfs.open(ctx, self.path(thread_id), f.O_RDWR)
            for offset, is_read, sync_due in self.ops(thread_id):
                if is_read:
                    vfs.pread(ctx, fd, offset, self.io_size)
                else:
                    vfs.pwrite(ctx, fd, offset, chunk)
                if sync_due:
                    vfs.fsync(ctx, fd)
                yield
            vfs.close(ctx, fd)

        return body


class RingFioWorkload(FioWorkload):
    """The fio op stream issued as SQE batches through the ring.

    Ops are drawn by the same :meth:`FioWorkload.ops`, but not the same
    values at the same seed: :meth:`Workload.rng` keys the stream on
    ``self.name``, and ``"fio-ring"`` is not ``"fio"``.  Runs of *this*
    class at different ``batch_depth`` do execute the same ops, and
    differ purely in how often the ``T_syscall`` entry is paid (once
    per batch) and in whether fsync completions may defer to their
    persist point (``IOSQE_ASYNC``).
    """

    name = "fio-ring"

    def __init__(self, batch_depth=8, async_fsync=True, **kwargs):
        super().__init__(**kwargs)
        self.batch_depth = int(batch_depth)
        if self.batch_depth < 1:
            raise ValueError("batch_depth must be >= 1")
        #: Mark fsync SQEs IOSQE_ASYNC: the fs may defer their CQE to
        #: the persist point instead of blocking inside the handler.
        self.async_fsync = bool(async_fsync)

    def make_thread_body(self, vfs, thread_id):
        chunk = payload(self.io_size, tag=thread_id + 1)
        fsync_flags = uring.IOSQE_ASYNC if self.async_fsync else 0

        def body(ctx):
            fd = vfs.open(ctx, self.path(thread_id), f.O_RDWR)
            # A paced fsync rides in its op's batch, so the SQ must hold
            # one SQE more than the nominal depth.
            ring = vfs.ring(ctx, sq_depth=max(64, self.batch_depth + 1))
            batch = []

            def flush_batch():
                for cqe in ring.submit_and_wait(batch):
                    if cqe.error is not None:
                        raise cqe.error
                del batch[:]

            for offset, is_read, sync_due in self.ops(thread_id):
                if is_read:
                    batch.append(uring.prep_read(fd, self.io_size, offset))
                else:
                    batch.append(uring.prep_write(fd, chunk, offset))
                if sync_due:
                    batch.append(uring.prep_fsync(fd, flags=fsync_flags))
                if len(batch) >= self.batch_depth:
                    flush_batch()
                yield
            if batch:
                flush_batch()
            vfs.close(ctx, fd)

        return body
