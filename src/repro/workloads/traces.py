"""System-call I/O traces: format, synthesis, and replay (Figures 2, 6, 12).

The paper replays FIU (Usr0/Usr1), LASR, and MobiBench Facebook syscall
traces.  Those traces are not redistributable, so this module provides:

- :class:`TraceRecord` and a text serialisation (so *real* traces in this
  simple format can be replayed too);
- seeded synthetic generators whose characteristics match what the paper
  reports about each trace: the fsync-byte fraction (Figure 2), mean I/O
  size (Facebook < 1 KiB), access locality, and sync frequency;
- :class:`TraceReplayWorkload`, which replays the read/write/unlink/fsync
  stream through the VFS -- the paper extracts exactly those four ops.
"""

from repro.fs import flags as f
from repro.fs.errors import FSError
from repro.workloads.base import Workload, payload, zipf_index

OPS = ("write", "read", "fsync", "unlink")


class TraceRecord:
    """One syscall-level trace event."""

    __slots__ = ("op", "path", "offset", "size")

    def __init__(self, op, path, offset=0, size=0):
        if op not in OPS:
            raise ValueError("unknown trace op %r" % op)
        self.op = op
        self.path = path
        self.offset = int(offset)
        self.size = int(size)

    def to_line(self):
        return "%s\t%s\t%d\t%d" % (self.op, self.path, self.offset, self.size)

    @classmethod
    def from_line(cls, line):
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 4:
            raise ValueError("malformed trace line: %r" % line)
        return cls(parts[0], parts[1], int(parts[2]), int(parts[3]))


def dump_trace(records, fileobj):
    for record in records:
        fileobj.write(record.to_line() + "\n")


def load_trace(fileobj):
    return [TraceRecord.from_line(line) for line in fileobj if line.strip()]


class SyntheticTrace:
    """A named record stream with derived statistics."""

    def __init__(self, name, records):
        self.name = name
        self.records = records

    def fsync_byte_stats(self):
        """Return ``(total_written, fsynced)`` byte counts (Figure 2).

        A written byte counts as an fsync byte if an fsync of its file
        arrives after the write.
        """
        pending = {}
        total = 0
        fsynced = 0
        for record in self.records:
            if record.op == "write":
                total += record.size
                pending[record.path] = pending.get(record.path, 0) + record.size
            elif record.op == "fsync":
                fsynced += pending.pop(record.path, 0)
            elif record.op == "unlink":
                pending.pop(record.path, None)
        return total, fsynced


def _mixed_trace(name, seed, ops, nfiles, write_frac, read_frac, unlink_frac,
                 sync_every_writes, io_size_fn, locality_skew=1.3,
                 synced_file_frac=0.5, offset_range=1 << 20):
    """Common generator: a zipf-skewed mix of the four syscalls.

    ``sync_every_writes`` -- an fsync is issued on a file after roughly
    that many writes to it (None = never, the LASR case).  Only the first
    ``synced_file_frac`` of the fileset is ever synced, which lets a
    trace mix durable (database-ish) and careless files like real
    desktops do.
    """
    import random

    rng = random.Random("%s:%s" % (seed, name))
    paths = ["/%s/f%04d" % (name, i) for i in range(nfiles)]
    writes_since_sync = {}
    records = []
    for _ in range(ops):
        roll = rng.random()
        path = paths[zipf_index(rng, nfiles, skew=locality_skew)]
        if roll < write_frac:
            size = io_size_fn(rng)
            # Block-aligned-ish offsets within a bounded hot region give
            # the access locality the paper's traces exhibit (writes to
            # the same blocks coalesce in HiNFS's buffer).
            offset = zipf_index(rng, offset_range // 4096,
                                skew=locality_skew) * 4096
            records.append(TraceRecord("write", path, offset, size))
            count = writes_since_sync.get(path, 0) + 1
            writes_since_sync[path] = count
            syncable = (paths.index(path) % 10) < 10 * synced_file_frac
            if (
                sync_every_writes
                and syncable
                and count >= max(1, int(rng.gauss(sync_every_writes,
                                                  sync_every_writes / 3)))
            ):
                records.append(TraceRecord("fsync", path))
                writes_since_sync[path] = 0
        elif roll < write_frac + read_frac:
            size = io_size_fn(rng)
            records.append(TraceRecord(
                "read", path,
                zipf_index(rng, offset_range // 4096, skew=locality_skew) * 4096,
                size))
        elif roll < write_frac + read_frac + unlink_frac:
            records.append(TraceRecord("unlink", path))
            writes_since_sync.pop(path, None)
        else:
            records.append(TraceRecord("fsync", path))
            writes_since_sync[path] = 0
    return SyntheticTrace(name, records)


def synthesize_usr0(ops=4000, seed=42):
    """FIU research-desktop trace: mixed I/O, roughly half the written
    bytes reach an fsync (Figure 2)."""
    return _mixed_trace(
        "usr0", seed, ops, nfiles=60,
        write_frac=0.55, read_frac=0.41, unlink_frac=0.02,
        sync_every_writes=8,
        io_size_fn=lambda rng: rng.choice((4096, 4096, 8192, 16384)),
        synced_file_frac=0.25,
        offset_range=192 << 10,
    )


def synthesize_usr1(ops=4000, seed=43):
    """The same desktop at a different time: writier, fewer syncs."""
    return _mixed_trace(
        "usr1", seed, ops, nfiles=80,
        write_frac=0.62, read_frac=0.34, unlink_frac=0.03,
        sync_every_writes=10,
        io_size_fn=lambda rng: rng.choice((4096, 8192, 8192, 32768)),
        synced_file_frac=0.15,
        offset_range=256 << 10,
    )


def synthesize_lasr(ops=4000, seed=44):
    """LASR software-development trace: no fsync at all (Figure 2)."""
    return _mixed_trace(
        "lasr", seed, ops, nfiles=100,
        write_frac=0.5, read_frac=0.5, unlink_frac=0.0,
        sync_every_writes=None,
        io_size_fn=lambda rng: rng.choice((1024, 4096, 4096, 8192)),
        offset_range=256 << 10,
    )


def synthesize_facebook(ops=4000, seed=45):
    """MobiBench Facebook trace: sub-KiB writes, SQLite-style fsync after
    almost every write -- too frequent to coalesce (Section 5.3)."""
    return _mixed_trace(
        "facebook", seed, ops, nfiles=16,
        write_frac=0.6, read_frac=0.4, unlink_frac=0.0,
        sync_every_writes=1,
        io_size_fn=lambda rng: rng.choice((256, 512, 512, 1024)),
        locality_skew=2.0,
        synced_file_frac=1.0,
        offset_range=64 << 10,
    )


SYNTHESIZERS = {
    "usr0": synthesize_usr0,
    "usr1": synthesize_usr1,
    "lasr": synthesize_lasr,
    "facebook": synthesize_facebook,
}


class TraceReplayWorkload(Workload):
    """Replay a record stream through the VFS (single-threaded, as the
    paper's replayer is)."""

    def __init__(self, trace, seed=42):
        super().__init__(seed=seed, threads=1)
        self.trace = trace
        self.name = "replay-%s" % trace.name

    def prepare(self, vfs, ctx):
        """Create every parent directory and pre-populate touched files."""
        made_dirs = set()
        seen = set()
        for record in self.trace.records:
            if record.path in seen:
                continue
            seen.add(record.path)
            parts = [p for p in record.path.split("/") if p]
            prefix = ""
            for component in parts[:-1]:
                prefix += "/" + component
                if prefix not in made_dirs:
                    if not vfs.exists(ctx, prefix):
                        vfs.mkdir(ctx, prefix)
                    made_dirs.add(prefix)
            vfs.write_file(ctx, record.path, payload(64 << 10, tag=3))

    def make_thread_body(self, vfs, thread_id):
        records = self.trace.records

        def body(ctx):
            fds = {}

            def fd_for(path):
                fd = fds.get(path)
                if fd is None:
                    fd = vfs.open(ctx, path, f.O_CREAT | f.O_RDWR)
                    fds[path] = fd
                return fd

            for record in records:
                try:
                    if record.op == "write":
                        vfs.pwrite(ctx, fd_for(record.path), record.offset,
                                   payload(record.size, tag=1))
                    elif record.op == "read":
                        vfs.pread(ctx, fd_for(record.path), record.offset,
                                  record.size)
                    elif record.op == "fsync":
                        vfs.fsync(ctx, fd_for(record.path))
                    elif record.op == "unlink":
                        fd = fds.pop(record.path, None)
                        if fd is not None:
                            vfs.close(ctx, fd)
                        vfs.unlink(ctx, record.path)
                except FSError:
                    pass  # traces reference files that may be gone
                yield
            for fd in fds.values():
                vfs.close(ctx, fd)

        return body
