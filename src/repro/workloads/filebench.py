"""Filebench personalities (paper Table 1, micro benchmarks).

Faithful re-creations of the four personalities' flowop loops:

- **Fileserver**: creates, deletes, appends, whole-file reads and writes.
- **Webserver**: whole-file reads plus log appends (read-intensive).
- **Webproxy**: create-write-close / open-read-close x5 / delete plus log
  appends, over a highly skewed (Zipf) fileset with short-lived files.
- **Varmail**: create-append-fsync, read-append-fsync, reads, deletes
  (the sync-heavy mail-server pattern; every append is soon fsynced).

Each simulated thread owns a private directory and fileset slice, so
adding threads grows the working set -- which is exactly why the paper
sees HiNFS's buffer hit ratio (and throughput) dip as threads increase
(Figure 8).
"""

from repro.fs import flags as f
from repro.fs.errors import FSError
from repro.workloads.base import Workload, payload, zipf_index


class _ThreadFiles:
    """Names and sizes of the files one thread currently owns."""

    def __init__(self, directory):
        self.directory = directory
        self.names = []
        self.counter = 0

    def new_name(self):
        self.counter += 1
        return "%s/f%06d" % (self.directory, self.counter)

    def random_existing(self, rng, skewed=False):
        if not self.names:
            return None
        if skewed:
            return self.names[zipf_index(rng, len(self.names))]
        return self.names[rng.randrange(len(self.names))]


class FilebenchPersonality(Workload):
    """Common fileset management for the four personalities."""

    #: Mean pre-allocated file size.
    mean_file_size = 64 << 10
    #: Mean request size for writes/appends (the paper's "mean I/O size").
    io_size = 64 << 10
    #: Pre-allocated files per thread.
    files_per_thread = 50

    def __init__(self, seed=42, threads=1, io_size=None, files_per_thread=None,
                 mean_file_size=None, duration_ops=10_000):
        super().__init__(seed=seed, threads=threads)
        if io_size is not None:
            self.io_size = int(io_size)
        if files_per_thread is not None:
            self.files_per_thread = int(files_per_thread)
        if mean_file_size is not None:
            self.mean_file_size = int(mean_file_size)
        #: Upper bound on flowop iterations (the runner usually stops on
        #: a simulated-time deadline first).
        self.duration_ops = duration_ops
        self._filesets = {}

    # -- fileset -----------------------------------------------------------

    def _fileset(self, thread_id):
        files = self._filesets.get(thread_id)
        if files is None:
            files = _ThreadFiles("/t%d" % thread_id)
            self._filesets[thread_id] = files
        return files

    def _sample_size(self, rng):
        size = int(rng.gammavariate(1.5, self.mean_file_size / 1.5))
        return max(1024, min(size, self.mean_file_size * 8))

    def prepare(self, vfs, ctx):
        for tid in range(self.threads):
            files = self._fileset(tid)
            vfs.mkdir(ctx, files.directory)
            rng = self.rng(stream=1000 + tid)
            for _ in range(self.files_per_thread):
                name = files.new_name()
                vfs.write_file(ctx, name, payload(self._sample_size(rng), tid))
                files.names.append(name)
            self.extra_prepare(vfs, ctx, tid)

    def extra_prepare(self, vfs, ctx, thread_id):
        """Hook: personalities with log files create them here."""

    # -- helpers used by flowop loops ------------------------------------

    def _write_whole(self, vfs, ctx, path, size, tag):
        fd = vfs.open(ctx, path, f.O_CREAT | f.O_RDWR | f.O_TRUNC)
        pos = 0
        while pos < size:
            chunk = min(self.io_size, size - pos)
            vfs.pwrite(ctx, fd, pos, payload(chunk, tag))
            pos += chunk
        vfs.close(ctx, fd)

    def _read_whole(self, vfs, ctx, path):
        try:
            fd = vfs.open(ctx, path, f.O_RDONLY)
        except FSError:
            return
        while vfs.read(ctx, fd, self.io_size):
            pass
        vfs.close(ctx, fd)

    def _append(self, vfs, ctx, path, size, tag, sync=False):
        fd = vfs.open(ctx, path, f.O_RDWR | f.O_APPEND | f.O_CREAT)
        vfs.write(ctx, fd, payload(size, tag))
        if sync:
            vfs.fsync(ctx, fd)
        vfs.close(ctx, fd)


class Fileserver(FilebenchPersonality):
    """Creates, deletes, appends, whole-file reads and writes."""

    name = "fileserver"

    def make_thread_body(self, vfs, thread_id):
        files = self._fileset(thread_id)
        rng = self.rng(thread_id)

        def body(ctx):
            for _ in range(self.duration_ops):
                # create + write a whole new file
                name = files.new_name()
                self._write_whole(vfs, ctx, name, self._sample_size(rng),
                                  thread_id)
                files.names.append(name)
                yield
                # append to an existing file
                victim = files.random_existing(rng)
                if victim:
                    self._append(vfs, ctx, victim, self.io_size, thread_id)
                yield
                # whole-file read
                victim = files.random_existing(rng)
                if victim:
                    self._read_whole(vfs, ctx, victim)
                yield
                # delete
                if len(files.names) > self.files_per_thread:
                    victim = files.names.pop(rng.randrange(len(files.names)))
                    vfs.unlink(ctx, victim)
                yield
                # stat
                victim = files.random_existing(rng)
                if victim:
                    vfs.stat(ctx, victim)
                yield

        return body


class Webserver(FilebenchPersonality):
    """Read-intensive: 10 whole-file reads then one 16 KiB log append."""

    name = "webserver"
    mean_file_size = 32 << 10
    io_size = 32 << 10

    def log_path(self, thread_id):
        return "/t%d/weblog" % thread_id

    def extra_prepare(self, vfs, ctx, thread_id):
        vfs.write_file(ctx, self.log_path(thread_id), b"")

    def make_thread_body(self, vfs, thread_id):
        files = self._fileset(thread_id)
        rng = self.rng(thread_id)

        def body(ctx):
            for _ in range(self.duration_ops):
                for _ in range(10):
                    victim = files.random_existing(rng)
                    if victim:
                        self._read_whole(vfs, ctx, victim)
                    yield
                self._append(vfs, ctx, self.log_path(thread_id), 16 << 10,
                             thread_id)
                yield

        return body


class Webproxy(FilebenchPersonality):
    """Short-lived files with strong (Zipf) locality plus log appends."""

    name = "webproxy"
    mean_file_size = 16 << 10
    io_size = 16 << 10

    def log_path(self, thread_id):
        return "/t%d/proxylog" % thread_id

    def extra_prepare(self, vfs, ctx, thread_id):
        vfs.write_file(ctx, self.log_path(thread_id), b"")

    def make_thread_body(self, vfs, thread_id):
        files = self._fileset(thread_id)
        rng = self.rng(thread_id)

        def body(ctx):
            for _ in range(self.duration_ops):
                # delete the oldest cached object, admit a new one
                if files.names:
                    vfs.unlink(ctx, files.names.pop(0))
                name = files.new_name()
                self._write_whole(vfs, ctx, name, self._sample_size(rng),
                                  thread_id)
                files.names.append(name)
                yield
                # five (skewed) object reads
                for _ in range(5):
                    victim = files.random_existing(rng, skewed=True)
                    if victim:
                        self._read_whole(vfs, ctx, victim)
                    yield
                self._append(vfs, ctx, self.log_path(thread_id), 16 << 10,
                             thread_id)
                yield

        return body


class Varmail(FilebenchPersonality):
    """Mail server: every append is fsynced (eager-persistent writes)."""

    name = "varmail"
    mean_file_size = 16 << 10
    io_size = 16 << 10

    def make_thread_body(self, vfs, thread_id):
        files = self._fileset(thread_id)
        rng = self.rng(thread_id)

        def body(ctx):
            for _ in range(self.duration_ops):
                # delete
                if files.names:
                    files_idx = rng.randrange(len(files.names))
                    vfs.unlink(ctx, files.names.pop(files_idx))
                yield
                # create - append - fsync
                name = files.new_name()
                self._append(vfs, ctx, name, self.io_size, thread_id,
                             sync=True)
                files.names.append(name)
                yield
                # read - append - fsync
                victim = files.random_existing(rng)
                if victim:
                    self._read_whole(vfs, ctx, victim)
                    self._append(vfs, ctx, victim, self.io_size, thread_id,
                                 sync=True)
                yield
                # whole-file read
                victim = files.random_existing(rng)
                if victim:
                    self._read_whole(vfs, ctx, victim)
                yield

        return body


#: Name -> class, in the paper's Figure 7 order.
PERSONALITIES = {
    "fileserver": Fileserver,
    "webserver": Webserver,
    "webproxy": Webproxy,
    "varmail": Varmail,
}
