"""Library-mode mmap data plane with per-file epoch logging (mmio).

The ring (PR 4) amortises ``T_syscall``; this module eliminates it.  A
mapped file is an :class:`MmioMapping` -- the one mapping type of the
PMFS family (paper Section 4.2) -- whose ``load``/``store``/``msync``
run entirely in the process: no VFS syscall entry, no dispatch, zero
``syscall_time_ns`` charges after the one ``mmap`` setup call.  Stores
hit NVMM through the CPU cache and are *volatile* until an ``msync``.
A plain mapping (``policy=None``) stops there; mapped with
``MAP_ATOMIC``, a per-file epoch log (Libnvmmio-style) additionally
keeps every msync'd epoch crash-atomic, under one of three policies:

- **undo** policy: each store first persists the *old* bytes to the log,
  then updates NVMM in place through the CPU cache.  ``msync`` flushes
  the dirtied lines, fences, and commits the epoch with one atomic
  8-byte store.  Recovery rolls uncommitted entries back in reverse.
- **redo** policy: each store persists the *new* bytes to the log and
  stages them in a DRAM overlay; in-place NVMM is untouched until
  ``msync`` commits the epoch and applies the entries.  Recovery
  re-applies a committed-but-unapplied epoch (idempotent) and discards
  uncommitted entries.
- **auto** policy: picked per epoch from the previous epoch's load/store
  mix (read-mostly epochs want in-place data -> undo; write-mostly
  epochs want cheap stores -> redo), as Libnvmmio does per file.

Every log append is ONE ``write_persistent`` (one tearable persist
event for the crash-point explorer), every entry carries a CRC and a
per-incarnation token so recovery scans stop exactly at the torn tail,
and the epoch commit word lives alone in its cacheline so the 8-byte
store is atomic.  The log's head block is discoverable from the owning
inode: byte offset :data:`MMIO_PTR_OFFSET` of the 256-byte inode slot
(a free, cacheline-aligned u64 the inode writer never touches) holds
the head block number while -- and only while -- an atomic mapping is
live.
"""

import struct
import zlib

from repro.engine.locks import VMutex
from repro.engine.stats import CAT_READ_ACCESS, CAT_WRITE_ACCESS
from repro.fs.errors import InvalidArgument, MediaError
from repro.fs.pmfs.layout import block_addr, inode_addr
from repro.io.request import OP_SYNC, OP_WRITE
from repro.nvmm.config import BLOCK_SIZE, CACHELINE_SIZE
from repro.obs.trace import LAYER_MMIO, LAYER_NVMM

#: Byte offset of the mmio log head pointer inside the 256-byte on-NVMM
#: inode slot.  The inode writer uses bytes [0, 152); offset 192 is the
#: first untouched cacheline-aligned u64, so the pointer persists with
#: one atomic 8-byte store and never collides with ``write_core``/
#: ``write_pointers``.
MMIO_PTR_OFFSET = 192

LOG_MAGIC = b"MMIOLOG1"
#: Head-block header: magic, incarnation token, owning inode, payload
#: block count, policy word (policy code | checksum flag), CRC.
HEAD_FMT = "<8sQQIII28x"
#: Committed / applied epoch words: each alone in its own cacheline so
#: the commit is a single atomic 8-byte persist.
COMMITTED_OFF = 1 * CACHELINE_SIZE
APPLIED_OFF = 2 * CACHELINE_SIZE
#: Payload-block-number table starts at line 3 of the head block.
TABLE_OFF = 3 * CACHELINE_SIZE

ENTRY_MAGIC = b"MENT"
#: Entry header (one cacheline): magic, kind, payload lines, epoch,
#: file offset, payload length, payload CRC, incarnation token, CRC.
ENTRY_FMT = "<4sHHQQIIQI20x"

KIND_UNDO = 1
KIND_REDO = 2
#: Skip-to-next-block marker (an entry never spans payload blocks, so
#: its header+payload stays one contiguous ``write_persistent``).
KIND_PAD = 3

POLICY_AUTO = 0
POLICY_UNDO = 1
POLICY_REDO = 2
_POLICY_CODES = {"auto": POLICY_AUTO, "undo": POLICY_UNDO,
                 "redo": POLICY_REDO}
_CHECKSUM_FLAG = 0x100

LINES_PER_BLOCK = BLOCK_SIZE // CACHELINE_SIZE
#: Largest single-entry payload: entries never span a payload block, so
#: a block-sized store splits into two entries.
MAX_ENTRY_PAYLOAD = BLOCK_SIZE // 2


class LogFull(Exception):
    """The epoch outgrew the log; the mapping auto-commits and retries."""


def _crc_packed(blob):
    return zlib.crc32(blob) & 0xFFFFFFFF


def _pack_head(token, ino, nblocks, policy_word):
    blob = struct.pack(HEAD_FMT, LOG_MAGIC, token, ino, nblocks,
                       policy_word, 0)
    crc = _crc_packed(blob)
    return struct.pack(HEAD_FMT, LOG_MAGIC, token, ino, nblocks,
                       policy_word, crc)


def _pack_entry(kind, nlines, epoch, file_offset, length, payload_crc,
                token, checksums):
    blob = struct.pack(ENTRY_FMT, ENTRY_MAGIC, kind, nlines, epoch,
                       file_offset, length, payload_crc, token, 0)
    crc = _crc_packed(blob) if checksums else 0
    return struct.pack(ENTRY_FMT, ENTRY_MAGIC, kind, nlines, epoch,
                       file_offset, length, payload_crc, token, crc)


class LogEntry:
    """One decoded log record (recovery and tests)."""

    __slots__ = ("kind", "epoch", "file_offset", "payload")

    def __init__(self, kind, epoch, file_offset, payload):
        self.kind = kind
        self.epoch = epoch
        self.file_offset = file_offset
        self.payload = payload


class MmioLog:
    """The per-file epoch log: a head block plus N payload blocks."""

    def __init__(self, fs, ino, checksums=True):
        self.fs = fs
        self.device = fs.device
        self.ino = ino
        self.checksums = checksums
        self.token = 0
        self.head_block = 0
        self.payload_blocks = []
        self.committed = 0
        self.applied = 0
        self._tail_block = 0
        self._tail_line = 0

    # -- setup ------------------------------------------------------------

    def setup(self, ctx, log_blocks, policy_code):
        """Allocate and format the log, then make it discoverable.

        Ordering: header and table are fully persistent and fenced
        *before* the inode pointer is set, so a crash mid-setup either
        shows no log at all or a valid empty one.
        """
        self.head_block = self.fs._alloc_data_block()
        self.payload_blocks = [self.fs._alloc_data_block()
                               for _ in range(log_blocks)]
        # Per-incarnation token: stale entries from a previous life of
        # these blocks can never parse, so payload blocks need no
        # zeroing pass at setup.
        self.token = (self.fs.env.next_req_id() << 8) | 0x5A
        policy_word = policy_code | (_CHECKSUM_FLAG if self.checksums else 0)
        base = block_addr(self.head_block)
        head = _pack_head(self.token, self.ino, len(self.payload_blocks),
                          policy_word)
        table = b"".join(struct.pack("<Q", blk)
                         for blk in self.payload_blocks)
        self.device.write_persistent(ctx, base, head, CAT_WRITE_ACCESS)
        self.device.write_persistent(
            ctx, base + COMMITTED_OFF, struct.pack("<Q", 0),
            CAT_WRITE_ACCESS)
        self.device.write_persistent(
            ctx, base + APPLIED_OFF, struct.pack("<Q", 0), CAT_WRITE_ACCESS)
        self.device.write_persistent(ctx, base + TABLE_OFF, table,
                                     CAT_WRITE_ACCESS)
        self.device.fence(ctx)
        ptr = inode_addr(self.fs.sb, self.ino) + MMIO_PTR_OFFSET
        self.device.write_persistent(ctx, ptr,
                                     struct.pack("<Q", self.head_block),
                                     CAT_WRITE_ACCESS)
        self.device.fence(ctx)

    @classmethod
    def from_media(cls, fs, ino, head_block):
        """Rebuild a log from its head block at mount; None if invalid."""
        base = block_addr(head_block)
        try:
            raw = fs.device.read_media(base, struct.calcsize(HEAD_FMT))
        except MediaError:
            return None
        magic, token, owner, nblocks, policy_word, crc = struct.unpack(
            HEAD_FMT, raw)
        if magic != LOG_MAGIC or owner != ino:
            return None
        expect = _crc_packed(struct.pack(HEAD_FMT, magic, token, owner,
                                         nblocks, policy_word, 0))
        if crc != expect:
            return None
        log = cls(fs, ino, checksums=bool(policy_word & _CHECKSUM_FLAG))
        log.token = token
        log.head_block = head_block
        table = fs.device.read_media(base + TABLE_OFF, nblocks * 8)
        log.payload_blocks = [
            struct.unpack_from("<Q", table, i * 8)[0]
            for i in range(nblocks)
        ]
        log.committed = struct.unpack(
            "<Q", fs.device.read_media(base + COMMITTED_OFF, 8))[0]
        log.applied = struct.unpack(
            "<Q", fs.device.read_media(base + APPLIED_OFF, 8))[0]
        return log

    # -- appending --------------------------------------------------------

    def append(self, ctx, kind, epoch, file_offset, payload):
        """Persist one entry (header + payload, one contiguous persist).

        Raises :class:`LogFull` when the epoch has outgrown the log; the
        caller commits the epoch and retries.
        """
        length = len(payload)
        nlines = (length + CACHELINE_SIZE - 1) // CACHELINE_SIZE
        needed = 1 + nlines
        if needed > LINES_PER_BLOCK:
            raise InvalidArgument("mmio entry of %d bytes cannot fit one "
                                  "log block" % length)
        if self._tail_line + needed > LINES_PER_BLOCK:
            if self._tail_block + 1 >= len(self.payload_blocks):
                raise LogFull()
            self._pad_to_next_block(ctx, epoch)
        if self._tail_block >= len(self.payload_blocks):
            raise LogFull()
        payload_crc = _crc_packed(payload) if self.checksums else 0
        header = _pack_entry(kind, nlines, epoch, file_offset, length,
                             payload_crc, self.token, self.checksums)
        padded = payload + b"\0" * (nlines * CACHELINE_SIZE - length)
        addr = (block_addr(self.payload_blocks[self._tail_block])
                + self._tail_line * CACHELINE_SIZE)
        self.device.write_persistent(ctx, addr, header + padded,
                                     CAT_WRITE_ACCESS)
        self._tail_line += needed
        self.fs.env.stats.bump("mmio_log_appends")

    def _pad_to_next_block(self, ctx, epoch):
        header = _pack_entry(KIND_PAD, 0, epoch, 0, 0, 0, self.token,
                             self.checksums)
        addr = (block_addr(self.payload_blocks[self._tail_block])
                + self._tail_line * CACHELINE_SIZE)
        self.device.write_persistent(ctx, addr, header, CAT_WRITE_ACCESS)
        self._tail_block += 1
        self._tail_line = 0

    @property
    def tail_empty(self):
        return self._tail_block == 0 and self._tail_line == 0

    # -- epoch state ------------------------------------------------------

    def commit(self, ctx, epoch):
        """THE commit point: one atomic 8-byte persist of the epoch."""
        base = block_addr(self.head_block)
        self.device.fence(ctx)
        self.device.write_persistent(ctx, base + COMMITTED_OFF,
                                     struct.pack("<Q", epoch),
                                     CAT_WRITE_ACCESS)
        self.device.fence(ctx)
        self.committed = epoch

    def mark_applied(self, ctx, epoch):
        base = block_addr(self.head_block)
        self.device.write_persistent(ctx, base + APPLIED_OFF,
                                     struct.pack("<Q", epoch),
                                     CAT_WRITE_ACCESS)
        self.device.fence(ctx)
        self.applied = epoch
        self._tail_block = 0
        self._tail_line = 0

    def all_blocks(self):
        return [self.head_block] + list(self.payload_blocks)

    # -- scanning (recovery) ----------------------------------------------

    def scan_media(self):
        """Decode the valid entry chain, stopping at the first invalid
        line (a torn tail, or bytes from a previous incarnation)."""
        entries = []
        hdr_size = struct.calcsize(ENTRY_FMT)
        for blk in self.payload_blocks:
            base = block_addr(blk)
            line = 0
            next_block = False
            while line < LINES_PER_BLOCK:
                try:
                    raw = self.fs.device.read_media(
                        base + line * CACHELINE_SIZE, hdr_size)
                except MediaError:
                    return entries
                (magic, kind, nlines, epoch, file_offset, length,
                 payload_crc, token, crc) = struct.unpack(ENTRY_FMT, raw)
                if magic != ENTRY_MAGIC or token != self.token:
                    return entries
                if self.checksums:
                    expect = _crc_packed(_pack_entry(
                        kind, nlines, epoch, file_offset, length,
                        payload_crc, token, False))
                    if crc != expect:
                        return entries
                if kind == KIND_PAD:
                    next_block = True
                    break
                if kind not in (KIND_UNDO, KIND_REDO) or \
                        line + 1 + nlines > LINES_PER_BLOCK or \
                        length > nlines * CACHELINE_SIZE:
                    return entries
                try:
                    payload = self.fs.device.read_media(
                        base + (line + 1) * CACHELINE_SIZE,
                        nlines * CACHELINE_SIZE)[:length]
                except MediaError:
                    return entries
                if self.checksums and _crc_packed(payload) != payload_crc:
                    return entries
                entries.append(LogEntry(kind, epoch, file_offset, payload))
                line += 1 + nlines
            if not next_block and line < LINES_PER_BLOCK:
                return entries
        return entries


class MmioMapping:
    """One live mapping of a file's blocks into user space.

    ``load``/``store``/``msync`` are the library-mode entry points --
    they open :data:`LAYER_MMIO` spans and charge *no* syscall time.
    Stores are volatile until ``msync`` commits the epoch they belong
    to.  ``policy`` says what a crash inside an epoch leaves behind:

    - ``None``: a plain mapping (paper Section 4.2).  Stores land in
      place through the CPU cache and ``msync`` flushes their lines; a
      crash keeps whatever subset the cache happened to evict.
    - ``"undo"`` / ``"redo"`` / ``"auto"``: ``MAP_ATOMIC``.  The same
      store and commit path plus a per-file epoch log, so a crash
      recovers all of an epoch or none of it.  Undo is exactly the
      plain path with a pre-image append before each in-place store
      and a commit word after the flush; redo appends the new bytes,
      stages them in a DRAM overlay and applies them after the commit
      word.  While such a mapping is live the owning file system also
      routes conventional read/write/fsync requests through
      :meth:`handle_request`, so descriptor I/O and mapped stores stay
      POSIX-coherent and share one epoch timeline.
    """

    def __init__(self, fs, ino, policy=None, log_blocks=4,
                 log_checksums=True):
        if policy is not None and policy not in _POLICY_CODES:
            raise InvalidArgument("unknown mmio policy %r" % (policy,))
        self.fs = fs
        self.ino = ino
        self.closed = False
        self.policy = policy
        #: The epoch log, or None on a plain mapping.
        self.log = None if policy is None else \
            MmioLog(fs, ino, checksums=log_checksums)
        self.log_blocks = log_blocks
        self._mu = VMutex(fs.env, "mmio:%d" % ino)
        #: Resolved policy for the current epoch (auto re-resolves at the
        #: first store of every epoch from the previous epoch's op mix).
        self._epoch_policy = None
        #: In-place stores since the last commit: (file_offset,
        #: nvmm_addr, length) -- file offsets so a truncate can
        #: invalidate the tail.
        self._dirty_ranges = []
        #: Redo staging: (file_offset, bytes) in store order.
        self._overlay = []
        self._epoch_loads = 0
        self._epoch_stores = 0
        self._prev_loads = 0
        self._prev_stores = 0

    # -- lifecycle --------------------------------------------------------

    def setup(self, ctx):
        """Format the log and publish the inode pointer (charged to the
        ``mmap`` syscall that created the mapping)."""
        if self.log is not None:
            self.log.setup(ctx, self.log_blocks, _POLICY_CODES[self.policy])
        self.fs.env.stats.bump("mmio_maps")

    def _detach_log(self, ctx):
        if self.log is not None:
            _clear_pointer(self.fs, ctx, self.ino)
            self.fs.balloc.free_many(self.log.all_blocks())

    def invalidate(self, ctx):
        """Forcibly detach (unlink of a mapped file): nothing persists."""
        if self.closed:
            return
        self.closed = True
        self._overlay = []
        self._dirty_ranges = []
        self._detach_log(ctx)

    def munmap(self, ctx):
        """Commit the open epoch (an implicit msync, as on a clean
        munmap), detach the log, release its blocks."""
        if self.closed:
            return
        with ctx.span("mmio.munmap", layer=LAYER_MMIO):
            with self._mu.held(ctx):
                self._msync_locked(ctx)
                self._detach_log(ctx)
        self.closed = True
        self.fs.env.stats.ops_completed += 1
        self.fs.on_munmap(self.ino, self)

    # -- library-mode ops (zero syscall charges) --------------------------

    def load(self, ctx, offset, length):
        """A load through the mapping -- no syscall entry, no VFS."""
        with ctx.span("mmio.load", layer=LAYER_MMIO):
            with self._mu.held(ctx):
                data = self._load_locked(ctx, offset, length)
        self.fs.env.stats.ops_completed += 1
        return data

    def store(self, ctx, offset, data):
        """A store through the mapping: logged, then staged or applied
        per the epoch's policy.  Volatile until ``msync`` commits."""
        with ctx.span("mmio.store", layer=LAYER_MMIO):
            with self._mu.held(ctx):
                self._store_locked(ctx, offset, bytes(data))
        self.fs.env.stats.ops_completed += 1
        return len(data)

    def msync(self, ctx):
        """Commit the epoch: everything stored so far becomes durable
        (and, with a log, atomic -- a crash now recovers all of it or
        none of it).  Returns the number of staged ranges committed."""
        with ctx.span("mmio.msync", layer=LAYER_MMIO):
            with self._mu.held(ctx):
                committed = self._msync_locked(ctx)
        self.fs.env.stats.ops_completed += 1
        return committed

    # -- syscall routing --------------------------------------------------

    def handle_request(self, ctx, req):
        """Serve a conventional IORequest against the mapped file.

        Called from the file system's ``submit`` while a ``MAP_ATOMIC``
        mapping is live: reads see staged stores, writes join the
        mapping's epoch (durable at the next fsync/msync), fsync commits
        the epoch.  The work lands as an ``mmio`` phase on the
        syscall's span.
        """
        self.fs.env.stats.bump("mmio_routed")
        with ctx.layer(LAYER_MMIO):
            with self._mu.held(ctx):
                if req.op == OP_WRITE:
                    total = 0
                    for file_offset, vec in req.fragments():
                        self._store_locked(ctx, file_offset, bytes(vec))
                        total += len(vec)
                    if req.eager:
                        self._msync_locked(ctx)
                    return total
                if req.op == OP_SYNC:
                    self._msync_locked(ctx)
                    return 0
                size = self.fs._inode(req.ino).size
                avail = max(0, min(req.total_bytes, size - req.offset))
                if avail == 0:
                    return b""
                return self._load_locked(ctx, req.offset, avail)

    # -- internals --------------------------------------------------------

    def _enter(self, op):
        """Every op's first step: refuse a dead mapping, consult the
        ``mmio:<op>`` fault site (:mod:`repro.faults.plan`)."""
        if self.closed:
            raise InvalidArgument("mapping already unmapped")
        plan = self.fs.env.faults
        if plan is not None:
            plan.check("mmio:" + op, self.ino)

    def _resolve_policy(self):
        if self.policy == "redo":
            return POLICY_REDO
        # auto: a read-heavy previous epoch wants current in-place bytes
        # (undo); a store-heavy one wants the cheaper redo staging.
        if self.policy == "auto" and self._prev_stores > self._prev_loads:
            return POLICY_REDO
        return POLICY_UNDO

    def _load_locked(self, ctx, offset, length):
        self._enter("load")
        self._epoch_loads += 1
        fs = self.fs
        fs.env.stats.bump("mmio_loads")
        blockmap = fs._map(self.ino)
        out = bytearray()
        pos, remaining = offset, length
        while remaining > 0:
            file_block, in_off = divmod(pos, BLOCK_SIZE)
            take = min(BLOCK_SIZE - in_off, remaining)
            nvmm_block = blockmap.get(file_block)
            if nvmm_block is None:
                out.extend(b"\0" * take)
                ctx.charge(fs.config.load_cost_ns(take), CAT_READ_ACCESS)
            else:
                out.extend(fs.device.read(
                    ctx, block_addr(nvmm_block) + in_off, take))
            pos += take
            remaining -= take
        for over_off, over in self._overlay:
            lo = max(offset, over_off)
            hi = min(offset + length, over_off + len(over))
            if lo < hi:
                out[lo - offset:hi - offset] = \
                    over[lo - over_off:hi - over_off]
        return bytes(out)

    def _store_locked(self, ctx, offset, data):
        self._enter("store")
        if not data:
            return
        if self._epoch_policy is None:
            self._epoch_policy = self._resolve_policy()
        self._epoch_stores += 1
        fs = self.fs
        fs.env.stats.bump("mmio_stores")
        inode = fs._inode(self.ino)
        if offset + len(data) > inode.size:
            # Grow the file (the kernel updates i_size on extending maps)
            # before the first chunk: an autocommit mid-store applies the
            # chunks staged so far, clamped to the size.
            tx = fs.journal.begin(ctx)
            inode.size = offset + len(data)
            inode.mtime = ctx.now
            fs.itable.write_core(ctx, tx, inode)
            fs.journal.commit(ctx, tx)
        blockmap = fs._map(self.ino)
        pos = 0
        while pos < len(data):
            file_block, in_off = divmod(offset + pos, BLOCK_SIZE)
            # An entry never spans a log block, so a block-sized store
            # is two chunks (on a plain mapping too: one algorithm).
            take = min(BLOCK_SIZE - in_off, len(data) - pos,
                       MAX_ENTRY_PAYLOAD)
            # Every policy maps the block now (a page fault on a hole,
            # which maps the store's other holes with it: one journaled
            # transaction), so recovery and apply always find a home
            # for the entries' bytes.
            nvmm_block = blockmap.get(file_block)
            if nvmm_block is None:
                tx = fs.journal.begin(ctx)
                try:
                    fresh = fs._ensure_mapped(ctx, tx, blockmap,
                                              offset + pos, len(data) - pos)
                finally:
                    fs.journal.commit(ctx, tx)
                nvmm_block = fresh[file_block]
            self._store_chunk(ctx, offset + pos,
                              block_addr(nvmm_block) + in_off,
                              data[pos:pos + take])
            pos += take

    def _store_chunk(self, ctx, file_offset, addr, chunk):
        if self._epoch_policy == POLICY_REDO:
            self._append(ctx, KIND_REDO, file_offset, chunk)
            self._overlay.append((file_offset, chunk))
            return
        device = self.fs.device
        if self.log is not None:
            # The undo image is durable (persist-event order) before the
            # in-place store can land, so every crash state rolls back.
            self._append(ctx, KIND_UNDO, file_offset,
                         device.read(ctx, addr, len(chunk)))
        device.write_cached(ctx, addr, chunk, CAT_WRITE_ACCESS)
        self._dirty_ranges.append((file_offset, addr, len(chunk)))

    def _append(self, ctx, kind, file_offset, payload):
        plan = self.fs.env.faults
        if plan is not None:
            plan.check("mmio:append", self.ino)
        log = self.log
        try:
            log.append(ctx, kind, log.committed + 1, file_offset, payload)
        except LogFull:
            # The interrupted store belongs to the epoch the autocommit
            # opens, and one epoch runs one policy: re-resolving
            # mid-store would mix undo dirty ranges with a redo overlay
            # that its commit path never flushes or applies.
            policy = self._epoch_policy
            self._commit_epoch(ctx)
            self._epoch_policy = policy
            self.fs.env.stats.bump("mmio_autocommits")
            log.append(ctx, kind, log.committed + 1, file_offset, payload)

    def _msync_locked(self, ctx):
        self._enter("msync")
        if (self.log is None or self.log.tail_empty) \
                and not self._dirty_ranges and not self._overlay:
            self.fs.device.fence(ctx)
            return 0
        committed = self._commit_epoch(ctx)
        self.fs.env.stats.bump("msync_calls")
        return committed

    def _commit_epoch(self, ctx):
        fs, log = self.fs, self.log
        epoch = 0 if log is None else log.committed + 1
        committed = len(self._dirty_ranges) + len(self._overlay)
        if self._epoch_policy == POLICY_REDO:
            # Entries are already persistent; the commit word makes the
            # epoch recoverable, then the apply moves it in place.
            log.commit(ctx, epoch)
            _write_back(fs, ctx, fs._map(self.ino), fs._inode(self.ino),
                        self._overlay)
            fs.device.fence(ctx)
            self._overlay = []
        else:
            for _foff, addr, length in self._dirty_ranges:
                fs.device.clflush(ctx, addr, length, CAT_WRITE_ACCESS)
            fs.device.fence(ctx)
            if log is not None:
                log.commit(ctx, epoch)
            self._dirty_ranges = []
        if log is not None:
            log.mark_applied(ctx, epoch)
        self._prev_loads = self._epoch_loads
        self._prev_stores = self._epoch_stores
        self._epoch_loads = 0
        self._epoch_stores = 0
        self._epoch_policy = None
        fs.env.stats.bump("mmio_epochs_committed")
        return committed

    # -- truncate coherence ----------------------------------------------

    def invalidate_past(self, new_size):
        """Drop staged state past a new (smaller) EOF.

        Called by the file system under ``truncate``: the blocks past
        EOF are freed (and may be reallocated to another file), so a
        later ``msync`` must not flush, apply -- or keep addresses into
        -- blocks this mapping no longer owns.
        """
        self._dirty_ranges = [
            (off, addr, min(length, new_size - off))
            for off, addr, length in self._dirty_ranges if off < new_size]
        self._overlay = [(off, over[:new_size - off])
                         for off, over in self._overlay if off < new_size]


# -- mount-time recovery ---------------------------------------------------

def recover(fs, ctx):
    """Recover every live file's mmio log at mount.

    Runs after journal recovery and the DRAM rebuild: for each inode
    whose slot carries a log pointer, roll back uncommitted undo
    entries (reverse order), re-apply a committed-but-unapplied redo
    epoch (idempotent), then detach the log.  The log's blocks were
    never referenced by a blockmap, so the rebuilt allocator already
    counts them free; detaching before the mount serves I/O keeps them
    from ever being seen half-owned.
    """
    recovered = 0
    for inode in fs.itable.live_inodes():
        try:
            raw = fs.device.read_media(
                inode_addr(fs.sb, inode.ino) + MMIO_PTR_OFFSET, 8)
        except MediaError:
            continue
        head_block = struct.unpack("<Q", raw)[0]
        if head_block == 0:
            continue
        log = MmioLog.from_media(fs, inode.ino, head_block)
        if log is not None:
            _recover_log(fs, ctx, inode, log)
            recovered += 1
        _clear_pointer(fs, ctx, inode.ino)
    if recovered:
        fs.env.stats.bump("mmio_logs_recovered", recovered)
    return recovered


def _clear_pointer(fs, ctx, ino):
    """Detach a log from its inode (munmap, unlink, recovery)."""
    fs.device.write_persistent(ctx, inode_addr(fs.sb, ino) + MMIO_PTR_OFFSET,
                               struct.pack("<Q", 0), CAT_WRITE_ACCESS)
    fs.device.fence(ctx)


def _recover_log(fs, ctx, inode, log):
    entries = log.scan_media()
    blockmap = fs._map(inode.ino)
    if log.applied < log.committed:
        # A redo epoch committed but its apply was cut short: re-apply
        # the whole epoch (idempotent full-image writes).
        _write_back(fs, ctx, blockmap, inode, [
            (e.file_offset, e.payload) for e in entries
            if e.kind == KIND_REDO and e.epoch == log.committed])
        fs.env.stats.bump("mmio_recovered_applies")
    # Uncommitted undo entries: the in-place bytes may hold any subset
    # of the torn epoch's stores; restore the pre-images in reverse.
    active = log.committed + 1
    undo = [(e.file_offset, e.payload) for e in entries
            if e.kind == KIND_UNDO and e.epoch == active]
    _write_back(fs, ctx, blockmap, inode, reversed(undo))
    if undo:
        fs.env.stats.bump("mmio_recovered_rollbacks")
    fs.device.fence(ctx)


def _write_back(fs, ctx, blockmap, inode, ranges):
    """Write logged ``(file_offset, bytes)`` ranges in place through the
    blockmap (a redo epoch's apply, and both recovery directions),
    skipping holes (the journal rolled their allocation back) and
    clamping to the file's size (a truncate may have shrunk it under
    the epoch).

    The persists are booked across the writer slots, as HiNFS's
    parallel flush books them, and waited for once: the caller resumes
    when the slowest is durable.  Bytes land in range order, so a later
    overlapping range still wins."""
    end = ctx.now
    try:
        for file_offset, data in ranges:
            stop = min(file_offset + len(data), inode.size)
            pos = file_offset
            while pos < stop:
                file_block, in_off = divmod(pos, BLOCK_SIZE)
                take = min(BLOCK_SIZE - in_off, stop - pos)
                nvmm_block = blockmap.get(file_block)
                if nvmm_block is not None:
                    start = pos - file_offset
                    end = max(end, fs.device.write_persistent_async(
                        ctx, block_addr(nvmm_block) + in_off,
                        data[start:start + take]))
                pos += take
    finally:
        with ctx.layer(LAYER_NVMM):
            ctx.sync_to(end, CAT_WRITE_ACCESS)
