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
  ``msync`` commits the epoch.  The commit word is the durability
  point: ``msync`` returns there, and the mapping's applier, a paced
  background writer, moves the epoch in place while the next epoch
  appends into the log's other half.  Recovery re-applies every
  committed-but-unapplied epoch (idempotent) and discards uncommitted
  entries.
- **auto** policy: picked per epoch from the previous epoch's load/store
  mix (read-mostly epochs want in-place data -> undo; write-mostly
  epochs want cheap stores -> redo), as Libnvmmio does per file.

The log is a head block and one contiguous run of ``2 * log_blocks``
payload blocks, split into two halves: epoch ``e`` appends into half
``e % 2``, so only reuse of a half waits for an apply.  Every store is
one entry (split only where it outgrows a half), and every entry is ONE
``write_persistent`` (one tearable persist event for the crash-point
explorer) carrying a CRC and a per-incarnation token, so recovery scans
stop exactly at the torn tail.  The epoch commit word lives alone in
its cacheline so the 8-byte store is atomic.  The log's head block is
discoverable from the owning inode: byte offset :data:`MMIO_PTR_OFFSET`
of the 256-byte inode slot (a free, cacheline-aligned u64 the inode
writer never touches) holds the head block number while -- and only
while -- an atomic mapping is live.
"""

import struct
import zlib
from collections import deque

from repro.engine.background import NEVER, BackgroundTask
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

LOG_MAGIC = b"MMIOLOG2"
#: Head-block header: magic, incarnation token, owning inode, first
#: payload block, payload block count, policy word (policy code |
#: checksum flag), CRC.
_HEAD = struct.Struct("<8sQQQIII20x")
_HEAD_CRC_OFF = 40
#: Committed / applied epoch words: each alone in its own cacheline so
#: the commit is a single atomic 8-byte persist.
COMMITTED_OFF = 1 * CACHELINE_SIZE
APPLIED_OFF = 2 * CACHELINE_SIZE

ENTRY_MAGIC = b"MENT"
#: Entry header (one cacheline, the payload follows it): magic, kind,
#: epoch, file offset, payload length, incarnation token, and the CRC of
#: header and payload with this field zero.
_ENTRY = struct.Struct("<4sHxxQQIQI24x")
_ENTRY_CRC_OFF = 36
ENTRY_SIZE = CACHELINE_SIZE
_CRC = struct.Struct("<I")
_WORD = struct.Struct("<Q")

KIND_UNDO = 1
KIND_REDO = 2

POLICY_AUTO = 0
POLICY_UNDO = 1
POLICY_REDO = 2
_POLICY_CODES = {"auto": POLICY_AUTO, "undo": POLICY_UNDO,
                 "redo": POLICY_REDO}
_CHECKSUM_FLAG = 0x100

LINES_PER_BLOCK = BLOCK_SIZE // CACHELINE_SIZE


def _crc_zeroed(raw, crc_off, payload=b""):
    """CRC of a record read back with its CRC field taken as zero (the
    value the writer patched in), continued over ``payload``."""
    crc = zlib.crc32(raw[crc_off + 4:], zlib.crc32(
        b"\0\0\0\0", zlib.crc32(raw[:crc_off])))
    return zlib.crc32(payload, crc)


class LogEntry:
    """One decoded log record (recovery and tests)."""

    __slots__ = ("kind", "epoch", "file_offset", "payload")

    def __init__(self, kind, epoch, file_offset, payload):
        self.kind = kind
        self.epoch = epoch
        self.file_offset = file_offset
        self.payload = payload


class MmioLog:
    """The per-file epoch log: a head block, then one contiguous run of
    payload blocks split into two halves.  Epoch ``e`` appends into half
    ``e % 2``, so the next epoch appends while the last one applies."""

    def __init__(self, fs, ino, checksums=True):
        self.fs = fs
        self.device = fs.device
        self.ino = ino
        self.checksums = checksums
        self.token = 0
        self.head_block = 0
        self.nblocks = 0
        #: One epoch's capacity, in lines; the largest payload one entry
        #: can carry (an empty half); where the payload run starts.
        self.half_lines = 0
        self.max_payload = 0
        self._payload_addr = 0
        self.committed = 0
        self.applied = 0
        #: Lines the open epoch has filled in its half.
        self.tail = 0
        #: Header + payload of the entry being appended, reused.
        self._buf = bytearray(ENTRY_SIZE)

    # -- setup ------------------------------------------------------------

    def setup(self, ctx, log_blocks, policy_code):
        """Allocate and format the log, then make it discoverable.

        Ordering: the header and both epoch words are persistent and
        fenced *before* the inode pointer is set, so a crash mid-setup
        either shows no log at all or a valid empty one.
        """
        self._set_geometry(self.fs._alloc_run(1 + 2 * log_blocks),
                           2 * log_blocks)
        # Per-incarnation token: stale entries from a previous life of
        # these blocks can never parse, so payload blocks need no
        # zeroing pass at setup.
        self.token = (self.fs.env.next_req_id() << 8) | 0x5A
        policy_word = policy_code | (_CHECKSUM_FLAG if self.checksums else 0)
        head = bytearray(_HEAD.size)
        _HEAD.pack_into(head, 0, LOG_MAGIC, self.token, self.ino,
                        self.head_block + 1, self.nblocks, policy_word, 0)
        _CRC.pack_into(head, _HEAD_CRC_OFF, zlib.crc32(head))
        base = block_addr(self.head_block)
        self.device.write_persistent(ctx, base, head, CAT_WRITE_ACCESS)
        for off in (COMMITTED_OFF, APPLIED_OFF):
            self.device.write_persistent(ctx, base + off, _WORD.pack(0),
                                         CAT_WRITE_ACCESS)
        self.device.fence(ctx)
        ptr = inode_addr(self.fs.sb, self.ino) + MMIO_PTR_OFFSET
        self.device.write_persistent(ctx, ptr, _WORD.pack(self.head_block),
                                     CAT_WRITE_ACCESS)
        self.device.fence(ctx)

    @classmethod
    def from_media(cls, fs, ino, head_block):
        """Rebuild a log from its head block at mount; None if invalid."""
        try:
            raw = fs.device.read_media(block_addr(head_block),
                                       APPLIED_OFF + 8)
        except MediaError:
            return None
        magic, token, owner, first, nblocks, policy_word, crc = \
            _HEAD.unpack_from(raw)
        if magic != LOG_MAGIC or owner != ino or first != head_block + 1 \
                or crc != _crc_zeroed(raw[:_HEAD.size], _HEAD_CRC_OFF):
            return None
        log = cls(fs, ino, checksums=bool(policy_word & _CHECKSUM_FLAG))
        log.token = token
        log._set_geometry(head_block, nblocks)
        log.committed = _WORD.unpack_from(raw, COMMITTED_OFF)[0]
        log.applied = _WORD.unpack_from(raw, APPLIED_OFF)[0]
        return log

    def _set_geometry(self, head_block, nblocks):
        self.head_block = head_block
        self.nblocks = nblocks
        self.half_lines = nblocks // 2 * LINES_PER_BLOCK
        self.max_payload = (self.half_lines - 1) * CACHELINE_SIZE
        self._payload_addr = block_addr(head_block + 1)

    def _half_addr(self, epoch):
        return self._payload_addr + (epoch % 2) * self.half_lines \
            * CACHELINE_SIZE

    # -- appending --------------------------------------------------------

    def append(self, ctx, kind, epoch, file_offset, payload):
        """Persist one entry (header + payload, one contiguous persist)
        at the tail of ``epoch``'s half; the caller checked that the
        entry fits the lines the half has left."""
        length = len(payload)
        if length > self.max_payload:
            raise InvalidArgument("mmio entry of %d bytes cannot fit half "
                                  "the log" % length)
        end = ENTRY_SIZE + length
        buf = self._buf
        if len(buf) < end:
            buf = self._buf = bytearray(end)
        _ENTRY.pack_into(buf, 0, ENTRY_MAGIC, kind, epoch, file_offset,
                         length, self.token, 0)
        buf[ENTRY_SIZE:end] = payload
        entry = memoryview(buf)[:end]
        if self.checksums:
            # The CRC field above is zero, so the CRC of the packed entry
            # is its checksum: patch it in.
            _CRC.pack_into(buf, _ENTRY_CRC_OFF, zlib.crc32(entry))
        # _half_addr(epoch), inline, then the tail.
        self.device.write_persistent(
            ctx, self._payload_addr
            + ((epoch % 2) * self.half_lines + self.tail) * CACHELINE_SIZE,
            entry, CAT_WRITE_ACCESS)
        self.tail += 1 + -(-length // CACHELINE_SIZE)
        self.fs.env.stats.counters["mmio_log_appends"] += 1

    # -- epoch state ------------------------------------------------------

    def commit(self, ctx, epoch):
        """THE commit point: one atomic 8-byte persist of the epoch.  The
        next epoch appends into the other half."""
        base = block_addr(self.head_block)
        self.device.fence(ctx)
        self.device.write_persistent(ctx, base + COMMITTED_OFF,
                                     _WORD.pack(epoch), CAT_WRITE_ACCESS)
        self.device.fence(ctx)
        self.committed = epoch
        self.tail = 0

    def mark_applied(self, ctx, epoch):
        base = block_addr(self.head_block)
        self.device.write_persistent(ctx, base + APPLIED_OFF,
                                     _WORD.pack(epoch), CAT_WRITE_ACCESS)
        self.device.fence(ctx)
        self.applied = epoch

    def all_blocks(self):
        return range(self.head_block, self.head_block + 1 + self.nblocks)

    # -- scanning (recovery) ----------------------------------------------

    def scan_media(self):
        """Decode each half's valid entry chain, stopping at its first
        invalid line (a torn tail, or bytes from a previous incarnation).
        Entries of an older epoch past a newer one's tail still parse;
        callers select by epoch."""
        entries = []
        read = self.device.read_media
        for half in (0, 1):
            base = self._half_addr(half)
            line = 0
            while line < self.half_lines:
                addr = base + line * CACHELINE_SIZE
                try:
                    raw = read(addr, ENTRY_SIZE)
                except MediaError:
                    break
                magic, kind, epoch, file_offset, length, token, crc = \
                    _ENTRY.unpack(raw)
                nlines = -(-length // CACHELINE_SIZE)
                if magic != ENTRY_MAGIC or token != self.token or \
                        kind not in (KIND_UNDO, KIND_REDO) or \
                        line + 1 + nlines > self.half_lines:
                    break
                try:
                    payload = read(addr + ENTRY_SIZE, length)
                except MediaError:
                    break
                if self.checksums and \
                        crc != _crc_zeroed(raw, _ENTRY_CRC_OFF, payload):
                    break
                entries.append(LogEntry(kind, epoch, file_offset, payload))
                line += 1 + nlines
        return entries


class _PendingEpoch:
    """A committed redo epoch on its applier's queue: its overlay, the
    block map it applies against, its :func:`_pieces` and the index of
    the next one to write."""

    __slots__ = ("epoch", "overlay", "blockmap", "pieces", "next")

    def __init__(self, epoch, overlay, blockmap, size):
        self.epoch = epoch
        self.overlay = overlay
        self.blockmap = blockmap
        self.pieces = _pieces(size, overlay)
        self.next = 0


class EpochApplier(BackgroundTask):
    """A mapping's redo apply: one serial writer stream on its own clock.

    Each wake writes one in-place chunk of the oldest committed epoch and
    re-arms at that chunk's device end, as paced pressure writeback does,
    so the apply lands on the media in virtual-time order beside the
    foreground.  After an epoch's last chunk it fences and persists the
    log's ``applied`` word.  :meth:`wait` runs the stream ahead for a
    foreground that may not go on before an epoch is in place.
    """

    def __init__(self, mapping):
        super().__init__(mapping.fs.env, "mmio-apply:%d" % mapping.ino)
        self.device = mapping.fs.device
        self.log = mapping.log
        self.index = mapping._index
        #: Committed epochs not yet in place, oldest first, as
        #: :class:`_PendingEpoch`.  Loads read through the overlays (via
        #: the mapping's index) until the epoch's ``applied`` word is
        #: durable.
        self.pending = deque()
        #: epoch -> when its ``applied`` word was durable (recent ones).
        self._done_ns = {}
        self._due = NEVER

    def next_due_ns(self):
        return self._due

    def submit(self, ctx, epoch, overlay, blockmap, size):
        """Queue a just-committed epoch's apply, from ``ctx.now`` on:
        the ``overlay`` ranges against the file's ``blockmap``, clamped
        to ``size`` (the file's size at the commit)."""
        self.pending.append(_PendingEpoch(epoch, overlay, blockmap, size))
        if self._due == NEVER:
            self._due = max(self.ctx.now, ctx.now)
            self.env.background.note_earlier(self._due)

    def run_due(self, horizon_ns):
        while self._due <= horizon_ns:
            self._step()

    def wait(self, ctx, epoch):
        """Apply every epoch up to ``epoch``; ``ctx`` waits until the
        ``applied`` word of ``epoch`` is durable."""
        while self.pending and self.pending[0].epoch <= epoch:
            self._step()
        done = self._done_ns.get(epoch, 0)
        if done > ctx.now:
            with ctx.layer(LAYER_NVMM):
                ctx.sync_to(done, CAT_WRITE_ACCESS)

    def _step(self):
        """One wake: the oldest epoch's next piece, or its ``applied``
        word.

        Each piece's block is looked up at the wake that writes it, not
        at the commit: the scrubber may remap a block
        (:meth:`~repro.fs.pmfs.blockmap.BlockMap.set`) while the epoch
        waits, and a hole is skipped."""
        ctx = self.ctx
        due = self._due
        if due > ctx.now:
            ctx.now = due
        head = self.pending[0]
        pieces = head.pieces
        lookup = head.blockmap.mirror.get
        while head.next < len(pieces):
            _pos, file_block, in_off, chunk = pieces[head.next]
            head.next += 1
            nvmm_block = lookup(file_block)
            if nvmm_block is not None:
                # block_addr(nvmm_block), inline.
                self.device.write_persistent(
                    ctx, nvmm_block * BLOCK_SIZE + in_off, chunk,
                    CAT_WRITE_ACCESS)
                self._due = ctx.now if ctx.now > due else due + 1
                return
        self.device.fence(ctx)
        self.log.mark_applied(ctx, head.epoch)
        _index_drop(self.index, self.pending.popleft().overlay)
        self._done_ns[head.epoch] = ctx.now
        self._done_ns.pop(head.epoch - 2, None)
        self._due = max(ctx.now, due + 1) if self.pending else NEVER


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
      stages them in a DRAM overlay and hands them to the mapping's
      :class:`EpochApplier` after the commit word.  While such a
      mapping is live the owning file system also routes conventional
      read/write/fsync requests through :meth:`handle_request`, so
      descriptor I/O and mapped stores stay POSIX-coherent and share
      one epoch timeline.
    """

    def __init__(self, fs, ino, policy=None, log_blocks=4,
                 log_checksums=True):
        if policy is not None and policy not in _POLICY_CODES:
            raise InvalidArgument("unknown mmio policy %r" % (policy,))
        self.fs = fs
        self.ino = ino
        self.closed = False
        self.policy = policy
        #: The epoch log and its applier, or None on a plain mapping.
        self.log = None if policy is None else \
            MmioLog(fs, ino, checksums=log_checksums)
        self.applier = None
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
        #: file_block -> the redo overlay entries touching it that are
        #: staged or committed but not yet applied, oldest first: the
        #: open epoch's and every pending epoch's, by reference.
        self._index = {}
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
            self.applier = self.fs.env.background.register(
                EpochApplier(self))
        self.fs.env.stats.bump("mmio_maps")

    def _detach_log(self, ctx):
        """Finish every committed apply, then drop the applier and the
        log (munmap, unlink)."""
        if self.log is not None:
            self.applier.wait(ctx, self.log.committed)
            self.fs.env.background.unregister(self.applier)
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
        self._index.clear()

    def munmap(self, ctx):
        """Commit the open epoch (an implicit msync, as on a clean
        munmap), detach the log, release its blocks."""
        if self.closed:
            return
        self._op(ctx, "mmio.munmap", self._munmap_locked)
        self.closed = True
        self.fs.on_munmap(self.ino, self)

    def _munmap_locked(self, ctx):
        self._msync_locked(ctx)
        self._detach_log(ctx)

    # -- library-mode ops (zero syscall charges) --------------------------

    def load(self, ctx, offset, length):
        """A load through the mapping -- no syscall entry, no VFS."""
        return self._op(ctx, "mmio.load", self._load_locked, offset, length)

    def store(self, ctx, offset, data):
        """A store through the mapping: logged, then staged or applied
        per the epoch's policy.  Volatile until ``msync`` commits."""
        self._op(ctx, "mmio.store", self._store_locked, offset, bytes(data))
        return len(data)

    def msync(self, ctx):
        """Commit the epoch: everything stored so far becomes durable
        (and, with a log, atomic -- a crash now recovers all of it or
        none of it).  Returns the number of staged ranges committed."""
        return self._op(ctx, "mmio.msync", self._msync_locked)

    def _op(self, ctx, name, body, *args):
        """Run ``body(ctx, *args)`` as the op ``name``: inside an
        ``mmio`` span, holding the mapping's mutex, counted as one
        completed op.

        Untraced, the span is its disabled path without the span object
        (``trace_span`` saved, cleared and restored).  The mutex is
        taken and dropped inline, as :meth:`VMutex.acquire` and
        :meth:`VMutex.release` do: a busy one still waits in
        ``_wait_until``, with its counters, ``lock`` phase and
        ``waiting`` label.
        """
        env = self.fs.env
        if env.trace is None:
            span = None
            previous = ctx.trace_span
            ctx.trace_span = None
        else:
            span = ctx.span(name, layer=LAYER_MMIO)
            span.__enter__()
        mu = self._mu
        try:
            if mu._free_at > ctx.now:
                mu._wait_until(ctx, mu._free_at, "acquire")
            else:
                env.stats.counters["lock_acquisitions"] += 1
            mu.owner = ctx.name
            try:
                result = body(ctx, *args)
            finally:
                if ctx.now > mu._free_at:
                    mu._free_at = ctx.now
                mu.owner = None
        finally:
            if span is None:
                ctx.trace_span = previous
            else:
                span.__exit__(None, None, None)
        env.stats.ops_completed += 1
        return result

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
        # _enter("load"), inline.
        if self.closed:
            raise InvalidArgument("mapping already unmapped")
        fs = self.fs
        env = fs.env
        if env.faults is not None:
            env.faults.check("mmio:load", self.ino)
        self._epoch_loads += 1
        env.stats.counters["mmio_loads"] += 1
        mirror = fs._map(self.ino).mirror
        read = fs.device.read
        index = self._index
        out = bytearray()
        pos, remaining = offset, length
        while remaining > 0:
            file_block = pos // BLOCK_SIZE
            in_off = pos % BLOCK_SIZE
            take = BLOCK_SIZE - in_off
            if take > remaining:
                take = remaining
            nvmm_block = mirror.get(file_block)
            if nvmm_block is None:
                out += bytes(take)
                ctx.charge(fs.config.load_cost_ns(take), CAT_READ_ACCESS)
            else:
                # block_addr(nvmm_block), inline.
                out += read(ctx, nvmm_block * BLOCK_SIZE + in_off, take)
            entries = index.get(file_block)
            if entries:
                # Unapplied redo bytes of this block, oldest first, each
                # clipped to the block's part of the load.
                stop = pos + take
                for over_off, over in entries:
                    lo = pos if pos > over_off else over_off
                    hi = over_off + len(over)
                    if hi > stop:
                        hi = stop
                    if lo < hi:
                        out[lo - offset:hi - offset] = \
                            over[lo - over_off:hi - over_off]
            pos += take
            remaining -= take
        return bytes(out)

    def _store_locked(self, ctx, offset, data):
        # _enter("store"), inline.
        if self.closed:
            raise InvalidArgument("mapping already unmapped")
        fs = self.fs
        env = fs.env
        if env.faults is not None:
            env.faults.check("mmio:store", self.ino)
        if not data:
            return
        log = self.log
        if self._epoch_policy is None:
            self._epoch_policy = self._resolve_policy()
            if self._epoch_policy == POLICY_UNDO and log is not None:
                # Pre-images must be the committed bytes: every pending
                # apply lands before the epoch's first in-place store.
                self.applier.wait(ctx, log.committed)
        self._epoch_stores += 1
        env.stats.counters["mmio_stores"] += 1
        blockmap = fs._map(self.ino)
        inode = blockmap.inode
        length = len(data)
        end = offset + length
        if end > inode.size:
            # Grow the file (the kernel updates i_size on extending maps)
            # before the first entry: an autocommit mid-store applies the
            # pieces staged so far, clamped to the size.
            tx = fs.journal.begin(ctx)
            inode.size = end
            inode.mtime = ctx.now
            fs.itable.write_core(ctx, tx, inode)
            fs.journal.commit(ctx, tx)
        # Every policy maps the store's holes now (a page fault, one
        # journaled transaction), so recovery and apply always find a
        # home for the entries' bytes.
        mirror = blockmap.mirror
        for file_block in range(offset // BLOCK_SIZE,
                                (end - 1) // BLOCK_SIZE + 1):
            if file_block not in mirror:
                tx = fs.journal.begin(ctx)
                try:
                    fs._ensure_mapped(ctx, tx, blockmap, offset, length)
                finally:
                    fs.journal.commit(ctx, tx)
                break
        # One log entry per store, split only where it outgrows half
        # the log; a plain mapping stores it whole.
        if log is None or length <= log.max_payload:
            self._store_piece(ctx, blockmap, offset, data)
            return
        step = log.max_payload
        for pos in range(0, length, step):
            self._store_piece(ctx, blockmap, offset + pos,
                              data[pos:pos + step])

    def _store_piece(self, ctx, blockmap, file_offset, piece):
        if self._epoch_policy == POLICY_REDO:
            self._append(ctx, KIND_REDO, file_offset, piece)
            entry = (file_offset, piece)
            self._overlay.append(entry)
            _index_add(self._index, entry)
            return
        device = self.fs.device
        spans = _in_place(blockmap, file_offset + len(piece),
                          ((file_offset, piece),))
        if self.log is not None:
            # The undo image is durable (persist-event order) before the
            # in-place store can land, so every crash state rolls back.
            image = bytearray()
            for _off, addr, chunk in spans:
                image += device.read(ctx, addr, len(chunk))
            self._append(ctx, KIND_UNDO, file_offset, image)
        for off, addr, chunk in spans:
            device.write_cached(ctx, addr, chunk, CAT_WRITE_ACCESS)
            self._dirty_ranges.append((off, addr, len(chunk)))

    def _append(self, ctx, kind, file_offset, payload):
        plan = self.fs.env.faults
        if plan is not None:
            plan.check("mmio:append", self.ino)
        log = self.log
        if log.tail + 1 + -(-len(payload) // CACHELINE_SIZE) \
                > log.half_lines:
            # The interrupted store belongs to the epoch the autocommit
            # opens, and one epoch runs one policy: re-resolving
            # mid-store would mix undo dirty ranges with a redo overlay
            # that its commit path never flushes or applies.
            policy = self._epoch_policy
            self._commit_epoch(ctx)
            self._epoch_policy = policy
            self.fs.env.stats.bump("mmio_autocommits")
        epoch = log.committed + 1
        if log.tail == 0:
            # The epoch's first entry reuses the half of the epoch before
            # the last: that one must be in place.
            self.applier.wait(ctx, epoch - 2)
        log.append(ctx, kind, epoch, file_offset, payload)

    def _msync_locked(self, ctx):
        self._enter("msync")
        if (self.log is None or self.log.tail == 0) \
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
            # Entries are already persistent: the commit word is the
            # durability point, and the applier moves the epoch in place
            # behind it while the next epoch appends into the other half.
            log.commit(ctx, epoch)
            self.applier.submit(ctx, epoch, self._overlay,
                                fs._map(self.ino), fs._inode(self.ino).size)
            self._overlay = []
        else:
            for _foff, addr, length in self._dirty_ranges:
                fs.device.clflush(ctx, addr, length, CAT_WRITE_ACCESS)
            fs.device.fence(ctx)
            if log is not None:
                log.commit(ctx, epoch)
                log.mark_applied(ctx, epoch)
            self._dirty_ranges = []
        self._prev_loads = self._epoch_loads
        self._prev_stores = self._epoch_stores
        self._epoch_loads = 0
        self._epoch_stores = 0
        self._epoch_policy = None
        fs.env.stats.bump("mmio_epochs_committed")
        return committed

    # -- truncate coherence ----------------------------------------------

    def invalidate_past(self, ctx, new_size):
        """Settle staged state before a shrinking truncate.

        Called by the file system before it frees the blocks past the
        new EOF (another file may get them back): every pending apply
        lands first, and a later ``msync`` must not flush, apply -- or
        keep addresses into -- blocks this mapping will no longer own.
        """
        if self.applier is not None:
            self.applier.wait(ctx, self.log.committed)
        self._dirty_ranges = [
            (off, addr, min(length, new_size - off))
            for off, addr, length in self._dirty_ranges if off < new_size]
        self._overlay = [(off, over[:new_size - off])
                         for off, over in self._overlay if off < new_size]
        # Nothing is pending any more: the index is the open epoch's.
        self._index.clear()
        for entry in self._overlay:
            _index_add(self._index, entry)


# -- mount-time recovery ---------------------------------------------------

def recover(fs, ctx):
    """Recover every live file's mmio log at mount.

    Runs after journal recovery and the DRAM rebuild: for each inode
    whose slot carries a log pointer, re-apply every committed epoch
    above ``applied`` (at most two, oldest first, each from its own
    half; idempotent), roll back uncommitted undo entries (reverse
    order), then detach the log.  The log's blocks were never referenced
    by a blockmap, so the rebuilt allocator already counts them free;
    detaching before the mount serves I/O keeps them from ever being
    seen half-owned.
    """
    recovered = 0
    for inode in fs.itable.live_inodes():
        try:
            raw = fs.device.read_media(
                inode_addr(fs.sb, inode.ino) + MMIO_PTR_OFFSET, 8)
        except MediaError:
            continue
        head_block = _WORD.unpack(raw)[0]
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
                               _WORD.pack(0), CAT_WRITE_ACCESS)
    fs.device.fence(ctx)


def _recover_log(fs, ctx, inode, log):
    entries = log.scan_media()

    def logged(kind, epoch):
        return [(e.file_offset, e.payload) for e in entries
                if e.kind == kind and e.epoch == epoch]

    # Redo epochs committed but not (fully) applied: the applier's work,
    # redone from the entries, oldest first.
    ranges = []
    for epoch in range(log.applied + 1, log.committed + 1):
        ranges += logged(KIND_REDO, epoch)
        fs.env.stats.bump("mmio_recovered_applies")
    # Uncommitted undo entries: the in-place bytes may hold any subset
    # of the torn epoch's stores; restore the pre-images in reverse.
    undo = logged(KIND_UNDO, log.committed + 1)
    if undo:
        fs.env.stats.bump("mmio_recovered_rollbacks")
    for _off, addr, chunk in _in_place(fs._map(inode.ino), inode.size,
                                       ranges + undo[::-1]):
        fs.device.write_persistent(ctx, addr, chunk, CAT_WRITE_ACCESS)
    fs.device.fence(ctx)


def _index_add(index, entry):
    """Append a redo overlay entry to the list of every block it
    touches (:attr:`MmioMapping._index`)."""
    file_offset, data = entry
    last = (file_offset + len(data) - 1) // BLOCK_SIZE
    for file_block in range(file_offset // BLOCK_SIZE, last + 1):
        index.setdefault(file_block, []).append(entry)


def _index_drop(index, overlay):
    """Remove an applied epoch's overlay entries from the index: in
    every list they are in, they are the oldest."""
    for file_offset, data in overlay:
        last = (file_offset + len(data) - 1) // BLOCK_SIZE
        for file_block in range(file_offset // BLOCK_SIZE, last + 1):
            entries = index[file_block]
            del entries[0]
            if not entries:
                del index[file_block]


def _pieces(size, ranges):
    """The ``(file_offset, file_block, in_block_offset, bytes)`` pieces
    of logged ``(file_offset, bytes)`` ranges, in range order (a later
    overlapping range still wins): split at block edges and clamped to
    ``size`` (a truncate may have shrunk the file under the epoch).  The
    one split of undo stores, the applier and recovery."""
    pieces = []
    for file_offset, data in ranges:
        stop = file_offset + len(data)
        if stop > size:
            stop = size
        pos = file_offset
        while pos < stop:
            file_block, in_off = divmod(pos, BLOCK_SIZE)
            take = BLOCK_SIZE - in_off
            if take > stop - pos:
                take = stop - pos
            start = pos - file_offset
            pieces.append((pos, file_block, in_off, data[start:start + take]))
            pos += take
    return pieces


def _in_place(blockmap, size, ranges):
    """The in-place ``(file_offset, nvmm_addr, bytes)`` pieces of logged
    ranges (:func:`_pieces`), holes skipped: the journal rolled their
    allocation back."""
    lookup = blockmap.mirror.get
    out = []
    for pos, file_block, in_off, chunk in _pieces(size, ranges):
        nvmm_block = lookup(file_block)
        if nvmm_block is not None:
            # block_addr(nvmm_block), inline.
            out.append((pos, nvmm_block * BLOCK_SIZE + in_off, chunk))
    return out
