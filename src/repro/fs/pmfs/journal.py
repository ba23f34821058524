"""Cacheline-granular undo journal (PMFS-style, reused by HiNFS).

Every journal entry is exactly one 64-byte cacheline carrying a
generation stamp, so the architectural guarantee that stores within one
cacheline are never reordered makes each entry crash-atomic (paper,
Section 4.1).

Protocol (undo logging):

1. ``begin`` opens a transaction.
2. For every metadata range about to change, ``journaled_write`` first
   appends undo entries holding the *old* bytes (entry write + clflush),
   then mutates the metadata in place (cached store + clflush).
3. ``commit`` appends a COMMIT entry, flushes, and fences.

Recovery scans the ring; transactions without a COMMIT entry are rolled
back, newest first, by re-applying their undo images in reverse order.

The log is a ring with a tail.  Entries are numbered by a log sequence
that only grows (``head``; the slot is ``head % capacity``); the tail is
the first entry of the oldest open transaction, or the head when none
is open, and the space behind it is free the moment that transaction
commits -- nothing has to be closed for the head to pass the last slot.
A 64-byte header cacheline at the start of the region holds the
generation of the pass being written; passing the last slot bumps it
(one header persist) and carries on at slot 0.  A complete pass
overwrites every slot, so the ring only ever holds two generations: the
current one in ``[0, head % capacity)`` and the previous one after it.
Recovery replays exactly those two, previous first, each in slot order
-- which is append order -- then steps the generation by two, so neither
live stamp matches any more, and zeroes every slot that carries a
stamp: transaction ids restart at 1 with every mount and a one-byte
stamp comes round again after 255 steps, so nothing scanned once may
ever match a later scan.

Space is kept, not found: ``begin`` leaves one slot per open transaction
for its COMMIT plus ``1 / HEADROOM_DIV`` of the ring for the transaction
it opens, and asks ``make_room`` -- HiNFS flushes the buffered blocks
the *oldest* deferred commits wait on -- when that reserve is short.

HiNFS difference (Section 4.1): for lazy-persistent writes the COMMIT
entry is *deferred* until the buffered DRAM data blocks of the
transaction have been written back to NVMM, preserving the ordered-mode
invariant (data persists before the metadata that references it).
"""

import re
import struct
import zlib
from collections import deque

from repro.engine.stats import CAT_OTHERS
from repro.fs.pmfs.layout import block_addr
from repro.nvmm.config import CACHELINE_SIZE

ENTRY_MAGIC = b"JNL!"
HEADER_MAGIC = b"JHDR"
ENTRY_SIZE = CACHELINE_SIZE
#: magic, tx_id, kind, gen, len, addr, csum, payload.  The CRC32 covers
#: the whole cacheline with the csum field zeroed, so a *torn* entry --
#: one whose leading 8-byte words persisted but whose tail did not
#: (sub-cacheline crash model) -- is detected and dropped at scan time
#: instead of being replayed as garbage undo.  jbd2 checksums its
#: descriptor/commit blocks for exactly this reason.
ENTRY_FMT = "<4sIBBHQI40s"
ENTRY_PAYLOAD_MAX = 40
#: Byte offset/size of the csum field inside a packed entry.
_CSUM_OFFSET = struct.calcsize("<4sIBBHQ")
_CSUM_SIZE = 4
#: Byte offset of the one-byte generation stamp inside a packed entry.
_GEN_OFFSET = struct.calcsize("<4sIB")
_ENTRY_PACK_INTO = struct.Struct(ENTRY_FMT).pack_into
_ENTRY_UNPACK_FROM = struct.Struct(ENTRY_FMT).unpack_from
_CSUM_PACK_INTO = struct.Struct("<I").pack_into
#: Runs of slots carrying a generation stamp, over the ring's stamp bytes.
_STAMPED_RUNS = re.compile(rb"[^\0]+").finditer
assert struct.calcsize(ENTRY_FMT) == ENTRY_SIZE


def entry_checksum(entry):
    """CRC32 of a packed entry with its csum field zeroed."""
    blank = entry[:_CSUM_OFFSET] + b"\0" * _CSUM_SIZE \
        + entry[_CSUM_OFFSET + _CSUM_SIZE:]
    return zlib.crc32(blank) & 0xFFFFFFFF

#: magic, generation (header cacheline at the start of the ring)
HEADER_FMT = "<4sQ"

KIND_UNDO = 1
KIND_COMMIT = 2

#: Generations cycle in [1, 255]; 0 marks a never-written (or
#: recovery-zeroed) slot.
GEN_MODULUS = 255

#: The ring's two fill lines, as divisors of ``capacity``.  ``begin``
#: keeps ``capacity // HEADROOM_DIV`` slots free for the transaction it
#: opens (on top of a COMMIT slot per open transaction) and makes room
#: on the foreground when they are not; the background starts closing
#: the oldest deferred transactions once ``capacity // RELIEF_DIV``
#: slots are in use, so the foreground rarely has to.
HEADROOM_DIV = 4
RELIEF_DIV = 2


def _step_gen(gen, steps):
    """``gen`` moved ``steps`` generations round the [1, 255] cycle."""
    return (gen + steps - 1) % GEN_MODULUS + 1


class JournalFullError(Exception):
    """The open transactions (or a single one) need more slots than the
    ring has."""


class Transaction:
    """An open journal transaction."""

    __slots__ = ("tx_id", "open", "entries", "first", "owner")

    def __init__(self, tx_id):
        self.tx_id = tx_id
        self.open = True
        self.entries = 0
        #: Log sequence of its first entry; None until it has one.
        self.first = None
        #: The HiNFS PendingTx that defers this commit, or None: how
        #: make_room finds the blocks the oldest open one waits on.
        self.owner = None

    def __repr__(self):
        return "Transaction(id=%d, open=%s, entries=%d)" % (
            self.tx_id,
            self.open,
            self.entries,
        )


class Journal:
    """The undo-journal ring in a reserved NVMM region."""

    def __init__(self, env, device, sb, config, checksums=True):
        self.env = env
        self.device = device
        self.config = config
        #: Entry CRCs on/off.  Off exists only as the negative control for
        #: the torn-write explorer: without checksums a torn entry whose
        #: magic+gen words persisted is replayed with a garbage addr/payload.
        self.checksums = checksums
        self.base_addr = block_addr(sb.journal_start)
        # Slot 0 of the region is the generation header.
        self.capacity = sb.journal_blocks * (4096 // ENTRY_SIZE) - 1
        #: Past this many slots in use the oldest transactions should be
        #: closed in the background (``make_room`` down to it).
        self.relief_limit = self.capacity // RELIEF_DIV
        #: Log sequence of the next entry; it lands in slot
        #: ``head % capacity``.
        self.head = 0
        #: Log sequence of the oldest open transaction's first entry;
        #: the head's, when no open transaction holds log space.
        self._tail = 0
        self._next_tx_id = 1
        self._open_txs = {}
        #: The open transactions that hold log space, oldest first entry
        #: first (``_tail`` is ``_logged[0].first``).
        self._logged = deque()
        #: The entry being appended is packed here, then checksummed and
        #: patched in place (the store copies it out before the next).
        self._entry = bytearray(ENTRY_SIZE)
        self.gen = self._read_header_gen()
        if self.gen == 0:
            self.gen = 1
            self._write_header_raw()

    # -- header -----------------------------------------------------------

    def _read_header_gen(self):
        # read_media is fault-aware: a poisoned header line fails recovery
        # with EIO, which mount() turns into a degraded (read-only) mount.
        raw = self.device.read_media(self.base_addr, ENTRY_SIZE)
        magic, gen = struct.unpack_from(HEADER_FMT, raw)
        return gen if magic == HEADER_MAGIC else 0

    def _header_bytes(self):
        return struct.pack(HEADER_FMT, HEADER_MAGIC, self.gen).ljust(
            ENTRY_SIZE, b"\0"
        )

    def _write_header_raw(self):
        """Initial (mkfs-time) header write: data plane only."""
        self.device.mem.write_nocache(self.base_addr, self._header_bytes())

    def _write_header(self, ctx):
        self.device.persist_line(ctx, self.base_addr, self._header_bytes())

    def _slot_addr(self, slot):
        return self.base_addr + (slot + 1) * ENTRY_SIZE

    # -- transactions -----------------------------------------------------

    def make_room(self, ctx, limit):
        """Close the oldest open transactions until ``used_slots <=
        limit``.  A hook: the journal itself knows nobody to ask; HiNFS
        installs the routine that forces writeback of the data blocks
        its deferred commits wait on."""

    def begin(self, ctx):
        open_txs = self._open_txs
        if open_txs:
            # The reserve invariant: a COMMIT slot per open transaction,
            # this one included, and the headroom on top.
            limit = self.capacity - self.capacity // HEADROOM_DIV - 1 \
                - len(open_txs)
            if self.head - self._tail > limit:
                self.make_room(ctx, limit)
                if self.used_slots + len(open_txs) >= self.capacity:
                    raise JournalFullError("%d open transactions hold every "
                                           "slot" % len(open_txs))
        tx = Transaction(self._next_tx_id)
        self._next_tx_id += 1
        self._open_txs[tx.tx_id] = tx
        return tx

    def log_undo(self, ctx, tx, addr, length):
        """Capture the current bytes of ``[addr, addr+length)`` as undo."""
        if not tx.open:
            raise ValueError("transaction %d already closed" % tx.tx_id)
        offset = 0
        while offset < length:
            take = min(ENTRY_PAYLOAD_MAX, length - offset)
            old = self.device.mem.read(addr + offset, take)
            self._append(ctx, tx, KIND_UNDO, addr + offset, old)
            offset += take

    def journaled_write(self, ctx, tx, addr, new_bytes):
        """Undo-log then mutate a metadata range in place (flushed)."""
        new_bytes = bytes(new_bytes)
        length = len(new_bytes)
        if 0 < length <= ENTRY_PAYLOAD_MAX:
            # One entry holds the whole undo image (an inode core, a
            # block pointer): append it without the capture loop, and
            # store a range inside one line with the line kernel.
            if not tx.open:
                raise ValueError("transaction %d already closed" % tx.tx_id)
            self._append(ctx, tx, KIND_UNDO, addr,
                         self.device.mem.read(addr, length))
            if addr % CACHELINE_SIZE + length <= CACHELINE_SIZE:
                self.device.persist_line(ctx, addr, new_bytes, fences=0)
                return
        else:
            self.log_undo(ctx, tx, addr, length)
        self.device.persist_cached(ctx, addr, new_bytes, CAT_OTHERS)

    def commit(self, ctx, tx):
        """Append the COMMIT entry; the transaction becomes durable and
        the tail moves up to the oldest transaction still open."""
        if not tx.open:
            raise ValueError("transaction %d already closed" % tx.tx_id)
        # The entry's own fence, then the commit's ordering point.
        self._append(ctx, tx, KIND_COMMIT, 0, b"", fences=2)
        tx.open = False
        self._open_txs.pop(tx.tx_id, None)
        logged = self._logged
        while logged and not logged[0].open:
            logged.popleft()
        self._tail = logged[0].first if logged else self.head

    @property
    def open_transactions(self):
        return len(self._open_txs)

    @property
    def oldest_open(self):
        """The open transaction the tail waits on, or None."""
        return self._logged[0] if self._logged else None

    @property
    def used_slots(self):
        """Slots from the tail to the head."""
        return self.head - self._tail

    # -- ring management --------------------------------------------------

    def _append(self, ctx, tx, kind, addr, payload, fences=1):
        head = self.head
        # Only a COMMIT may take a slot held back for the COMMITs.
        held = len(self._open_txs) if kind != KIND_COMMIT else 0
        if head - self._tail + held >= self.capacity:
            raise JournalFullError("transaction %d overran the ring" % tx.tx_id)
        if len(payload) > ENTRY_PAYLOAD_MAX:
            # "40s" would truncate silently under the recorded length.
            raise ValueError(
                "journal payload of %d bytes exceeds the %d-byte entry field"
                % (len(payload), ENTRY_PAYLOAD_MAX))
        slot = head % self.capacity
        if slot == 0 and head:
            # Past the last slot: the next pass gets its own generation,
            # durable in the header before any entry carries it.
            self.gen = _step_gen(self.gen, 1)
            self._write_header(ctx)
            self.env.stats.bump("journal_wraps")
        entry = self._entry
        _ENTRY_PACK_INTO(
            entry, 0, ENTRY_MAGIC, tx.tx_id, kind, self.gen, len(payload),
            addr, 0, payload,
        )
        if self.checksums:
            # The csum field above is zero, so the CRC of the packed
            # entry *is* entry_checksum(entry); patch it in.
            _CSUM_PACK_INTO(entry, _CSUM_OFFSET, zlib.crc32(entry))
        # One cacheline: write, flush, fence -- the entry (including its
        # generation stamp) becomes persistent atomically.  The slot
        # address is _slot_addr(slot), inline.
        self.device.persist_line(
            ctx, self.base_addr + (slot + 1) * ENTRY_SIZE, entry, fences)
        if tx.first is None:
            # With nothing logged the tail sat at the head: this is it.
            tx.first = head
            self._logged.append(tx)
        self.head = head + 1
        tx.entries += 1

    # -- recovery -----------------------------------------------------------

    def _scan(self):
        """``(transactions, generation byte of every slot)``."""
        current_gen = self._read_header_gen()
        transactions = {}
        # One fault-checked read of the whole ring (every mount scans
        # it): a bad line anywhere in it fails the scan with MediaError.
        ring = self.device.read_media(self._slot_addr(0),
                                      self.capacity * ENTRY_SIZE)
        # Filter in C: the generation bytes by stride, then only the
        # slots stamped with a live generation are unpacked -- the
        # previous pass, then the current one, each in slot order.  A
        # mount right after a recovery finds none: recovery zeroes every
        # stamp.  A header value past one byte matches no entry.
        gens = ring[_GEN_OFFSET::ENTRY_SIZE]
        for gen in (_step_gen(current_gen, -1), current_gen) \
                if current_gen <= 0xFF else ():
            slot = gens.find(gen)
            while slot != -1:
                start = slot * ENTRY_SIZE
                slot = gens.find(gen, slot + 1)  # next hit, if any
                magic, tx_id, kind, _gen, length, addr, csum, payload = \
                    _ENTRY_UNPACK_FROM(ring, start)
                if magic != ENTRY_MAGIC:
                    continue
                if self.checksums and csum != entry_checksum(
                        ring[start:start + ENTRY_SIZE]):
                    # Torn or corrupt entry: never replay it.  Safe to
                    # drop -- an undo entry is durable *before* its
                    # metadata mutation, so a torn entry's transaction
                    # changed nothing yet.
                    self.env.stats.bump("journal_csum_drops")
                    continue
                record = transactions.setdefault(
                    tx_id, {"undo": [], "committed": False}
                )
                if kind == KIND_COMMIT:
                    record["committed"] = True
                elif kind == KIND_UNDO:
                    record["undo"].append((addr, payload[:length]))
        return transactions, gens

    def scan(self):
        """Parse every live entry (data-plane only).

        Returns ``{tx_id: {"undo": [(addr, bytes), ...], "committed": bool}}``
        in append order.
        """
        return self._scan()[0]

    def recover(self, ctx):
        """Roll back uncommitted transactions; returns how many."""
        transactions, gens = self._scan()
        rolled_back = 0
        for tx_id, record in sorted(transactions.items(), reverse=True):
            if record["committed"]:
                continue
            for addr, old in reversed(record["undo"]):
                self.device.persist_cached(ctx, addr, old, CAT_OTHERS)
            self.device.fence(ctx)
            rolled_back += 1
        # Invalidate what was scanned, atomically: two generations on,
        # neither live stamp matches.  Then zero every stamped slot, run
        # by run -- transaction ids restart with this mount and a
        # one-byte stamp comes round again, so an entry left in a slot
        # later sessions never reach would one day be replayed over
        # current metadata.  A power cut in between leaves dead entries
        # for the next mount's recovery to zero.
        self.gen = _step_gen(self._read_header_gen(), 2)
        self._write_header(ctx)
        for run in _STAMPED_RUNS(gens):
            self.device.persist_cached(
                ctx, self._slot_addr(run.start()),
                bytes(len(run.group()) * ENTRY_SIZE), CAT_OTHERS)
        self.head = self._tail = 0
        self._open_txs.clear()
        self._logged.clear()
        return rolled_back
