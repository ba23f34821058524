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

Recovery scans the ring; transactions of the current generation without
a COMMIT entry are rolled back by re-applying their undo images in
reverse order.

Ring recycling is epoch-based: a 64-byte header cacheline at the start
of the journal region holds the current generation; wrapping the ring
bumps the generation (one journaled header write), which atomically
invalidates every stale entry -- no bulk zeroing, matching PMFS's cheap
log-space reclamation.  Before a wrap every still-open transaction must
be closed, because its old-generation entries are about to be
invalidated; HiNFS's wrap barrier forces writeback of the buffered data
blocks those deferred commits are waiting on.

HiNFS difference (Section 4.1): for lazy-persistent writes the COMMIT
entry is *deferred* until the buffered DRAM data blocks of the
transaction have been written back to NVMM, preserving the ordered-mode
invariant (data persists before the metadata that references it).
"""

import struct
import zlib

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

#: Generations cycle in [1, 255]; 0 marks a never-written slot.  A stale
#: entry could only alias after 255 consecutive wraps without being
#: overwritten, which the reserve headroom makes impossible.
GEN_MODULUS = 255


class JournalFullError(Exception):
    """A single transaction exceeded the journal ring capacity."""


class Transaction:
    """An open journal transaction."""

    __slots__ = ("tx_id", "open", "entries")

    def __init__(self, tx_id):
        self.tx_id = tx_id
        self.open = True
        self.entries = 0

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
        #: Headroom kept free so a transaction never has to recycle the
        #: ring mid-append (which would invalidate its own undo entries).
        #: Every transaction writes at least one entry before its commit,
        #: so half the ring is always enough for the deferred commits.
        self.reserve_slots = max(64, self.capacity // 2)
        self._head = 0
        self._next_tx_id = 1
        self._open_txs = {}
        #: The entry being appended is packed here, then checksummed and
        #: patched in place (the store copies it out before the next).
        self._entry = bytearray(ENTRY_SIZE)
        self.gen = self._read_header_gen()
        if self.gen == 0:
            self.gen = 1
            self._write_header_raw()
        #: Called before the ring is recycled; must close every open
        #: transaction (HiNFS forces writeback of pending data blocks).
        self.wrap_barrier = None

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
        self.device.persist_cached(ctx, self.base_addr, self._header_bytes(),
                                   CAT_OTHERS, fence=True)

    def _slot_addr(self, slot):
        return self.base_addr + (slot + 1) * ENTRY_SIZE

    # -- transactions -----------------------------------------------------

    def begin(self, ctx):
        if self._head > self.capacity - self.reserve_slots:
            self._wrap(ctx)
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
        self.log_undo(ctx, tx, addr, len(new_bytes))
        self.device.persist_cached(ctx, addr, new_bytes, CAT_OTHERS)

    def commit(self, ctx, tx):
        """Append the COMMIT entry; the transaction becomes durable."""
        if not tx.open:
            raise ValueError("transaction %d already closed" % tx.tx_id)
        self._append(ctx, tx, KIND_COMMIT, 0, b"")
        self.device.fence(ctx)
        tx.open = False
        self._open_txs.pop(tx.tx_id, None)

    @property
    def open_transactions(self):
        return len(self._open_txs)

    @property
    def used_slots(self):
        return self._head

    # -- ring management --------------------------------------------------

    def _append(self, ctx, tx, kind, addr, payload):
        if self._head >= self.capacity:
            raise JournalFullError(
                "transaction %d overran the journal reserve" % tx.tx_id
            )
        if len(payload) > ENTRY_PAYLOAD_MAX:
            # "40s" would truncate silently under the recorded length.
            raise ValueError(
                "journal payload of %d bytes exceeds the %d-byte entry field"
                % (len(payload), ENTRY_PAYLOAD_MAX))
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
        # generation stamp) becomes persistent atomically.
        self.device.persist_cached(ctx, self._slot_addr(self._head), entry,
                                   CAT_OTHERS, fence=True)
        self._head += 1
        tx.entries += 1

    def _wrap(self, ctx):
        """Recycle the ring: close stragglers, bump the generation."""
        if self._open_txs:
            if self.wrap_barrier is None:
                raise JournalFullError(
                    "journal wrapped with %d open transactions"
                    % len(self._open_txs)
                )
            self.wrap_barrier(ctx)
            if self._open_txs:
                raise JournalFullError("wrap barrier left transactions open")
        self.gen = self.gen % GEN_MODULUS + 1
        self._write_header(ctx)
        self._head = 0
        self.env.stats.bump("journal_wraps")

    # -- recovery -----------------------------------------------------------

    def scan(self):
        """Parse every current-generation entry (data-plane only).

        Returns ``{tx_id: {"undo": [(addr, bytes), ...], "committed": bool}}``
        in append order.
        """
        current_gen = self._read_header_gen()
        transactions = {}
        # One fault-checked read of the whole ring (every mount scans
        # it): a bad line anywhere in it fails the scan with MediaError.
        ring = self.device.read_media(self._slot_addr(0),
                                      self.capacity * ENTRY_SIZE)
        if current_gen > 0xFF:
            return transactions  # an entry's stamp is one byte: no match
        # Filter in C: the generation bytes by stride, then only the
        # slots stamped with the current one are unpacked, in slot order.
        # A mount right after a recovery finds none -- recovery's last
        # act is the generation bump that invalidates the whole ring.
        gens = ring[_GEN_OFFSET::ENTRY_SIZE]
        slot = gens.find(current_gen)
        while slot != -1:
            start = slot * ENTRY_SIZE
            slot = gens.find(current_gen, slot + 1)  # next hit, if any
            magic, tx_id, kind, _gen, length, addr, csum, payload = \
                _ENTRY_UNPACK_FROM(ring, start)
            if magic != ENTRY_MAGIC:
                continue
            if self.checksums and csum != entry_checksum(
                    ring[start:start + ENTRY_SIZE]):
                # Torn or corrupt entry: never replay it.  Safe to drop --
                # an undo entry is durable *before* its metadata mutation,
                # so a torn entry's transaction changed nothing yet.
                self.env.stats.bump("journal_csum_drops")
                continue
            record = transactions.setdefault(
                tx_id, {"undo": [], "committed": False}
            )
            if kind == KIND_COMMIT:
                record["committed"] = True
            elif kind == KIND_UNDO:
                record["undo"].append((addr, payload[:length]))
        return transactions

    def recover(self, ctx):
        """Roll back uncommitted transactions; returns how many."""
        rolled_back = 0
        for tx_id, record in sorted(self.scan().items()):
            if record["committed"]:
                continue
            for addr, old in reversed(record["undo"]):
                self.device.persist_cached(ctx, addr, old, CAT_OTHERS)
            self.device.fence(ctx)
            rolled_back += 1
        # Invalidate the whole ring by starting a fresh generation.
        self.gen = self._read_header_gen() % GEN_MODULUS + 1
        self._write_header(ctx)
        self._head = 0
        self._open_txs.clear()
        return rolled_back
