"""PMFS inodes: packed 256-byte NVMM slots with a DRAM mirror.

The NVMM inode table is the source of truth (recovery rebuilds all DRAM
state from it); the mirror exists because the kernel, too, keeps a struct
inode cache.  All mutations go through the undo journal.

The inode struct's first 40 bytes (one cacheline's worth: kind, nlink,
size, mtime, ctime, last_sync) form the *core*, updated together with a
single undo entry; the 112-byte pointer area (12 direct, 1 indirect, 1
double-indirect) is journaled separately only when the block map changes.

``last_sync`` is the field HiNFS adds to file metadata to timestamp the
most recent synchronization operation (paper, footnote 4); PMFS itself
never reads it.
"""

import heapq
import struct

from repro.fs.pmfs.layout import (
    INODE_FMT,
    INODE_SIZE,
    KIND_DIR,
    KIND_FILE,
    KIND_FREE,
    N_DIRECT,
    inode_addr,
)

CORE_FMT = "<BBHIQQQQ"
CORE_SIZE = struct.calcsize(CORE_FMT)  # 40 bytes
POINTER_FMT = "<12QQQ"
POINTER_SIZE = struct.calcsize(POINTER_FMT)  # 112 bytes


class PmfsInode:
    """DRAM mirror of one on-NVMM inode."""

    __slots__ = (
        "ino",
        "kind",
        "nlink",
        "size",
        "mtime",
        "ctime",
        "last_sync",
        "direct",
        "indirect",
        "dindirect",
    )

    def __init__(self, ino):
        self.ino = ino
        self.kind = KIND_FREE
        self.nlink = 0
        self.size = 0
        self.mtime = 0
        self.ctime = 0
        self.last_sync = 0
        self.direct = [0] * N_DIRECT
        self.indirect = 0
        self.dindirect = 0

    # -- packing ----------------------------------------------------------

    def pack_core(self):
        return struct.pack(
            CORE_FMT,
            self.kind,
            0,
            self.nlink,
            0,
            self.size,
            self.mtime,
            self.ctime,
            self.last_sync,
        )

    def pack_pointers(self):
        return struct.pack(POINTER_FMT, *self.direct, self.indirect, self.dindirect)

    @classmethod
    def unpack(cls, ino, raw, offset=0):
        fields = struct.unpack_from(INODE_FMT, raw, offset)
        inode = cls(ino)
        (inode.kind, _, inode.nlink, _, inode.size, inode.mtime, inode.ctime,
         inode.last_sync) = fields[:8]
        inode.direct = list(fields[8 : 8 + N_DIRECT])
        inode.indirect = fields[8 + N_DIRECT]
        inode.dindirect = fields[9 + N_DIRECT]
        return inode

    @property
    def is_dir(self):
        return self.kind == KIND_DIR

    def __repr__(self):
        return "PmfsInode(ino=%d, kind=%d, size=%d)" % (self.ino, self.kind, self.size)


class InodeTable:
    """Allocation and journaled write-back of the NVMM inode table."""

    def __init__(self, device, journal, sb):
        self.device = device
        self.journal = journal
        self.sb = sb
        #: Address of inode 1: the table is one contiguous run, so inode
        #: ``ino``'s core sits ``(ino - 1) * INODE_SIZE`` past it.
        self._table_addr = inode_addr(sb, 1)
        self._mirror = {}
        #: Min-heap of free inode numbers (an ascending list is one):
        #: ``alloc`` hands out the lowest free inode in O(log n).
        self._free = list(range(1, sb.inode_count + 1))

    # -- mirror access ----------------------------------------------------

    def get(self, ino):
        inode = self._mirror.get(ino)
        if inode is None or inode.kind == KIND_FREE:
            return None
        return inode

    def live_inodes(self):
        return [i for i in self._mirror.values() if i.kind != KIND_FREE]

    # -- NVMM write-back ----------------------------------------------------

    def core_addr(self, ino):
        return inode_addr(self.sb, ino)

    def write_core(self, ctx, tx, inode):
        """Persist kind/nlink/size/times with one journaled cacheline:
        one undo entry, then the core stored by the device's line
        kernel (:meth:`core_addr`, inline)."""
        self.journal.journaled_write(
            ctx, tx, self._table_addr + (inode.ino - 1) * INODE_SIZE,
            inode.pack_core())

    def write_pointers(self, ctx, tx, inode):
        """Persist the 112-byte block-pointer area (journaled)."""
        self.journal.journaled_write(
            ctx, tx, self.core_addr(inode.ino) + CORE_SIZE, inode.pack_pointers()
        )

    # -- lifecycle ---------------------------------------------------------

    def alloc(self, ctx, tx, kind, now_ns):
        if not self._free:
            from repro.fs.errors import NoSpace

            raise NoSpace("inode table full")
        ino = heapq.heappop(self._free)
        inode = PmfsInode(ino)
        inode.kind = kind
        inode.nlink = 2 if kind == KIND_DIR else 1
        inode.ctime = inode.mtime = now_ns
        self._mirror[ino] = inode
        self.write_core(ctx, tx, inode)
        self.write_pointers(ctx, tx, inode)
        return inode

    def free(self, ctx, tx, inode):
        inode.kind = KIND_FREE
        inode.nlink = 0
        inode.size = 0
        self.write_core(ctx, tx, inode)
        self._mirror.pop(inode.ino, None)
        heapq.heappush(self._free, inode.ino)

    # -- recovery -----------------------------------------------------------

    def load_from_nvmm(self):
        """Rebuild the mirror and free heap by scanning the NVMM table:
        one read, the kind bytes taken by stride, and only the live
        slots unpacked (in place)."""
        self._mirror.clear()
        self._free = []
        raw = self.device.mem.read(inode_addr(self.sb, 1),
                                   self.sb.inode_count * INODE_SIZE)
        for ino, kind in enumerate(raw[::INODE_SIZE], 1):
            if kind == KIND_FREE:
                self._free.append(ino)
            else:
                self._mirror[ino] = PmfsInode.unpack(
                    ino, raw, (ino - 1) * INODE_SIZE)


__all__ = ["InodeTable", "PmfsInode", "KIND_DIR", "KIND_FILE", "KIND_FREE"]
