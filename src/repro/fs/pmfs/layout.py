"""On-NVMM layout of PMFS (and therefore of HiNFS's persistent half).

Device layout, in 4 KiB blocks::

    block 0                  superblock
    blocks 1 .. J            journal ring
    blocks J+1 .. J+I        inode table (16 inodes of 256 B per block)
    blocks J+I+1 .. end      data blocks (file data, dirents, indirects)

All multi-byte integers are little-endian.  Every mutable metadata slot
is updated through the undo journal so recovery can roll back torn
transactions.
"""

import struct

from repro.nvmm.config import BLOCK_SIZE

MAGIC = b"PMFSREPR"

# --- superblock -----------------------------------------------------------

#: magic, total_blocks, journal_start, journal_blocks, inode_table_start,
#: inode_count, data_start
SUPERBLOCK_FMT = "<8sQQQQQQ"
SUPERBLOCK_SIZE = struct.calcsize(SUPERBLOCK_FMT)


class Superblock:
    """Parsed superblock contents."""

    __slots__ = (
        "total_blocks",
        "journal_start",
        "journal_blocks",
        "inode_table_start",
        "inode_count",
        "data_start",
    )

    def __init__(
        self,
        total_blocks,
        journal_start,
        journal_blocks,
        inode_table_start,
        inode_count,
        data_start,
    ):
        self.total_blocks = total_blocks
        self.journal_start = journal_start
        self.journal_blocks = journal_blocks
        self.inode_table_start = inode_table_start
        self.inode_count = inode_count
        self.data_start = data_start

    def pack(self):
        return struct.pack(
            SUPERBLOCK_FMT,
            MAGIC,
            self.total_blocks,
            self.journal_start,
            self.journal_blocks,
            self.inode_table_start,
            self.inode_count,
            self.data_start,
        )

    @classmethod
    def unpack(cls, raw):
        magic, *fields = struct.unpack_from(SUPERBLOCK_FMT, raw)
        if magic != MAGIC:
            raise ValueError("bad superblock magic %r" % magic)
        return cls(*fields)

    @classmethod
    def compute(cls, total_blocks, journal_blocks=64, inode_count=None):
        """Carve up a device of ``total_blocks`` 4 KiB blocks."""
        if inode_count is None:
            inode_count = max(256, min(65536, total_blocks // 4))
        inode_blocks = -(-inode_count // INODES_PER_BLOCK)
        journal_start = 1
        inode_table_start = journal_start + journal_blocks
        data_start = inode_table_start + inode_blocks
        if data_start >= total_blocks:
            raise ValueError("device too small: %d blocks" % total_blocks)
        return cls(
            total_blocks,
            journal_start,
            journal_blocks,
            inode_table_start,
            inode_count,
            data_start,
        )


# --- inodes -----------------------------------------------------------------

INODE_SIZE = 256
INODES_PER_BLOCK = BLOCK_SIZE // INODE_SIZE

KIND_FREE = 0
KIND_FILE = 1
KIND_DIR = 2

N_DIRECT = 12
PTRS_PER_BLOCK = BLOCK_SIZE // 8

#: kind, nlink, pad, size, mtime, ctime, last_sync, 12 direct pointers,
#: indirect pointer, double-indirect pointer.  Block pointer 0 == hole.
INODE_FMT = "<BBHIQQQQ12QQQ"
INODE_FMT_SIZE = struct.calcsize(INODE_FMT)
assert INODE_FMT_SIZE <= INODE_SIZE

#: Maximum file size expressible by the block map.
MAX_FILE_BLOCKS = N_DIRECT + PTRS_PER_BLOCK + PTRS_PER_BLOCK * PTRS_PER_BLOCK


def block_addr(block):
    """Byte address of a 4 KiB block."""
    return block * BLOCK_SIZE


#: What a freshly allocated block is stamped with (holes read as zeros).
ZERO_BLOCK = bytes(BLOCK_SIZE)


def inode_addr(sb, ino):
    """Byte address of inode ``ino`` (1-based; slot 0 is reserved)."""
    if not 1 <= ino <= sb.inode_count:
        raise ValueError("inode %d out of range" % ino)
    index = ino - 1
    block = sb.inode_table_start + index // INODES_PER_BLOCK
    return block_addr(block) + (index % INODES_PER_BLOCK) * INODE_SIZE


# --- directory entries ------------------------------------------------------

DIRENT_SIZE = 64  # one cacheline
DIRENTS_PER_BLOCK = BLOCK_SIZE // DIRENT_SIZE
DIRENT_NAME_MAX = 48

#: ino, valid, name_len, pad, name bytes
DIRENT_FMT = "<QBB6s48s"
assert struct.calcsize(DIRENT_FMT) == DIRENT_SIZE


def pack_dirent(ino, name):
    encoded = name.encode("utf-8")
    if len(encoded) > DIRENT_NAME_MAX:
        raise ValueError("name too long: %r" % name)
    return struct.pack(DIRENT_FMT, ino, 1, len(encoded), b"\0" * 6, encoded)


def pack_empty_dirent():
    return b"\0" * DIRENT_SIZE


def unpack_dirent(raw, offset=0):
    """Return ``(ino, name)`` or ``None`` for an empty/invalid slot."""
    ino, valid, name_len, _, name = struct.unpack_from(DIRENT_FMT, raw, offset)
    if not valid or ino == 0:
        return None
    return ino, name[:name_len].decode("utf-8")
