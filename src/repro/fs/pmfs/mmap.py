"""Direct memory-mapped I/O (paper Section 4.2).

PMFS (and HiNFS) map file data straight into the application's address
space: loads and stores hit NVMM through the CPU cache, so stores are
*volatile* until an ``msync`` flushes the dirtied cachelines.  HiNFS
additionally flushes the file's buffered DRAM blocks at ``mmap`` time
and pins its blocks Eager-Persistent until ``munmap`` (mapped stores
bypass the file-I/O path, so nothing may be staged in DRAM).
"""

from repro.engine.stats import CAT_READ_ACCESS, CAT_WRITE_ACCESS
from repro.fs.errors import InvalidArgument
from repro.fs.pmfs.layout import block_addr
from repro.nvmm.config import BLOCK_SIZE


class MappedRegion:
    """One live mapping of a file's blocks into user space."""

    def __init__(self, fs, ino):
        self.fs = fs
        self.ino = ino
        self.closed = False
        # (file_offset, nvmm_addr, length) ranges stored since the last
        # msync -- file offsets so a truncate can invalidate the tail.
        self._dirty_ranges = []

    def _require_open(self):
        if self.closed:
            raise InvalidArgument("mapping already unmapped")

    def _block_addr(self, ctx, file_block, allocate):
        blockmap = self.fs._map(self.ino)
        nvmm_block = blockmap.get(file_block)
        if nvmm_block is None:
            if not allocate:
                return None
            # Page fault on a hole: allocate and map the block.
            tx = self.fs.journal.begin(ctx)
            nvmm_block, _ = self.fs._ensure_mapped(ctx, tx, blockmap,
                                                   file_block)
            self.fs.journal.commit(ctx, tx)
        return block_addr(nvmm_block)

    # -- user-space access --------------------------------------------------

    def read(self, ctx, offset, length):
        """A load through the mapping (direct, single copy)."""
        self._require_open()
        out = bytearray()
        pos, remaining = offset, length
        while remaining > 0:
            file_block, in_off = divmod(pos, BLOCK_SIZE)
            take = min(BLOCK_SIZE - in_off, remaining)
            base = self._block_addr(ctx, file_block, allocate=False)
            if base is None:
                out.extend(b"\0" * take)
                ctx.charge(self.fs.config.load_cost_ns(take), CAT_READ_ACCESS)
            else:
                out.extend(self.fs.device.read(ctx, base + in_off, take))
            pos += take
            remaining -= take
        return bytes(out)

    def write(self, ctx, offset, data):
        """A store through the mapping: cached, volatile until msync."""
        self._require_open()
        pos = offset
        view = memoryview(bytes(data))
        while view:
            file_block, in_off = divmod(pos, BLOCK_SIZE)
            take = min(BLOCK_SIZE - in_off, len(view))
            base = self._block_addr(ctx, file_block, allocate=True)
            self.fs.device.write_cached(ctx, base + in_off, bytes(view[:take]),
                                        CAT_WRITE_ACCESS)
            self._dirty_ranges.append((pos, base + in_off, take))
            pos += take
            view = view[take:]
        inode = self.fs._inode(self.ino)
        if offset + len(data) > inode.size:
            # Grow the file (the kernel updates i_size on extending maps).
            tx = self.fs.journal.begin(ctx)
            inode.size = offset + len(data)
            inode.mtime = ctx.now
            self.fs.itable.write_core(ctx, tx, inode)
            self.fs.journal.commit(ctx, tx)
        return len(data)

    # -- synchronisation ------------------------------------------------------

    def msync(self, ctx):
        """Flush every cacheline dirtied through this mapping."""
        self._require_open()
        for _file_offset, addr, length in self._dirty_ranges:
            self.fs.device.clflush(ctx, addr, length, CAT_WRITE_ACCESS)
        self.fs.device.fence(ctx)
        flushed = len(self._dirty_ranges)
        self._dirty_ranges = []
        self.fs.env.stats.bump("msync_calls")
        return flushed

    def munmap(self, ctx):
        """Drop the mapping (an implicit msync, as on clean munmap)."""
        if self.closed:
            return
        self.msync(ctx)
        self.closed = True
        self.fs.on_munmap(self.ino, self)

    # -- truncate coherence ---------------------------------------------------

    def invalidate_past(self, new_size):
        """Drop dirty ranges past a new (smaller) EOF.

        Called by the file system under ``truncate``: the blocks past
        EOF are freed (and may be reallocated to another file), so a
        later ``msync`` must not flush -- and a stale range must not
        reference -- addresses this mapping no longer owns.
        """
        kept = []
        for file_offset, addr, length in self._dirty_ranges:
            if file_offset >= new_size:
                continue
            if file_offset + length > new_size:
                length = new_size - file_offset
            kept.append((file_offset, addr, length))
        self._dirty_ranges = kept
