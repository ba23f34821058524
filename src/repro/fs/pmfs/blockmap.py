"""Per-file block map: direct / indirect / double-indirect pointers.

The NVMM pointer blocks are the source of truth; a DRAM mirror
(``file_block -> nvmm_block``) keeps lookups O(1), exactly as the kernel
caches mapping state.  Every pointer mutation is a journaled write, so a
torn operation rolls back cleanly.  A write maps its holes as extents:
the new pointers of a run of adjacent slots (to the end of the direct
area or of the pointer block) go to the journal as ONE range -- undo
entries of up to ``ENTRY_PAYLOAD_MAX`` bytes, one flush of the
cachelines the slots span -- the way PMFS logs metadata ranges in
cacheline-sized entries and flushes a leaf's new pointers together.
With a flush + fence pair charged per log entry, an entry per 8-byte
pointer would put 32 foreground persists in front of a 64 KB
lazy-persistent write.  Single-pointer :meth:`BlockMap.set` and
:meth:`BlockMap.clear` remain for the scrubber's remap and truncate.
"""

import struct

from repro.fs.errors import InvalidArgument, NoSpace
from repro.fs.pmfs.inodes import CORE_SIZE
from repro.fs.pmfs.layout import (
    BLOCK_SIZE,
    MAX_FILE_BLOCKS,
    N_DIRECT,
    PTRS_PER_BLOCK,
    ZERO_BLOCK,
    block_addr,
)

_PTR = struct.Struct("<Q")
_PTR_BLOCK = struct.Struct("<%dQ" % PTRS_PER_BLOCK)
#: The source of a fresh stretch's zeroing store, up to 16 blocks a store.
#: Fixed: a source grown to the longest run raised the peak RSS by MBs.
_ZERO_RUN = 16
_ZEROS = memoryview(ZERO_BLOCK * _ZERO_RUN)


class BlockMap:
    """Block mapping for one inode."""

    def __init__(self, device, journal, inode_table, inode, balloc):
        self.device = device
        self.journal = journal
        self.itable = inode_table
        self.inode = inode
        self.balloc = balloc
        #: file block index -> nvmm block (holes absent).  Read-only
        #: outside this class; a loop over many blocks may bind its
        #: ``get`` once instead of calling :meth:`get` per block.
        self.mirror = {}
        # file of L2 pointer blocks: index in dindirect L1 -> nvmm block
        self._l2_blocks = {}

    # -- lookup -----------------------------------------------------------

    def get(self, file_block):
        """NVMM block for ``file_block`` or ``None`` for a hole."""
        return self.mirror.get(file_block)

    def mapped_blocks(self):
        """All (file_block, nvmm_block) pairs."""
        return list(self.mirror.items())

    # -- pointer slot resolution ----------------------------------------------

    def _pointer_slot(self, ctx, tx, file_block):
        """``(addr, room)``: the NVMM address of the 8-byte pointer slot
        for ``file_block`` and the slots from it to the end of its
        container (the direct area or the pointer block), which is how
        far a run of adjacent pointers can reach.  Allocates
        intermediate pointer blocks as needed."""
        if file_block < 0 or file_block >= MAX_FILE_BLOCKS:
            raise InvalidArgument("file block %d beyond max map" % file_block)
        core = self.itable.core_addr(self.inode.ino)
        if file_block < N_DIRECT:
            return core + CORE_SIZE + file_block * 8, N_DIRECT - file_block
        file_block -= N_DIRECT
        if file_block < PTRS_PER_BLOCK:
            ind = self._ensure_indirect(ctx, tx)
            return block_addr(ind) + file_block * 8, PTRS_PER_BLOCK - file_block
        file_block -= PTRS_PER_BLOCK
        l1_index, l2_index = divmod(file_block, PTRS_PER_BLOCK)
        l2 = self._ensure_l2(ctx, tx, l1_index)
        return block_addr(l2) + l2_index * 8, PTRS_PER_BLOCK - l2_index

    def _fresh_run(self, ctx, tx, slot_addr, count):
        """New blocks for the ``count`` adjacent empty pointer slots at
        ``slot_addr`` -- as many as the allocator still has, ``NoSpace``
        if it has none -- zeroed so they read as holes (data plane;
        charged to the journaled write; one non-temporal store per
        stretch of consecutive blocks), their addresses journaled as
        ONE range: undo entries of ``ENTRY_PAYLOAD_MAX`` bytes and one
        flush of the lines the slots span, not an entry and a flush per
        pointer.  If that write raises, the blocks go back to the
        allocator -- after the slots are put back to zero in the CPU
        cache: a failed persist leaves the new pointers visible and
        volatile, and the flush of any neighbour in their cachelines
        would make them durable once the blocks have other owners."""
        balloc = self.balloc
        count = min(count, balloc.free_count)
        if not count:
            raise NoSpace("NVMM device full")
        blocks = balloc.alloc_many(count)
        mem = self.device.mem
        if mem.observer is None:
            # One store per stretch of consecutive blocks.
            start = 0
            for end in range(1, count + 1):
                if end == count or blocks[end] != blocks[end - 1] + 1 \
                        or end - start == _ZERO_RUN:
                    mem.write_nocache(blocks[start] * BLOCK_SIZE,
                                      _ZEROS[:(end - start) * BLOCK_SIZE])
                    start = end
        else:
            # An observer records a zeroing store per block.
            for block in blocks:
                mem.write_nocache(block_addr(block), ZERO_BLOCK)
        try:
            self.journal.journaled_write(
                ctx, tx, slot_addr, struct.pack("<%dQ" % count, *blocks))
        except Exception:
            mem.write(slot_addr, bytes(8 * count))
            balloc.free_many(blocks)
            raise
        return blocks

    def _ensure_indirect(self, ctx, tx):
        inode = self.inode
        if inode.indirect == 0:
            [inode.indirect] = self._fresh_run(
                ctx, tx,
                self.itable.core_addr(inode.ino) + CORE_SIZE + N_DIRECT * 8, 1)
        return inode.indirect

    def _ensure_l2(self, ctx, tx, l1_index):
        inode = self.inode
        if inode.dindirect == 0:
            [inode.dindirect] = self._fresh_run(
                ctx, tx,
                self.itable.core_addr(inode.ino) + CORE_SIZE
                + (N_DIRECT + 1) * 8, 1)
        l2 = self._l2_blocks.get(l1_index)
        if l2 is None:
            [l2] = self._fresh_run(
                ctx, tx, block_addr(inode.dindirect) + l1_index * 8, 1)
            self._l2_blocks[l1_index] = l2
        return l2

    # -- mutation -----------------------------------------------------------

    def set(self, ctx, tx, file_block, nvmm_block):
        """Map ``file_block`` to ``nvmm_block`` (journaled)."""
        slot, _ = self._pointer_slot(ctx, tx, file_block)
        self.journal.journaled_write(ctx, tx, slot, _PTR.pack(nvmm_block))
        self.mirror[file_block] = nvmm_block
        if file_block < N_DIRECT:
            # Keep the DRAM inode's direct[] mirror coherent, so a later
            # write_pointers (e.g. drop_all) never resurrects stale slots.
            self.inode.direct[file_block] = nvmm_block

    def map_holes(self, ctx, tx, first, count):
        """Map the hole at file block ``first`` and every other hole
        among ``[first, first + count)`` to newly allocated, zeroed
        blocks, one journaled range per run of adjacent holes in one
        pointer container (see :meth:`_fresh_run`); returns the fresh
        ``{file_block: nvmm_block}``.  A writer calls this at the first
        hole of its request with the blocks it has left, so a request
        maps once.  When the allocator runs dry it maps what fits: the
        writer persists those blocks, arrives at the first one left
        unmapped, calls again and gets the ``NoSpace`` raised for a
        ``first`` that cannot be mapped."""
        mirror = self.mirror
        fresh = {}
        file_block, end = first, first + count
        try:
            while file_block < end:
                if file_block in mirror:
                    file_block += 1
                    continue
                slot, room = self._pointer_slot(ctx, tx, file_block)
                stop = min(file_block + room, end)
                run_end = file_block + 1
                while run_end < stop and run_end not in mirror:
                    run_end += 1
                blocks = self._fresh_run(ctx, tx, slot, run_end - file_block)
                if file_block < N_DIRECT:
                    self.inode.direct[file_block:file_block + len(blocks)] = \
                        blocks
                run = dict(zip(range(file_block, run_end), blocks))
                mirror.update(run)
                fresh.update(run)
                file_block += len(blocks)
        except NoSpace:
            if first not in mirror:
                raise
        return fresh

    def clear(self, ctx, tx, file_block):
        """Unmap ``file_block`` (journaled); returns the freed NVMM block."""
        nvmm_block = self.mirror.pop(file_block, None)
        if nvmm_block is None:
            return None
        slot, _ = self._pointer_slot(ctx, tx, file_block)
        self.journal.journaled_write(ctx, tx, slot, _PTR.pack(0))
        if file_block < N_DIRECT:
            self.inode.direct[file_block] = 0
        return nvmm_block

    def drop_all(self, ctx, tx):
        """Unmap everything; returns every freed block (data + pointer).

        Only the 112-byte in-inode pointer area needs journaling: once the
        root pointers are zero, the old indirect blocks are unreachable.
        """
        freed = list(self.mirror.values())
        if self.inode.indirect:
            freed.append(self.inode.indirect)
        if self.inode.dindirect:
            freed.append(self.inode.dindirect)
        freed.extend(self._l2_blocks.values())
        self.mirror.clear()
        self._l2_blocks.clear()
        self.inode.direct = [0] * N_DIRECT
        self.inode.indirect = 0
        self.inode.dindirect = 0
        self.itable.write_pointers(ctx, tx, self.inode)
        return freed

    # -- recovery -----------------------------------------------------------

    def _pointers(self, block):
        """``(index, pointer)`` for each non-zero slot of a pointer
        block, ascending: one load and one unpack of the whole block."""
        raw = self.device.mem.read(block_addr(block), 4096)
        return [(i, ptr) for i, ptr in enumerate(_PTR_BLOCK.unpack(raw))
                if ptr]

    def load_from_nvmm(self):
        """Rebuild the mirror by walking the persistent pointers."""
        mirror = self.mirror
        mirror.clear()
        self._l2_blocks.clear()
        for i, ptr in enumerate(self.inode.direct):
            if ptr:
                mirror[i] = ptr
        if self.inode.indirect:
            for i, ptr in self._pointers(self.inode.indirect):
                mirror[N_DIRECT + i] = ptr
        if self.inode.dindirect:
            for i, l2 in self._pointers(self.inode.dindirect):
                self._l2_blocks[i] = l2
                base = N_DIRECT + PTRS_PER_BLOCK + i * PTRS_PER_BLOCK
                for j, ptr in self._pointers(l2):
                    mirror[base + j] = ptr

    def all_physical_blocks(self):
        """Every NVMM block this map pins (data + pointer blocks)."""
        blocks = list(self.mirror.values())
        if self.inode.indirect:
            blocks.append(self.inode.indirect)
        if self.inode.dindirect:
            blocks.append(self.inode.dindirect)
        blocks.extend(self._l2_blocks.values())
        return blocks
