"""Bitmap block allocator shared by every storage substrate."""

from itertools import chain


class OutOfSpaceError(Exception):
    """Raised when an allocation cannot be satisfied."""


class BlockAllocator:
    """Address-ordered bitmap allocator over a fixed population of blocks.

    Used for NVMM data blocks (PMFS/HiNFS), DRAM buffer blocks (HiNFS),
    and extfs block groups.  :meth:`alloc` hands out the lowest free
    block, as PMFS does from the head of its address-ordered free list:
    a fresh device allocates contiguously, and a freed block is the next
    one reused, so the blocks ever touched track the live set.
    """

    def __init__(self, num_blocks, first_block=0):
        if num_blocks <= 0:
            raise ValueError("allocator needs at least one block")
        self.num_blocks = int(num_blocks)
        self.first_block = int(first_block)
        #: One byte per block, 1 = free, indexed from ``first_block``.
        self._map = bytearray(b"\x01") * self.num_blocks
        self.free_count = self.num_blocks
        #: Nothing below this index is free; the scan starts here.
        self._low = 0
        #: Blocks pulled from circulation because their media went bad
        #: (the scrubber's badblocks list).  Quarantined blocks count as
        #: allocated and are never handed out again.
        self.quarantined = set()

    @property
    def used_count(self):
        return self.num_blocks - self.free_count

    def is_allocated(self, block):
        return not self._map[self._index(block)]

    def _index(self, block):
        index = block - self.first_block
        if not 0 <= index < self.num_blocks:
            raise ValueError("block %d outside allocator range" % block)
        return index

    def alloc(self):
        """Allocate the lowest free block."""
        index = self._map.find(1, self._low)
        if index < 0:
            raise OutOfSpaceError("no free blocks")
        self._map[index] = 0
        self.free_count -= 1
        self._low = index + 1
        return self.first_block + index

    def alloc_run(self, count):
        """Allocate the lowest run of ``count`` contiguous free blocks;
        returns its first block."""
        index = self._map.find(b"\x01" * count, self._low)
        if index < 0:
            raise OutOfSpaceError("no run of %d free blocks" % count)
        self._map[index:index + count] = bytes(count)
        self.free_count -= count
        if index == self._low:
            self._low = index + count
        return self.first_block + index

    def alloc_many(self, count):
        """Allocate ``count`` blocks (not necessarily contiguous): the
        ``count`` lowest free ones, ascending -- what ``count`` calls of
        :meth:`alloc` return -- taken a free run at a time."""
        if count > self.free_count:
            raise OutOfSpaceError(
                "asked for %d blocks, only %d free" % (count, self.free_count)
            )
        blocks = []
        if not count:
            return blocks
        bitmap = self._map
        first = self.first_block
        index = self._low
        left = count
        while left:
            index = bitmap.find(1, index)
            end = index + 1
            if left > 1 and end < self.num_blocks and bitmap[end]:
                end = bitmap.find(0, end, index + left)
                if end < 0:
                    end = min(index + left, self.num_blocks)
                bitmap[index:end] = bytes(end - index)
                blocks.extend(range(first + index, first + end))
            else:  # a run of one
                bitmap[index] = 0
                blocks.append(first + index)
            left -= end - index
            index = end
        self.free_count -= count
        self._low = index
        return blocks

    def free(self, block):
        index = self._index(block)
        if self._map[index]:
            raise ValueError("double free of block %d" % block)
        if block in self.quarantined:
            return
        self._map[index] = 1
        self.free_count += 1
        if index < self._low:
            self._low = index

    def free_many(self, blocks):
        """:meth:`free` every block of ``blocks`` in order, a run of
        consecutive blocks at a time; on a bad block it raises what
        :meth:`free` raises, with the blocks before it freed."""
        if self.quarantined:
            for block in blocks:
                self.free(block)
            return
        bitmap = self._map
        first = self.first_block
        start = stop = None
        for block in chain(blocks, (None,)):
            if block is not None and block == stop:
                stop += 1
                continue
            if stop is not None:
                # Free the run [start, stop) -- block by block if any of
                # it is out of range or already free: free() then frees
                # the blocks before that one and raises.
                index, end = start - first, stop - first
                if index < 0 or end > self.num_blocks \
                        or bitmap.find(1, index, end) >= 0:
                    for each in range(start, stop):
                        self.free(each)
                else:
                    bitmap[index:end] = b"\x01" * (end - index)
                    self.free_count += end - index
                    if index < self._low:
                        self._low = index
            if block is not None:
                start, stop = block, block + 1

    def mark_allocated(self, block):
        """Claim a specific block (used when rebuilding state at recovery)."""
        index = self._index(block)
        self.free_count -= self._map[index]
        self._map[index] = 0

    def quarantine(self, block):
        """Pull ``block`` out of circulation permanently (bad media).

        Works on both free and allocated blocks; a later :meth:`free` of
        a quarantined block is a silent no-op instead of returning it to
        the pool.
        """
        self.mark_allocated(block)
        self.quarantined.add(block)
