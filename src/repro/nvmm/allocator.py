"""Bitmap block allocator shared by every storage substrate."""


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
        """Allocate ``count`` blocks (not necessarily contiguous)."""
        if count > self.free_count:
            raise OutOfSpaceError(
                "asked for %d blocks, only %d free" % (count, self.free_count)
            )
        return [self.alloc() for _ in range(count)]

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
        for block in blocks:
            self.free(block)

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
