"""The NVMM-aware DRAM write buffer (paper Section 3.2).

Holds lazy-persistent writes in DRAM blocks until the background
writeback threads (or an fsync) persist them to NVMM.  Three structures
from the paper live here:

- the **DRAM Block Index**: per file, a map from the block-aligned file
  offset to the index node carrying the DRAM block number and the
  corresponding NVMM block number.  The paper uses a B-tree (Figure 5);
  here it is a dict, because a lookup costs the flat ``index_lookup_ns``
  either way and callers only need ascending offsets, which
  :meth:`WriteBuffer.file_blocks` gets from ``sorted()``;
- the **Cacheline Bitmap** on every buffered block (Section 3.2.1);
- the global **LRW list** ordering blocks by last written time.

Beside them one dirty list holds every written block in first-dirtied
order, for the aged and periodic writeback scans.
"""

from repro.core.bitmap import FULL_MASK, CachelineBitmap
from repro.core.policies import make_policy
from repro.engine.stats import CAT_WRITE_ACCESS
from repro.nvmm.allocator import BlockAllocator, OutOfSpaceError
from repro.nvmm.device import DRAMDevice
from repro.nvmm.config import BLOCK_SIZE, CACHELINE_SIZE, LINES_PER_BLOCK


class BufferBlock:
    """One buffered DRAM block: the paper's Index Node plus line state."""

    __slots__ = (
        "ino",
        "file_block",
        "dram_block",
        "dram_addr",
        "nvmm_block",
        "bitmap",
        "last_written_ns",
        "last_req_id",
        "pending_txs",
    )

    def __init__(self, ino, file_block, dram_block, nvmm_block):
        self.ino = ino
        self.file_block = file_block
        self.dram_block = dram_block
        self.dram_addr = dram_block * BLOCK_SIZE
        self.nvmm_block = nvmm_block
        self.bitmap = CachelineBitmap()
        self.last_written_ns = 0
        #: Request id of the last IORequest that wrote into this block;
        #: lets fault injection target one in-flight request's writeback.
        self.last_req_id = None
        #: Open journal transactions whose commit waits on this block
        #: (HiNFS's ordered-mode deferred commit, Section 4.1).  A dict
        #: used as an insertion-ordered set: completion must visit the
        #: transactions in a reproducible order (a ``set`` would iterate
        #: in ``id()`` order and break run-to-run determinism).
        self.pending_txs = {}

    @property
    def is_dirty(self):
        return self.bitmap.dirty != 0

    def __repr__(self):
        return "BufferBlock(ino=%d, fb=%d, dram=%d, nvmm=%d, %r)" % (
            self.ino,
            self.file_block,
            self.dram_block,
            self.nvmm_block,
            self.bitmap,
        )


class WriteBuffer:
    """The DRAM buffer pool and its index/LRW bookkeeping."""

    def __init__(self, env, nvmm_config, hinfs_config):
        self.env = env
        self.config = hinfs_config
        self.blocks_total = hinfs_config.buffer_blocks
        self.dram = DRAMDevice(env, nvmm_config, self.blocks_total * BLOCK_SIZE)
        self._alloc = BlockAllocator(self.blocks_total)
        #: Victim-ordering policy; LRW by default (paper Section 3.2),
        #: with LFU/ARC/2Q available as the paper's deferred future work.
        self.policy = make_policy(hinfs_config.replacement_policy,
                                  capacity_hint=self.blocks_total)
        #: The DRAM Block Index: ino -> {file_block: BufferBlock}.
        self._index = {}
        #: Every written block, first-dirtied first (a dict used as an
        #: insertion-ordered set); a block leaves it only on eviction.
        self._dirty = {}
        #: ``L_dram``: what a buffered write pays per touched cacheline,
        #: and what a whole-block store pays for its 64 lines.
        self._line_store_ns = nvmm_config.dram_store_cost_ns(CACHELINE_SIZE)
        self._block_store_ns = LINES_PER_BLOCK * self._line_store_ns

    # -- capacity ---------------------------------------------------------

    @property
    def free_blocks(self):
        return self._alloc.free_count

    @property
    def used_blocks(self):
        return self._alloc.used_count

    @property
    def below_low_watermark(self):
        return self.free_blocks < self.config.low_blocks

    @property
    def at_high_watermark(self):
        return self.free_blocks >= self.config.high_blocks

    # -- index -----------------------------------------------------------

    def lookup(self, ino, file_block):
        blocks = self._index.get(ino)
        if blocks is None:
            return None
        return blocks.get(file_block)

    def insert(self, ino, file_block, nvmm_block):
        """Allocate a DRAM block and index it; caller guarantees space."""
        try:
            dram_block = self._alloc.alloc()
        except OutOfSpaceError:
            raise RuntimeError(
                "buffer insert without a free block; caller must reclaim first"
            ) from None
        block = BufferBlock(ino, file_block, dram_block, nvmm_block)
        blocks = self._index.get(ino)
        if blocks is None:
            blocks = self._index[ino] = {}
        blocks[file_block] = block
        # Admission counts as the block's first write: write_into() does
        # not tell the policy about it again.  Admitting here, not there,
        # keeps a block whose edge-line fetch raised in the victim order.
        self.policy.on_buffered(block)
        self.env.stats.counters["buffer_inserts"] += 1
        return block

    def evict(self, block):
        """Remove a block from the index/LRW and free its DRAM frame.

        The caller is responsible for having flushed or discarded the
        dirty lines first.
        """
        blocks = self._index.get(block.ino)
        if blocks is not None:
            blocks.pop(block.file_block, None)
            if not blocks:
                del self._index[block.ino]
        self._dirty.pop(block, None)
        self.policy.on_evict(block)
        self._alloc.free(block.dram_block)
        self.env.stats.counters["buffer_evictions"] += 1

    def file_index(self, ino):
        """The file's ``{file_block: BufferBlock}`` index, or None when
        none of its blocks is buffered.  Read-only: for a caller that
        looks up many blocks of one file."""
        return self._index.get(ino)

    def file_blocks(self, ino):
        """All buffered blocks of a file, in file-offset order."""
        blocks = self._index.get(ino, {})
        return [blocks[fb] for fb in sorted(blocks)]

    def all_blocks_lrw_order(self, limit=None):
        """Every buffered block, best-victim first (policy order); only
        the first ``limit`` of them when one is given."""
        return self.policy.iter_order(limit)

    def dirty_blocks(self):
        """Every dirty block, first-dirtied first."""
        return list(self._dirty)

    # -- data plane ---------------------------------------------------------

    def write_into(self, ctx, block, offset_in_block, data, now_ns):
        """Store bytes into a buffered block and update its state.

        Charged per touched cacheline (``L_dram`` per line), matching the
        cost the Buffer Benefit Model's Inequality (1) attributes to a
        buffered write -- this is the "extra copy" half of the double-copy
        overhead the paper eliminates for eager-persistent writes.
        ``data`` may be any bytes-like object (a caller's memoryview
        slice included): this store is the one copy it gets.
        """
        length = len(data)
        self.dram.mem.write(block.dram_addr + offset_in_block, data)
        bitmap = block.bitmap
        if length == BLOCK_SIZE:
            ctx.charge(self._block_store_ns, CAT_WRITE_ACCESS)
            bitmap.valid |= FULL_MASK
            bitmap.dirty |= FULL_MASK
        else:
            mask = bitmap.mark_written(offset_in_block, length)
            ctx.charge(mask.bit_count() * self._line_store_ns,
                       CAT_WRITE_ACCESS)
        self.env.stats.bytes_written_dram += length
        block.last_written_ns = now_ns
        if block in self._dirty:
            self.policy.on_write(block)
        else:
            self._dirty[block] = None

    def read_from(self, ctx, block, offset_in_block, length):
        return self.dram.read(ctx, block.dram_addr + offset_in_block, length)
