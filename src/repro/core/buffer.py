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

from repro.core.bitmap import FULL_MASK, CachelineBitmap, line_range_mask
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
        return self.insert_run(ino, file_block, (nvmm_block,))[0]

    def insert_run(self, ino, file_block, nvmm_blocks):
        """Allocate and index DRAM blocks for file blocks ``file_block``,
        ``file_block + 1``, ... over ``nvmm_blocks`` -- one allocator
        call, the frames :meth:`insert` would have handed out one by
        one -- and admit them to the policy in that order; caller
        guarantees space."""
        try:
            dram_blocks = self._alloc.alloc_many(len(nvmm_blocks))
        except OutOfSpaceError:
            raise RuntimeError(
                "buffer insert without a free block; caller must reclaim first"
            ) from None
        blocks = self._index.get(ino)
        if blocks is None:
            blocks = self._index[ino] = {}
        run = []
        for dram_block, nvmm_block in zip(dram_blocks, nvmm_blocks):
            block = BufferBlock(ino, file_block, dram_block, nvmm_block)
            blocks[file_block] = block
            run.append(block)
            file_block += 1
        # Admission counts as the block's first write: write_into() does
        # not tell the policy about it again.  Admitting here, not there,
        # keeps a block whose edge-line fetch raised in the victim order.
        self.policy.on_buffered_run(run)
        self.env.stats.counters["buffer_inserts"] += len(run)
        return run

    def evict_many(self, blocks):
        """Remove blocks from the index, the dirty list and the policy,
        in order, and free their DRAM frames in one allocator call.

        The caller is responsible for having flushed or discarded the
        dirty lines first.
        """
        index = self._index
        dirty = self._dirty
        frames = []
        for block in blocks:
            file_blocks = index.get(block.ino)
            if file_blocks is not None:
                file_blocks.pop(block.file_block, None)
                if not file_blocks:
                    del index[block.ino]
            dirty.pop(block, None)
            frames.append(block.dram_block)
        if frames:
            self.policy.on_evict_run(blocks)
            self._alloc.free_many(frames)
            self.env.stats.counters["buffer_evictions"] += len(frames)

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

    def admit_run(self, ctx, ino, file_block, nvmm_blocks, offset_in_block,
                  data, req_id):
        """Buffer a request's run of new blocks in one pass: what
        :meth:`insert` and :meth:`write_into` do block by block, with the
        stores, stamps and ``L_dram`` charges they make.

        ``data`` starts at ``offset_in_block`` of ``file_block`` and
        covers the run; a block it covers only in part must sit on a
        freshly allocated (all-zero) NVMM block, so every line of every
        block is valid in DRAM and none needs a fetch.  Each block is
        stamped with the clock its own store starts at, and ``req_id``
        as its last writer."""
        run = self.insert_run(ino, file_block, nvmm_blocks)
        mem = self.dram.mem
        dirty = self._dirty
        block_ns, line_ns = self._block_store_ns, self._line_store_ns
        length = len(data)
        now = ctx.now
        last = len(run) - 1
        addr = run[0].dram_addr + offset_in_block  # the stretch's store
        stored = pos = 0
        for i, block in enumerate(run):
            take = BLOCK_SIZE - offset_in_block
            if take > length - pos:
                take = length - pos
            bitmap = block.bitmap
            bitmap.valid = FULL_MASK
            if take == BLOCK_SIZE:
                bitmap.dirty = FULL_MASK
                cost = block_ns
            else:
                # A partial block on a fresh NVMM block: its other lines
                # read as the zeroes NVMM holds (an untimed fill).
                mem.fill(block.dram_addr, BLOCK_SIZE, 0)
                mask = bitmap.dirty = line_range_mask(offset_in_block, take)
                cost = mask.bit_count() * line_ns
            block.last_written_ns = now
            block.last_req_id = req_id
            dirty[block] = None
            now += cost
            pos += take
            offset_in_block = 0
            # One store per stretch of consecutive DRAM frames.
            if i == last or run[i + 1].dram_block != block.dram_block + 1:
                mem.write(addr, data[stored:pos])
                if i != last:
                    addr, stored = run[i + 1].dram_addr, pos
        ctx.charge(now - ctx.now, CAT_WRITE_ACCESS)
        self.env.stats.bytes_written_dram += length
        return run

    def read_from(self, ctx, block, offset_in_block, length):
        return self.dram.read(ctx, block.dram_addr + offset_in_block, length)
