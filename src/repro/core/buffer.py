"""The NVMM-aware DRAM write buffer (paper Section 3.2).

Holds lazy-persistent writes in DRAM blocks until the background
writeback threads (or an fsync) persist them to NVMM.  Three structures
from the paper live here:

- the **DRAM Block Index**: a per-file B-tree keyed by the block-aligned
  file offset whose index nodes carry the DRAM block number and the
  corresponding NVMM block number (Figure 5);
- the **Cacheline Bitmap** on every buffered block (Section 3.2.1);
- the global **LRW list** ordering blocks by last written time.

The index is sharded by ``ino % buffer_shards``: each shard owns the
B-trees of its inodes plus an insertion-ordered dirty list, so parallel
writeback workers scan and flush their shards without touching a global
structure.  Victim *ordering* stays global (one policy instance) --
sharding distributes the work, not the replacement decision.
"""

from repro.core.bitmap import CachelineBitmap
from repro.core.btree import BTree
from repro.core.lrw import LRWNode
from repro.core.policies import make_policy
from repro.engine.stats import CAT_WRITE_ACCESS
from repro.nvmm.allocator import BlockAllocator, OutOfSpaceError
from repro.nvmm.device import DRAMDevice
from repro.nvmm.config import BLOCK_SIZE, CACHELINE_SIZE, lines_spanned


class BufferBlock(LRWNode):
    """One buffered DRAM block: the paper's Index Node plus line state."""

    __slots__ = (
        "ino",
        "file_block",
        "dram_block",
        "nvmm_block",
        "bitmap",
        "last_written_ns",
        "last_req_id",
        "pending_txs",
    )

    def __init__(self, ino, file_block, dram_block, nvmm_block):
        super().__init__()
        self.ino = ino
        self.file_block = file_block
        self.dram_block = dram_block
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
    def dram_addr(self):
        return self.dram_block * BLOCK_SIZE

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


class BufferShard:
    """One slice of the DRAM Block Index plus its dirty list."""

    __slots__ = ("index", "dirty")

    def __init__(self):
        # ino -> BTree(file_block -> BufferBlock): this shard's slice of
        # the DRAM Block Index.
        self.index = {}
        # (ino, file_block) -> BufferBlock, in first-dirtied order; the
        # shard-local dirty list writeback workers scan.
        self.dirty = {}


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
        self.nr_shards = max(1, hinfs_config.buffer_shards)
        self._shards = [BufferShard() for _ in range(self.nr_shards)]
        #: ``L_dram``: what a buffered write pays per touched cacheline.
        self._line_store_ns = nvmm_config.dram_store_cost_ns(CACHELINE_SIZE)

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

    def shard_of(self, ino):
        return ino % self.nr_shards

    def shard(self, ino):
        return self._shards[ino % self.nr_shards]

    def lookup(self, ino, file_block):
        tree = self.shard(ino).index.get(ino)
        if tree is None:
            return None
        return tree.get(file_block)

    def insert(self, ino, file_block, nvmm_block):
        """Allocate a DRAM block and index it; caller guarantees space."""
        try:
            dram_block = self._alloc.alloc()
        except OutOfSpaceError:
            raise RuntimeError(
                "buffer insert without a free block; caller must reclaim first"
            ) from None
        block = BufferBlock(ino, file_block, dram_block, nvmm_block)
        index = self.shard(ino).index
        tree = index.get(ino)
        if tree is None:
            tree = BTree()
            index[ino] = tree
        tree.insert(file_block, block)
        self.policy.on_buffered(block)
        self.env.stats.bump("buffer_inserts")
        return block

    def evict(self, block):
        """Remove a block from the index/LRW and free its DRAM frame.

        The caller is responsible for having flushed or discarded the
        dirty lines first.
        """
        shard = self.shard(block.ino)
        tree = shard.index.get(block.ino)
        if tree is not None:
            tree.remove(block.file_block)
            if len(tree) == 0:
                del shard.index[block.ino]
        shard.dirty.pop((block.ino, block.file_block), None)
        self.policy.on_evict(block)
        self._alloc.free(block.dram_block)
        self.env.stats.bump("buffer_evictions")

    def file_blocks(self, ino):
        """All buffered blocks of a file, in file-offset order."""
        tree = self.shard(ino).index.get(ino)
        if tree is None:
            return []
        return [block for _, block in tree.items()]

    def all_blocks_lrw_order(self, limit=None):
        """Every buffered block, best-victim first (policy order); only
        the first ``limit`` of them when one is given."""
        return self.policy.iter_order(limit)

    def shard_dirty_blocks(self, shard_id):
        """One shard's dirty blocks, first-dirtied first."""
        return list(self._shards[shard_id].dirty.values())

    def dirty_blocks(self):
        """Every dirty block, shard by shard (deterministic order)."""
        out = []
        for shard in self._shards:
            out.extend(shard.dirty.values())
        return out

    def dirty_block_count(self):
        return sum(len(shard.dirty) for shard in self._shards)

    # -- data plane ---------------------------------------------------------

    def write_into(self, ctx, block, offset_in_block, data, now_ns):
        """Store bytes into a buffered block and update its state.

        Charged per touched cacheline (``L_dram`` per line), matching the
        cost the Buffer Benefit Model's Inequality (1) attributes to a
        buffered write -- this is the "extra copy" half of the double-copy
        overhead the paper eliminates for eager-persistent writes.
        """
        self.dram.mem.write(block.dram_addr + offset_in_block, data)
        nlines = lines_spanned(len(data), offset_in_block % CACHELINE_SIZE)
        ctx.charge(nlines * self._line_store_ns, CAT_WRITE_ACCESS)
        self.env.stats.bytes_written_dram += len(data)
        block.bitmap.mark_written(offset_in_block, len(data))
        block.last_written_ns = now_ns
        self.shard(block.ino).dirty.setdefault(
            (block.ino, block.file_block), block
        )
        self.policy.on_write(block)

    def mark_clean(self, block):
        """Drop a block from its shard's dirty list (lines persisted)."""
        self.shard(block.ino).dirty.pop((block.ino, block.file_block), None)

    def read_from(self, ctx, block, offset_in_block, length):
        return self.dram.read(ctx, block.dram_addr + offset_in_block, length)
