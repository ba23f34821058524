"""EXT4-DAX: direct data access with cache-oriented metadata.

The DAX patch lets ext4 bypass the OS page cache for *data*, so its data
path matches PMFS (single copy, direct to NVMM).  Its metadata path,
however, remains ext4's: dirtied metadata buffers are journaled through
jbd2 and committed on fsync or periodically.  That is the one behavioural
difference the paper calls out -- "EXT4-DAX still follows the
cache-oriented methods for [metadata], while PMFS follows direct access
for both data and metadata" -- and it is why EXT4-DAX trails PMFS on the
metadata-heavy Varmail workload (Figure 7).
"""

from repro.engine.clock import NS_PER_SEC
from repro.engine.stats import CAT_OTHERS
from repro.fs.extfs.jbd2 import JBD2CommitTask, JBD2Journal
from repro.fs.pmfs.pmfs import PMFS
from repro.nvmm.config import BLOCK_SIZE


class Ext4Dax(PMFS):
    """PMFS-style direct data access + jbd2-style journaled metadata."""

    name = "ext4-dax"

    #: Software cost of dirtying one metadata buffer in the (cached)
    #: metadata path rather than updating NVMM structures in place.
    METADATA_BUFFER_NS = 900

    def __init__(self, env, device, config, commit_interval_ns=5 * NS_PER_SEC,
                 **kwargs):
        super().__init__(env, device, config, **kwargs)
        self._journal_area = self.sb.journal_start * BLOCK_SIZE
        self._journal_cycle = 0
        self.jbd2 = JBD2Journal(
            env,
            write_block_fn=self._write_journal_block,
            commit_interval_ns=commit_interval_ns,
        )
        env.background.register(JBD2CommitTask(env, self.jbd2))
        #: Inodes whose size grew since their last sync: the metadata
        #: fdatasync(2) must still commit through jbd2.
        self._size_dirty = set()

    def _write_journal_block(self, ctx, data):
        # Journal blocks land in NVMM directly (DAX has no block device),
        # but each is a full 4 KiB write with no cacheline batching.
        offset = (self._journal_cycle % (self.sb.journal_blocks - 1)) * BLOCK_SIZE
        self._journal_cycle += 1
        self.device.write_persistent(ctx, self._journal_area + offset, data,
                                     CAT_OTHERS)

    def _metadata_touch(self, ctx, block_ids, ino=None):
        ctx.charge(len(block_ids) * self.METADATA_BUFFER_NS, CAT_OTHERS)
        self.jbd2.dirty_metadata(ctx, block_ids, ino=ino)

    @staticmethod
    def _itable_block(ino):
        return ("itable", ino // 16)

    @staticmethod
    def _dir_block(parent_ino):
        return ("dir", parent_ino)

    _BITMAP_BLOCK = ("bitmap", 0)

    # -- namespace ops carry the cached-metadata overhead ------------------

    def create_file(self, ctx, parent_ino, name):
        ino = super().create_file(ctx, parent_ino, name)
        self._metadata_touch(ctx, (self._itable_block(ino),
                                   self._dir_block(parent_ino),
                                   self._BITMAP_BLOCK))
        return ino

    def mkdir(self, ctx, parent_ino, name):
        ino = super().mkdir(ctx, parent_ino, name)
        self._metadata_touch(ctx, (self._itable_block(ino),
                                   self._dir_block(parent_ino),
                                   self._BITMAP_BLOCK))
        return ino

    def unlink(self, ctx, parent_ino, name, ino):
        self._metadata_touch(ctx, (self._itable_block(ino),
                                   self._dir_block(parent_ino),
                                   self._BITMAP_BLOCK))
        super().unlink(ctx, parent_ino, name, ino)

    def rmdir(self, ctx, parent_ino, name, ino):
        self._metadata_touch(ctx, (self._itable_block(ino),
                                   self._dir_block(parent_ino),
                                   self._BITMAP_BLOCK))
        super().rmdir(ctx, parent_ino, name, ino)

    def rename(self, ctx, old_parent, old_name, new_parent, new_name, ino,
               replaced_ino=None):
        touched = [self._itable_block(ino), self._dir_block(old_parent),
                   self._dir_block(new_parent)]
        if replaced_ino is not None:
            touched += [self._itable_block(replaced_ino), self._BITMAP_BLOCK]
        self._metadata_touch(ctx, touched)
        super().rename(ctx, old_parent, old_name, new_parent, new_name, ino,
                       replaced_ino=replaced_ino)

    def write_iter(self, ctx, req):
        size_before = self._inode(req.ino).size
        written = super().write_iter(ctx, req)
        if written:
            if self._inode(req.ino).size > size_before:
                self._size_dirty.add(req.ino)
            self._metadata_touch(ctx, (self._itable_block(req.ino),), ino=None)
        return written

    def truncate(self, ctx, ino, new_size):
        self._metadata_touch(ctx, (self._itable_block(ino),
                                   self._BITMAP_BLOCK))
        super().truncate(ctx, ino, new_size)
        self._size_dirty.add(ino)

    def sync_iter(self, ctx, req):
        """Data is already durable (direct access), so the PMFS fence is
        all a sync needs -- plus the jbd2 metadata commit, which an
        fdatasync skips unless the size grew since the last sync.  Eager
        syncs commit inline; ring-async syncs ride the jbd2 commit
        timeline."""
        super().sync_iter(ctx, req)
        ino = req.ino
        metadata = not req.datasync or ino in self._size_dirty
        done = self.jbd2.sync_commit(ctx, req, metadata)
        self._size_dirty.discard(ino)
        return done
