"""EXT2 and EXT4 over NVMMBD through the OS page cache.

The traditional stack of Figure 3(a): every file I/O takes two copies
(device <-> page cache through the generic block layer, page cache <->
user buffer) and every request pays the block-layer software cost.  EXT4
adds jbd2 ordered-mode journaling; EXT2 doesn't journal, which is why the
paper finds EXT2+NVMMBD faster than EXT4+NVMMBD (Figure 13).
"""

import itertools

from repro.blockdev.nvmmbd import NVMMBlockDevice
from repro.engine.clock import NS_PER_SEC
from repro.engine.stats import CAT_OTHERS
from repro.fs.base import FileStat, FileSystem, ROOT_INO, S_IFDIR, S_IFREG
from repro.fs.errors import (
    ExistsError,
    IsADirectory,
    MediaError,
    NoSpace,
    NotADirectory,
    NotEmpty,
    NotFound,
)
from repro.fs.extfs.jbd2 import JBD2CommitTask, JBD2Journal
from repro.nvmm.allocator import BlockAllocator, OutOfSpaceError
from repro.nvmm.config import BLOCK_SIZE
from repro.pagecache.cache import PageCache
from repro.pagecache.writeback import PdflushTask


class ExtInode:
    """In-memory inode of the block-based baselines."""

    __slots__ = ("ino", "kind", "size", "nlink", "mtime", "ctime", "blocks",
                 "entries")

    def __init__(self, ino, kind, now_ns=0):
        self.ino = ino
        self.kind = kind
        self.size = 0
        self.nlink = 2 if kind == S_IFDIR else 1
        self.mtime = now_ns
        self.ctime = now_ns
        self.blocks = {}  # file_block -> disk block
        self.entries = {} if kind == S_IFDIR else None  # name -> ino

    @property
    def is_dir(self):
        return self.kind == S_IFDIR


class Ext2(FileSystem):
    """Block-based, page-cached, journal-less."""

    name = "ext2"

    #: Dirty metadata blocks are flushed wholesale once this many
    #: accumulate (the kernel's metadata writeback is likewise batched).
    META_FLUSH_THRESHOLD = 64

    #: balance_dirty_pages: when more than this fraction of the cache is
    #: dirty, the *writer* is made to flush pages (the kernel throttles
    #: heavy writers the same way), down to DIRTY_FLOOR.
    DIRTY_CEILING = 0.40
    DIRTY_FLOOR = 0.30

    def __init__(self, env, config, size, cache_pages=8192):
        self.env = env
        self.config = config
        self.bdev = NVMMBlockDevice(env, config, size)
        # The cache/pdflush callback records media errors (errseq) instead
        # of raising: eviction and background writeback have no syscall to
        # fail.  Foreground paths (fsync, O_SYNC) call _flush_page and let
        # EIO propagate.
        self.cache = PageCache(env, config, cache_pages, self._flush_page_async)
        env.background.register(PdflushTask(env, self.cache))
        # Reserve a slice for superblock/inode tables/bitmaps.
        reserved = max(64, self.bdev.num_blocks // 64)
        self.balloc = BlockAllocator(self.bdev.num_blocks - reserved,
                                     first_block=reserved)
        self._inodes = {}
        self._next_ino = itertools.count(ROOT_INO)
        root = ExtInode(next(self._next_ino), S_IFDIR)
        self._inodes[root.ino] = root
        #: Dirtied metadata blocks (inode-table / bitmap / directory
        #: blocks) awaiting writeback, deduplicated by block id.
        self._dirty_meta = set()
        self._meta_slots = {}
        self._reserved = reserved
        #: Inodes whose *size* changed since their last sync: the one
        #: piece of metadata fdatasync(2) must still make durable.
        self._size_dirty = set()

    # -- helpers ------------------------------------------------------------

    def _inode(self, ino):
        inode = self._inodes.get(ino)
        if inode is None:
            raise NotFound("inode %d" % ino)
        return inode

    # -- metadata blocks -------------------------------------------------

    @staticmethod
    def _itable_block(ino):
        return ("itable", ino // 16)

    @staticmethod
    def _dir_block(parent_ino):
        return ("dir", parent_ino)

    _BITMAP_BLOCK = ("bitmap", 0)

    def _touch_metadata(self, ctx, block_ids, ino=None):
        """Dirty metadata buffers in the cache (and journal them, EXT4)."""
        ctx.charge(len(block_ids) * self.config.page_cache_op_ns, CAT_OTHERS)
        self._dirty_meta.update(block_ids)
        self._journal_metadata(ctx, block_ids, ino=ino)
        if len(self._dirty_meta) >= self.META_FLUSH_THRESHOLD:
            self._flush_metadata(ctx)

    def _meta_disk_block(self, block_id):
        """A stable reserved-region disk block for a metadata block id."""
        slot = self._meta_slots.get(block_id)
        if slot is None:
            slot = 1 + len(self._meta_slots) % (self._reserved - 1)
            self._meta_slots[block_id] = slot
        return slot

    def _flush_metadata(self, ctx, block_ids=None):
        """Write dirty metadata blocks through the block layer."""
        if block_ids is None:
            doomed = sorted(self._dirty_meta, key=str)
        else:
            doomed = [b for b in block_ids if b in self._dirty_meta]
        for block_id in doomed:
            self._dirty_meta.discard(block_id)
            self.bdev.write_block(ctx, self._meta_disk_block(block_id),
                                  b"\0" * BLOCK_SIZE)
            self.env.stats.bump("meta_block_writes")

    def _disk_block(self, inode, file_block, allocate):
        disk = inode.blocks.get(file_block)
        if disk is None and allocate:
            try:
                disk = self.balloc.alloc()
            except OutOfSpaceError:
                raise NoSpace("device full") from None
            inode.blocks[file_block] = disk
        return disk

    def _flush_page(self, ctx, page):
        """Page cache -> device: the second copy of the write path."""
        inode = self._inodes.get(page.ino)
        if inode is None:
            return  # file went away; drop silently
        disk = self._disk_block(inode, page.file_block, allocate=True)
        self.bdev.write_block(ctx, disk, bytes(page.data))

    def _flush_page_async(self, ctx, page):
        """Writeback with nobody to raise at: record EIO against the
        inode's errseq; the next fsync/close of the file reports it."""
        try:
            self._flush_page(ctx, page)
        except MediaError:
            self.note_wb_error(page.ino)
            self.env.stats.bump("%s_wb_media_errors" % self.name)

    # -- namespace ------------------------------------------------------

    def lookup(self, ctx, parent_ino, name):
        parent = self._inode(parent_ino)
        if not parent.is_dir:
            raise NotADirectory("inode %d" % parent_ino)
        ctx.charge(self.config.page_cache_op_ns, CAT_OTHERS)
        return parent.entries.get(name)

    def _new_inode(self, ctx, parent_ino, name, kind):
        parent = self._inode(parent_ino)
        if name in parent.entries:
            raise ExistsError(name)
        inode = ExtInode(next(self._next_ino), kind, ctx.now)
        self._touch_metadata(ctx, (self._itable_block(inode.ino),
                                   self._dir_block(parent_ino),
                                   self._BITMAP_BLOCK))
        self._inodes[inode.ino] = inode
        parent.entries[name] = inode.ino
        return inode.ino

    def create_file(self, ctx, parent_ino, name):
        return self._new_inode(ctx, parent_ino, name, S_IFREG)

    def mkdir(self, ctx, parent_ino, name):
        return self._new_inode(ctx, parent_ino, name, S_IFDIR)

    def unlink(self, ctx, parent_ino, name, ino):
        parent = self._inode(parent_ino)
        inode = self._inode(ino)
        if inode.is_dir:
            raise IsADirectory(name)
        self._touch_metadata(ctx, (self._itable_block(ino),
                                   self._dir_block(parent_ino),
                                   self._BITMAP_BLOCK))
        del parent.entries[name]
        self.cache.drop_file(ino)
        self.balloc.free_many(inode.blocks.values())
        del self._inodes[ino]

    def rmdir(self, ctx, parent_ino, name, ino):
        parent = self._inode(parent_ino)
        inode = self._inode(ino)
        if not inode.is_dir:
            raise NotADirectory(name)
        if inode.entries:
            raise NotEmpty(name)
        self._touch_metadata(ctx, (self._itable_block(ino),
                                   self._dir_block(parent_ino),
                                   self._BITMAP_BLOCK))
        del parent.entries[name]
        del self._inodes[ino]

    def rename(self, ctx, old_parent, old_name, new_parent, new_name, ino,
               replaced_ino=None):
        old_dir = self._inode(old_parent)
        new_dir = self._inode(new_parent)
        inode = self._inode(ino)
        touched = [self._dir_block(old_parent), self._dir_block(new_parent),
                   self._itable_block(ino)]
        if replaced_ino is not None:
            replaced = self._inode(replaced_ino)
            if replaced.is_dir:
                raise IsADirectory(new_name)
            touched += [self._itable_block(replaced_ino), self._BITMAP_BLOCK]
            self.cache.drop_file(replaced_ino)
            self.balloc.free_many(replaced.blocks.values())
            del self._inodes[replaced_ino]
        self._touch_metadata(ctx, touched, ino=ino)
        del old_dir.entries[old_name]
        new_dir.entries[new_name] = ino
        inode.ctime = ctx.now

    def readdir(self, ctx, ino):
        inode = self._inode(ino)
        if not inode.is_dir:
            raise NotADirectory("inode %d" % ino)
        ctx.charge(self.config.page_cache_op_ns * max(1, len(inode.entries) // 16),
                   CAT_OTHERS)
        return list(inode.entries.items())

    def getattr(self, ctx, ino):
        inode = self._inode(ino)
        return FileStat(ino, inode.kind, inode.size, inode.nlink, inode.mtime,
                        inode.ctime)

    # -- data path ----------------------------------------------------------

    def _page_for_read(self, ctx, inode, file_block):
        """Find or fault in a page (device -> cache: first read copy)."""
        page = self.cache.lookup(ctx, inode.ino, file_block)
        if page is not None:
            return page
        page = self.cache.insert(ctx, inode.ino, file_block)
        disk = inode.blocks.get(file_block)
        if disk is not None:
            try:
                self.cache.fill_from_device(page,
                                            self.bdev.read_block(ctx, disk))
            except MediaError:
                # Never cache a page whose fill failed: a zeroed page
                # would satisfy the next read silently.
                self.cache.drop(page)
                raise
        return page

    def read_iter(self, ctx, req):
        ino, offset, count = req.ino, req.offset, req.total_bytes
        inode = self._inode(ino)
        if inode.is_dir:
            raise IsADirectory("inode %d" % ino)
        if offset >= inode.size or count <= 0:
            return b""
        count = min(count, inode.size - offset)
        out = bytearray()
        pos, remaining = offset, count
        while remaining > 0:
            file_block, in_off = divmod(pos, BLOCK_SIZE)
            take = min(BLOCK_SIZE - in_off, remaining)
            page = self._page_for_read(ctx, inode, file_block)
            out.extend(self.cache.copy_out(ctx, page, in_off, take))
            pos += take
            remaining -= take
        return bytes(out)

    def write_iter(self, ctx, req):
        ino, offset, eager = req.ino, req.offset, req.eager
        data = req.coalesce()
        inode = self._inode(ino)
        if inode.is_dir:
            raise IsADirectory("inode %d" % ino)
        if not data:
            return 0
        pos = offset
        view = memoryview(data)
        touched = []
        while view:
            file_block, in_off = divmod(pos, BLOCK_SIZE)
            take = min(BLOCK_SIZE - in_off, len(view))
            page = self.cache.lookup(ctx, ino, file_block)
            if page is None:
                page = self.cache.insert(ctx, ino, file_block)
                disk = inode.blocks.get(file_block)
                partial = take < BLOCK_SIZE
                if disk is not None and partial:
                    # Fetch-before-write at page granularity.
                    try:
                        self.cache.fill_from_device(
                            page, self.bdev.read_block(ctx, disk))
                    except MediaError:
                        self.cache.drop(page)
                        raise
            self.cache.copy_in(ctx, page, in_off, bytes(view[:take]), ctx.now)
            touched.append(page)
            pos += take
            view = view[take:]
        if offset + len(data) > inode.size:
            inode.size = offset + len(data)
            self._size_dirty.add(ino)
        inode.mtime = ctx.now
        self._touch_metadata(ctx, (self._itable_block(ino),), ino=ino)
        self._balance_dirty(ctx)
        if eager:
            # O_SYNC / sync mount: push the pages straight back out
            # (user -> cache -> device: the full double copy).
            for page in touched:
                if page.dirty:
                    self._flush_page(ctx, page)
                    self.cache.mark_clean(page)
            # O_DSYNC overwrites leave the (clean-size) metadata commit
            # to the periodic timeline; extending writes still commit.
            if not req.datasync or ino in self._size_dirty:
                self._journal_commit(ctx)
        return len(data)

    def _balance_dirty(self, ctx):
        """Foreground writeback throttle (balance_dirty_pages)."""
        ceiling = int(self.DIRTY_CEILING * self.cache.capacity)
        if self.cache.dirty_total <= ceiling:
            return
        floor = int(self.DIRTY_FLOOR * self.cache.capacity)
        for page in list(self.cache.lru):
            if self.cache.dirty_total <= floor:
                break
            if page.dirty:
                self._flush_page(ctx, page)
                self.cache.mark_clean(page)
                self.env.stats.bump("balance_dirty_flushes")

    def sync_iter(self, ctx, req):
        """Flush the file's data pages, then its metadata.

        fsync also writes the inode's metadata block (ext2 semantics)
        and commits the journal.  fdatasync does so only when the size
        changed since the last sync -- a pure overwrite skips the
        metadata traffic entirely, which is the whole point of the call.
        Eager syncs commit in the foreground; how a ring-async one
        completes is the journal's business (:meth:`_sync_commit`)."""
        ino = req.ino
        self._inode(ino)
        self._flush_file_pages(ctx, ino)
        metadata = not req.datasync or ino in self._size_dirty
        if metadata:
            self._flush_metadata(ctx, [self._itable_block(ino)])
        done = self._sync_commit(ctx, req, metadata)
        self._size_dirty.discard(ino)
        self.env.stats.bump("%s_%s" % (
            self.name, "fdatasyncs" if req.datasync else "fsyncs"))
        return done

    def _flush_file_pages(self, ctx, ino):
        for page in self.cache.dirty_pages_of(ino):
            self._flush_page(ctx, page)
            self.cache.mark_clean(page)

    def truncate(self, ctx, ino, new_size):
        inode = self._inode(ino)
        if inode.is_dir:
            raise IsADirectory("inode %d" % ino)
        self._touch_metadata(ctx, (self._itable_block(ino),
                                   self._BITMAP_BLOCK), ino=ino)
        if new_size < inode.size:
            first_dead = -(-new_size // BLOCK_SIZE)
            doomed = [fb for fb in inode.blocks if fb >= first_dead]
            for fb in doomed:
                self.balloc.free(inode.blocks.pop(fb))
            # truncate_inode_pages: every cached page past the new EOF
            # goes, clean ones included -- a clean page left behind would
            # resurrect pre-truncate bytes when a later extending write
            # finds it in the cache.
            for page in self.cache.pages_of(ino):
                if page.file_block >= first_dead:
                    self.cache.drop(page)
            # Zero the partial tail past new_size (in the cache, dirtied
            # for writeback) so a later extension reads zeros.
            in_off = new_size % BLOCK_SIZE
            tail_fb = new_size // BLOCK_SIZE
            if in_off and (tail_fb in inode.blocks
                           or self.cache.lookup(ctx, ino, tail_fb) is not None):
                page = self._page_for_read(ctx, inode, tail_fb)
                self.cache.copy_in(ctx, page, in_off,
                                   b"\0" * (BLOCK_SIZE - in_off), ctx.now)
        inode.size = new_size

    # -- journaling hooks (EXT2: none) --------------------------------------

    def _journal_metadata(self, ctx, block_ids, ino=None):
        """EXT2 does not journal."""

    def _journal_commit(self, ctx):
        """EXT2 does not journal."""

    def _sync_commit(self, ctx, req, metadata):
        """EXT2 does not journal: every sync is complete on return."""
        return 0

    # -- integrity ---------------------------------------------------------

    def scrub(self, ctx):
        from repro.fs.scrub import ExtScrubber

        return ExtScrubber(self).run(ctx)

    # -- lifecycle ---------------------------------------------------------

    def unmount(self, ctx):
        for page in self.cache.dirty_pages_lru_order():
            self._flush_page(ctx, page)
            self.cache.mark_clean(page)
        self._flush_metadata(ctx)
        self._journal_commit(ctx)

    def drop_caches(self):
        self.cache.clear()


class Ext4(Ext2):
    """EXT2 plus jbd2 ordered-mode journaling."""

    name = "ext4"

    def __init__(self, env, config, size, cache_pages=8192,
                 commit_interval_ns=5 * NS_PER_SEC):
        super().__init__(env, config, size, cache_pages)
        self.jbd2 = JBD2Journal(
            env,
            write_block_fn=self._write_journal_block,
            commit_interval_ns=commit_interval_ns,
        )
        self.jbd2.ordered_flush_fn = self._ordered_flush
        env.background.register(JBD2CommitTask(env, self.jbd2))
        # Reserve a journal area on the device.
        self._journal_cursor = itertools.cycle(range(8, 40))

    def _write_journal_block(self, ctx, data):
        self.bdev.write_block(ctx, next(self._journal_cursor), data)

    def _ordered_flush(self, ctx, ino):
        """Ordered mode: data pages reach the device before the commit."""
        if ino not in self._inodes:
            return
        for page in self.cache.dirty_pages_of(ino):
            self._flush_page(ctx, page)
            self.cache.mark_clean(page)

    def _journal_metadata(self, ctx, block_ids, ino=None):
        self.jbd2.dirty_metadata(ctx, block_ids, ino=ino)

    def _journal_commit(self, ctx):
        self.jbd2.commit(ctx)

    def _sync_commit(self, ctx, req, metadata):
        return self.jbd2.sync_commit(ctx, req, metadata)
