"""PMFS proper: direct access between the user buffer and NVMM.

Every write is copied user-buffer -> NVMM with non-temporal stores and is
durable on return (there is no volatile data path at all); every read is
copied NVMM -> user buffer.  Metadata changes run through the undo
journal.  This is the behaviour the paper's Figure 1 profiles and
Figures 7-13 use as the baseline.
"""

from repro.engine.context import FreeContext
from repro.engine.stats import CAT_OTHERS
from repro.fs.base import FileStat, FileSystem, ITER_HOOKS, ROOT_INO, \
    S_IFDIR, S_IFREG
from repro.fs.errors import (
    InvalidArgument,
    IsADirectory,
    MediaError,
    NoSpace,
    NotADirectory,
    NotEmpty,
    NotFound,
)
from repro.fs.pmfs.blockmap import BlockMap
from repro.fs.pmfs.dirents import Directory
from repro.fs.pmfs.inodes import InodeTable, KIND_DIR, KIND_FILE
from repro.fs.pmfs.journal import Journal
from repro.fs.pmfs.layout import Superblock, block_addr
from repro.nvmm.allocator import BlockAllocator, OutOfSpaceError
from repro.nvmm.config import BLOCK_SIZE


class PMFS(FileSystem):
    """The direct-access baseline file system."""

    name = "pmfs"

    def __init__(self, env, device, config, journal_blocks=256, inode_count=None,
                 journal_checksums=True, _skip_format=False):
        self.env = env
        self.device = device
        self.config = config
        total_blocks = device.size // BLOCK_SIZE
        if _skip_format:
            self.sb = Superblock.unpack(device.mem.read(0, 4096))
        else:
            self.sb = Superblock.compute(total_blocks, journal_blocks, inode_count)
        self.journal = Journal(env, device, self.sb, config,
                               checksums=journal_checksums)
        self.itable = InodeTable(device, self.journal, self.sb)
        self.balloc = BlockAllocator(
            self.sb.total_blocks - self.sb.data_start, first_block=self.sb.data_start
        )
        self._maps = {}
        self._dirs = {}
        #: The one mapping registry: ino -> [live MmioMapping], never an
        #: empty list.  A MAP_ATOMIC mapping (the one that intercepts
        #: syscall I/O) is always alone in its list.
        self._mappings = {}
        if not _skip_format:
            self._mkfs()

    # -- formatting / mounting ---------------------------------------------

    def _mkfs(self):
        """Write the superblock and the root directory (data plane only --
        formatting happens before the measured run)."""
        self.device.mem.write_nocache(0, self.sb.pack())
        mkfs_ctx = FreeContext(self.env)
        tx = self.journal.begin(mkfs_ctx)
        root = self.itable.alloc(mkfs_ctx, tx, KIND_DIR, 0)
        assert root.ino == ROOT_INO
        self.journal.commit(mkfs_ctx, tx)
        self.device.mem.flush_all()

    @classmethod
    def mount(cls, env, device, config, **kwargs):
        """Mount an existing image: run journal recovery, rebuild DRAM state.

        This is the crash-recovery entry point: after ``device.crash()``,
        ``mount`` must produce a consistent file system.
        """
        degraded = None
        try:
            fs = cls(env, device, config, _skip_format=True, **kwargs)
        except MediaError as exc:
            # Even the journal header is unreadable.  Rebuild the in-DRAM
            # structures from the raw data plane (the bytes are still
            # there; only the guarded access path refuses them) so the
            # mount can come up read-only instead of not at all.
            model = device.fault_model
            device.fault_model = None
            try:
                fs = cls(env, device, config, _skip_format=True, **kwargs)
            finally:
                device.fault_model = model
            degraded = "journal region unreadable: %s" % exc
        ctx = FreeContext(env)
        if degraded is None:
            try:
                fs.journal.recover(ctx)
            except MediaError as exc:
                # The journal sits on bad media: the image cannot be
                # rolled back, so the mount comes up degraded and the VFS
                # serves it read-only (errors=remount-ro) instead of
                # crashing.
                degraded = "journal recovery failed: %s" % exc
        if degraded is not None:
            fs.degraded_reason = degraded
            env.stats.bump("mount_degraded")
        fs._rebuild_from_nvmm()
        if degraded is None:
            fs._mmio_recover(ctx)
        return fs

    def _mmio_recover(self, ctx):
        """Recover per-file mmio epoch logs (library-mode mappings that
        were live at the crash).  Runs after the journal recovery and
        the DRAM rebuild so blockmaps and sizes are already consistent;
        the logs' own blocks are unreferenced by any blockmap, so the
        rebuilt allocator already counts them free."""
        from repro.io import mmio

        mmio.recover(self, ctx)

    def _rebuild_from_nvmm(self):
        self.itable.load_from_nvmm()
        self._maps.clear()
        self._dirs.clear()
        for inode in self.itable.live_inodes():
            blockmap = self._map(inode.ino)
            blockmap.load_from_nvmm()
            for block in blockmap.all_physical_blocks():
                self.balloc.mark_allocated(block)
            if inode.is_dir:
                self._dir(inode.ino).load_from_nvmm()

    # -- internal handles ---------------------------------------------------

    def _inode(self, ino):
        inode = self.itable.get(ino)
        if inode is None:
            raise NotFound("inode %d" % ino)
        return inode

    def _map(self, ino):
        blockmap = self._maps.get(ino)
        if blockmap is None:
            blockmap = BlockMap(
                self.device, self.journal, self.itable, self._inode(ino), self.balloc
            )
            self._maps[ino] = blockmap
        return blockmap

    def _dir(self, ino):
        directory = self._dirs.get(ino)
        if directory is None:
            inode = self._inode(ino)
            if not inode.is_dir:
                raise NotADirectory("inode %d" % ino)
            directory = Directory(self.device, self.journal, self._map(ino), inode)
            self._dirs[ino] = directory
        return directory

    def _alloc_run(self, count):
        """``count`` contiguous data blocks; returns the first."""
        try:
            return self.balloc.alloc_run(count)
        except OutOfSpaceError:
            raise NoSpace("NVMM device full") from None

    # -- namespace ------------------------------------------------------

    def lookup(self, ctx, parent_ino, name):
        return self._dir(parent_ino).lookup(name)

    def _create(self, ctx, parent_ino, name, kind):
        directory = self._dir(parent_ino)
        tx = self.journal.begin(ctx)
        try:
            inode = self.itable.alloc(ctx, tx, kind, ctx.now)
            try:
                directory.add(ctx, tx, name, inode.ino)
            except Exception:
                # E.g. no block for a new dirent block: the inode goes
                # back to the table in the transaction that took it.
                self.itable.free(ctx, tx, inode)
                raise
            self.itable.write_core(ctx, tx, directory.inode)
        finally:
            # As in write_iter: no transaction is ever leaked open.
            self.journal.commit(ctx, tx)
        return inode.ino

    def create_file(self, ctx, parent_ino, name):
        return self._create(ctx, parent_ino, name, KIND_FILE)

    def mkdir(self, ctx, parent_ino, name):
        return self._create(ctx, parent_ino, name, KIND_DIR)

    def unlink(self, ctx, parent_ino, name, ino):
        inode = self._inode(ino)
        if inode.is_dir:
            raise IsADirectory(name)
        self._release(ctx, parent_ino, name, inode)

    def rmdir(self, ctx, parent_ino, name, ino):
        inode = self._inode(ino)
        if not inode.is_dir:
            raise NotADirectory(name)
        if len(self._dir(ino)) > 0:
            raise NotEmpty(name)
        self._release(ctx, parent_ino, name, inode)

    def _release(self, ctx, parent_ino, name, inode):
        """Shared unlink/rmdir tail: drop the dirent, the inode, the blocks."""
        self._invalidate_mappings(ctx, inode.ino)
        self.on_release(ctx, inode.ino)
        directory = self._dir(parent_ino)
        tx = self.journal.begin(ctx)
        directory.remove(ctx, tx, name)
        freed = self._free_inode(ctx, tx, inode)
        self.journal.commit(ctx, tx)
        self.balloc.free_many(freed)
        self._dirs.pop(inode.ino, None)

    def _free_inode(self, ctx, tx, inode):
        """Drop every block of ``inode`` and free the inode, inside
        ``tx``; returns the blocks to hand back after the commit."""
        blockmap = self._maps.pop(inode.ino, None)
        if blockmap is None:
            blockmap = BlockMap(
                self.device, self.journal, self.itable, inode, self.balloc
            )
            blockmap.load_from_nvmm()
        freed = blockmap.drop_all(ctx, tx)
        self.itable.free(ctx, tx, inode)
        return freed

    def on_release(self, ctx, ino):
        """Hook called before an inode is freed (HiNFS discards its
        buffered blocks here, completing any deferred commits first)."""

    def rename(self, ctx, old_parent, old_name, new_parent, new_name, ino,
               replaced_ino=None):
        """POSIX rename as ONE undo-journalled transaction.

        The old dirent removal, the new dirent insertion, and (when the
        destination existed) the replaced file's release are covered by
        the same journal generation, so every crash point either keeps
        the old namespace or shows the completed rename -- never neither
        name, never both pointing at a half-released inode.
        """
        old_dir = self._dir(old_parent)
        new_dir = self._dir(new_parent)
        replaced = None
        if replaced_ino is not None:
            replaced = self._inode(replaced_ino)
            if replaced.is_dir:
                raise IsADirectory(new_name)
            self._invalidate_mappings(ctx, replaced_ino)
            self.on_release(ctx, replaced_ino)
        tx = self.journal.begin(ctx)
        old_dir.remove(ctx, tx, old_name)
        freed = []
        if replaced is not None:
            new_dir.remove(ctx, tx, new_name)
            freed = self._free_inode(ctx, tx, replaced)
        new_dir.add(ctx, tx, new_name, ino)
        self.itable.write_core(ctx, tx, old_dir.inode)
        if new_dir is not old_dir:
            self.itable.write_core(ctx, tx, new_dir.inode)
        inode = self._inode(ino)
        inode.ctime = ctx.now
        self.itable.write_core(ctx, tx, inode)
        self.journal.commit(ctx, tx)
        self.balloc.free_many(freed)
        if replaced is not None:
            self._dirs.pop(replaced_ino, None)

    def readdir(self, ctx, ino):
        directory = self._dir(ino)
        # Scanning dirents reads the directory's data blocks.
        nblocks = max(1, directory.inode.size // BLOCK_SIZE)
        ctx.charge(self.config.load_cost_ns(nblocks * BLOCK_SIZE), CAT_OTHERS)
        return directory.entries()

    def getattr(self, ctx, ino):
        inode = self._inode(ino)
        kind = S_IFDIR if inode.is_dir else S_IFREG
        return FileStat(ino, kind, inode.size, inode.nlink, inode.mtime, inode.ctime)

    # -- data I/O -----------------------------------------------------------

    def read_iter(self, ctx, req):
        """Direct copy NVMM -> user buffer (single copy)."""
        ino, offset, count = req.ino, req.offset, req.total_bytes
        inode = self._inode(ino)
        if inode.is_dir:
            raise IsADirectory("inode %d" % ino)
        if offset >= inode.size or count <= 0:
            return b""
        count = min(count, inode.size - offset)
        ctx.charge(self.config.index_lookup_ns)
        blockmap = self._map(ino)
        out = bytearray()
        pos = offset
        remaining = count
        while remaining > 0:
            file_block, in_off = divmod(pos, BLOCK_SIZE)
            take = min(BLOCK_SIZE - in_off, remaining)
            nvmm_block = blockmap.get(file_block)
            if nvmm_block is None:
                out.extend(b"\0" * take)
                ctx.charge(self.config.load_cost_ns(take))
            else:
                out.extend(
                    self.device.read(ctx, block_addr(nvmm_block) + in_off, take)
                )
            pos += take
            remaining -= take
        return bytes(out)

    def write_iter(self, ctx, req):
        """Direct copy user buffer -> NVMM; durable on return.

        PMFS has no volatile data path, so the request's eager/lazy
        policy is moot: the gathered payload persists in one pass.
        """
        ino, offset = req.ino, req.offset
        data = req.coalesce()
        inode = self._inode(ino)
        if inode.is_dir:
            raise IsADirectory("inode %d" % ino)
        if not data:
            return 0
        ctx.charge(self.config.index_lookup_ns)
        blockmap = self._map(ino)
        tx = self.journal.begin(ctx)
        pos = offset
        view = memoryview(data)
        try:
            while view:
                file_block, in_off = divmod(pos, BLOCK_SIZE)
                take = min(BLOCK_SIZE - in_off, len(view))
                nvmm_block = blockmap.get(file_block)
                if nvmm_block is None:
                    fresh = self._ensure_mapped(ctx, tx, blockmap, pos,
                                                len(view))
                    nvmm_block = fresh[file_block]
                self.device.write_persistent(
                    ctx, block_addr(nvmm_block) + in_off, bytes(view[:take])
                )
                pos += take
                view = view[take:]
            inode.size = max(inode.size, offset + len(data))
            inode.mtime = ctx.now
            self.itable.write_core(ctx, tx, inode)
        finally:
            # On failure (e.g. ENOSPC mid-write) the partial progress is
            # committed: blocks mapped beyond i_size are invisible and
            # get reused, and no transaction is ever leaked open.
            self.journal.commit(ctx, tx)
        return len(data)

    def sync_iter(self, ctx, req):
        """PMFS data is always durable: fsync and fdatasync, eager or
        not, are the same ordering point."""
        self._inode(req.ino)
        self.device.fence(ctx)
        return 0

    def truncate(self, ctx, ino, new_size):
        inode = self._inode(ino)
        if inode.is_dir:
            raise IsADirectory("inode %d" % ino)
        if new_size < inode.size:
            # A live mapping's pending apply and staged state past the
            # new EOF reference blocks about to be freed (and reusable by
            # other files): settle both first.
            for region in self._live_mappings(ino):
                region.invalidate_past(ctx, new_size)
        tx = self.journal.begin(ctx)
        if new_size == 0:
            freed = self._map(ino).drop_all(ctx, tx)
            self.balloc.free_many(freed)
        elif new_size < inode.size:
            blockmap = self._map(ino)
            first_dead = -(-new_size // BLOCK_SIZE)
            freed = []
            for file_block, _ in list(blockmap.mapped_blocks()):
                if file_block >= first_dead:
                    freed.append(blockmap.clear(ctx, tx, file_block))
            self.balloc.free_many(freed)
            # Zero the partial tail block past new_size so a later
            # extension reads zeros, not resurfaced stale bytes.
            in_off = new_size % BLOCK_SIZE
            if in_off:
                tail = blockmap.get(new_size // BLOCK_SIZE)
                if tail is not None:
                    self.device.write_persistent(
                        ctx, block_addr(tail) + in_off,
                        b"\0" * (BLOCK_SIZE - in_off),
                    )
        inode.size = new_size
        inode.mtime = ctx.now
        self.itable.write_core(ctx, tx, inode)
        self.journal.commit(ctx, tx)

    # -- memory-mapped I/O --------------------------------------------------

    def _ensure_mapped(self, ctx, tx, blockmap, offset, length):
        """Called at a write's first hole, at file byte ``offset``, with
        the ``length`` bytes the request has left: maps that hole and
        every other one under them to zeroed NVMM blocks, so a request
        maps once (journaled as runs).  Returns the fresh
        ``{file_block: nvmm_block}`` of :meth:`BlockMap.map_holes`."""
        first = offset // BLOCK_SIZE
        return blockmap.map_holes(
            ctx, tx, first, -(-(offset + length) // BLOCK_SIZE) - first)

    def mmap(self, ctx, ino, policy=None, log_blocks=4, log_checksums=True):
        """Map a file for direct access (paper Section 4.2): a
        :class:`~repro.io.mmio.MmioMapping` whose loads/stores/msyncs
        run with zero syscall charges.  ``policy=None`` is a plain
        mapping; ``"undo"``/``"redo"``/``"auto"`` is ``MAP_ATOMIC``: an
        epoch log makes each msync'd epoch crash-atomic, and while the
        mapping is live conventional read/write/fsync requests on the
        inode route through it (:meth:`submit`), keeping descriptor I/O
        coherent with mapped stores.  An atomic mapping is exclusive:
        no other mapping of the inode, plain or atomic, may be live
        beside it (a plain one would bypass the epoch's staging)."""
        from repro.io.mmio import MmioMapping

        if self._inode(ino).is_dir:
            raise IsADirectory("inode %d" % ino)
        live = self._mappings.get(ino)
        if live and (policy is not None or live[0].log is not None):
            raise InvalidArgument(
                "inode %d is mapped, and a MAP_ATOMIC mapping is exclusive"
                % ino)
        mapping = MmioMapping(self, ino, policy, log_blocks, log_checksums)
        self.on_mmap(ctx, ino)
        mapping.setup(ctx)
        self._mappings.setdefault(ino, []).append(mapping)
        return mapping

    def submit(self, ctx, req):
        """Route requests on an inode with a live MAP_ATOMIC mapping
        through the mapping (POSIX coherence with library-mode stores);
        everything else goes straight to its ``*_iter`` hook."""
        live = self._mappings.get(req.ino)
        if live and live[0].log is not None:
            return live[0].handle_request(ctx, req)
        return getattr(self, ITER_HOOKS[req.op])(ctx, req)

    def on_mmap(self, ctx, ino):
        """Hook: HiNFS flushes the file's buffered DRAM blocks here
        (mapped stores bypass the buffer)."""

    def on_munmap(self, ino, mapping):
        """Called as a mapping closes: drops it from the registry."""
        live = self._mappings[ino]
        live.remove(mapping)
        if not live:
            del self._mappings[ino]

    def _live_mappings(self, ino):
        """Every live mapping of ``ino`` (plain and atomic)."""
        return self._mappings.get(ino, ())

    def _invalidate_mappings(self, ctx, ino):
        """Forcibly detach every mapping of ``ino`` (unlink/rmdir)."""
        for mapping in self._mappings.pop(ino, ()):
            mapping.invalidate(ctx)

    # -- integrity ---------------------------------------------------------

    def scrub(self, ctx):
        from repro.fs.scrub import PmfsScrubber

        return PmfsScrubber(self).run(ctx)

    # -- lifecycle ---------------------------------------------------------

    def unmount(self, ctx):
        self.device.flush_all(ctx)
