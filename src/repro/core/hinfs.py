"""HiNFS: hide NVMM write latency, avoid double copies (paper Section 3).

HiNFS extends PMFS (it "shares the file system data structures of PMFS
but adds a new DRAM buffer layer and modifies the file I/O execution
paths", Section 4):

- **Lazy-persistent writes** go to the DRAM write buffer; background
  writeback threads persist them later.  Their metadata transaction
  stays open until the buffered data reaches NVMM (ordered mode with a
  deferred commit entry).
- **Eager-persistent writes** (O_SYNC / sync mount, or blocks the Buffer
  Benefit Model marked Eager-Persistent) go directly to NVMM with a
  single copy.
- **Reads** copy directly from DRAM and/or NVMM into the user buffer;
  the Cacheline Bitmap decides, run by run, where the newest bytes live.

Ablation variants used by the paper's evaluation are ``HiNFSConfig``
switches, named in the stack table (``repro.fs.STACKS``):

- ``hinfs-nclfw`` -- ``enable_clfw=False``: block-granular
  fetch/writeback (Figure 9).
- ``hinfs-wb`` -- ``enable_eager_checker=False``: every write is
  buffered (Figures 12/13's HiNFS-WB).
"""

from collections import deque

from repro.core.benefit import BufferBenefitModel
from repro.core.bitmap import FULL_MASK, iter_runs, iter_valid_runs, popcount
from repro.core.buffer import WriteBuffer
from repro.core.config import HiNFSConfig
from repro.core.writeback import WritebackTask
from repro.engine.errors import DeadlockError, ThreadDiagnostic
from repro.engine.locks import VCompletion
from repro.engine.stats import CAT_READ_ACCESS, CAT_WRITE_ACCESS
from repro.fs.errors import IsADirectory, MediaError
from repro.fs.pmfs.layout import block_addr
from repro.fs.pmfs.pmfs import PMFS
from repro.nvmm.config import BLOCK_SIZE, CACHELINE_SIZE


class PendingTx:
    """A journal transaction whose commit waits on buffered data blocks.

    Commits of one file's transactions must land in journal order: an
    undo rollback of an older-but-uncommitted transaction would otherwise
    clobber the effects of a newer committed one on the same inode
    bytes.  Each file's pending transactions therefore wait in one FIFO
    (``HiNFS._pending``), and only its head commits: once its blocks are
    durable (or discarded) and its request is no longer ``writing`` it --
    a demand reclaim mid-request may flush every block attached so far.
    """

    __slots__ = ("tx", "ino", "blocks", "writing")

    def __init__(self, tx, ino, writing=False):
        self.tx = tx
        self.ino = ino
        self.writing = writing
        tx.owner = self
        # Insertion-ordered dict-as-set, like BufferBlock.pending_txs:
        # make_room flushes these in the order they were written.
        self.blocks = {}

    def attach(self, blocks):
        for block in blocks:
            self.blocks[block] = None
            block.pending_txs[self] = None


class HiNFS(PMFS):
    """The high performance file system for non-volatile main memory."""

    name = "hinfs"

    def __init__(self, env, device, config, hconfig=None, journal_blocks=512,
                 **kwargs):
        super().__init__(env, device, config, journal_blocks=journal_blocks,
                         **kwargs)
        self.hconfig = hconfig or HiNFSConfig()
        self.buffer = WriteBuffer(env, config, self.hconfig)
        self.benefit = BufferBenefitModel(env, config, self.hconfig)
        self.writeback = WritebackTask(env, self)
        env.background.register(self.writeback)
        self.journal.make_room = self.make_room
        # ino -> deque of that file's open deferred commits, oldest first;
        # a file has an entry only while its deque is non-empty.
        self._pending = {}

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------

    def write_iter(self, ctx, req):
        inode = self._inode(req.ino)
        if inode.is_dir:
            raise IsADirectory("inode %d" % req.ino)
        # Contiguous iovecs coalesce here: the request is ONE buffered
        # operation stream and ONE eager/lazy decision below, however
        # many fragments the syscall carried.
        data = req.coalesce()
        if not data:
            return 0
        ctx.charge(self.config.index_lookup_ns)
        if req.eager:
            # Case (1): synchronous write -- must be durable on return.
            return self._write_sync(ctx, inode, req.offset, data)
        return self._write_async(ctx, inode, req.offset, data, req)

    def _write_async(self, ctx, inode, offset, data, req):
        """Asynchronous write: buffer unless the block is Eager-Persistent."""
        ino = inode.ino
        tx = self.journal.begin(ctx)
        try:
            return self._write_async_body(ctx, inode, offset, tx,
                                          memoryview(data), req)
        finally:
            # Success or failure (e.g. ENOSPC mid-write), the transaction
            # must end up committed or queued -- never leaked open.
            self._finish_async_tx(ctx, ino, tx)

    def _write_async_body(self, ctx, inode, offset, tx, view, req):
        ino = inode.ino
        blockmap = self._map(ino)
        mapped = blockmap.mirror.get
        buffer = self.buffer
        record_write = self.benefit.record_write
        counters = self.env.stats.counters
        clfw = self.hconfig.enable_clfw
        # ONE Buffer Benefit Model evaluation per request: the first
        # touched block decides eager vs. lazy for the whole request
        # (Inequality (1) is a per-write-pattern judgement, and a
        # coalesced gather write is one pattern, not N).
        eager = ino in self._mappings or self.benefit.is_eager(
            ino, offset // BLOCK_SIZE, ctx.now, inode.last_sync)
        counters["hinfs_benefit_decisions"] += 1
        pending = None
        fresh = ()  # file blocks this request mapped (at its first hole)
        pos, end = offset, offset + len(view)
        while pos < end:
            file_block, in_off = divmod(pos, BLOCK_SIZE)
            take = min(BLOCK_SIZE - in_off, end - pos)
            reached = ctx.now  # the block's ghost stamp
            nvmm_block = mapped(file_block)
            if nvmm_block is None:
                fresh = self._ensure_mapped(ctx, tx, blockmap, pos, end - pos)
                nvmm_block = fresh[file_block]
            index = buffer.file_index(ino)
            buffered = None if index is None else index.get(file_block)
            if buffered is None and not eager and (
                    file_block in fresh or clfw and take == BLOCK_SIZE):
                # A run of new blocks none of which needs a fetch (fresh
                # ones, and whole ones under CLFW): admitted, stamped
                # and stored in one pass, up to the next block that is
                # buffered, unmapped or needs a fetch, or as far as the
                # buffer's free blocks reach.
                room = self._buffer_room(ctx)
                index = buffer.file_index(ino)
                nvmm_blocks = [nvmm_block]
                run_end = pos + take
                nxt = file_block + 1
                while run_end < end and nxt - file_block < room:
                    nvmm_block = mapped(nxt)
                    whole = end - run_end >= BLOCK_SIZE
                    if nvmm_block is None or index and nxt in index or (
                            nxt not in fresh and not (clfw and whole)):
                        break
                    nvmm_blocks.append(nvmm_block)
                    run_end = run_end + BLOCK_SIZE if whole else end
                    nxt += 1
                self.benefit.record_run(ino, file_block, in_off,
                                        run_end - pos, (reached,), ctx.now)
                run = buffer.admit_run(ctx, ino, file_block, nvmm_blocks,
                                       in_off, view[pos - offset:
                                                    run_end - offset],
                                       req.req_id)
                if pending is None:
                    pending = self._defer(tx, ino, writing=True)
                pending.attach(run)
                counters["hinfs_buffer_misses"] += len(run)
                counters["hinfs_lazy_writes"] += len(run)
                pos = run_end
                continue
            record_write(ino, file_block, in_off, take, reached)
            chunk = view[pos - offset:pos - offset + take]
            if eager and buffered is None:
                # Direct single-copy write to NVMM; safe because the
                # block's newest data is already persistent (Sec 3.3.2).
                self.device.write_persistent(
                    ctx, block_addr(nvmm_block) + in_off, chunk)
                counters["hinfs_eager_writes"] += 1
            else:
                if buffered is None:
                    # A mapped block only partly overwritten (or any,
                    # under NCLFW): admitted alone, before its fetch.
                    self._buffer_room(ctx)
                    buffered = buffer.insert(ino, file_block, nvmm_block)
                    counters["hinfs_buffer_misses"] += 1
                else:
                    counters["hinfs_buffer_hits"] += 1
                if not (clfw and take == BLOCK_SIZE):
                    # A whole-block store has no edge lines to fetch.
                    self._fetch_before_write(ctx, buffered, in_off, take)
                buffer.write_into(ctx, buffered, in_off, chunk, ctx.now)
                # Tag the block with its originating request so fault
                # injection can target this request's writeback.
                buffered.last_req_id = req.req_id
                if pending is None:
                    pending = self._defer(tx, ino, writing=True)
                pending.attach((buffered,))
                counters["hinfs_lazy_writes"] += 1
            pos += take
        written = end - offset
        inode.size = max(inode.size, end)
        inode.mtime = ctx.now
        self.itable.write_core(ctx, tx, inode)
        return written

    def _defer(self, tx, ino, writing=False):
        """Queue ``tx``'s commit behind this file's open deferred ones."""
        pending = PendingTx(tx, ino, writing)
        self._pending.setdefault(ino, deque()).append(pending)
        return pending

    def _finish_async_tx(self, ctx, ino, tx):
        """Commit now, or leave the commit queued behind this file's
        still-open transactions (see PendingTx)."""
        pending = tx.owner
        if pending is not None:
            pending.writing = False
            self._drain(ctx, ino)
        elif ino in self._pending:
            self._defer(tx, ino)
        else:
            self.journal.commit(ctx, tx)
        if self.buffer.below_low_watermark \
                or self.journal.used_slots > self.journal.relief_limit:
            self.writeback.signal_pressure(ctx.now)

    def _drain(self, ctx, ino):
        """Commit a file's deferred transactions from the head of its
        queue while the head waits on nothing; drop the emptied queue."""
        queue = self._pending.get(ino)
        if queue is None:
            return
        while queue and not queue[0].blocks and not queue[0].writing:
            self.journal.commit(ctx, queue[0].tx)
            queue.popleft()
        if not queue:
            del self._pending[ino]

    def _barrier_file(self, ctx, ino):
        """Close every open deferred transaction of a file, in order, by
        flushing the blocks they wait on.

        Required before any operation that commits a new transaction on
        the same file synchronously (O_SYNC writes, truncate): committing
        out of order would let a crash roll an older transaction back
        over the newer committed state.
        """
        if self.buffer.file_index(ino) is None:
            return  # nothing buffered: the common O_SYNC case
        self.flush_blocks(ctx, [b for b in self.buffer.file_blocks(ino)
                                if b.pending_txs])

    def _write_sync(self, ctx, inode, offset, data):
        """Case (1) eager write: durable (data + metadata) on return."""
        self._barrier_file(ctx, inode.ino)
        tx = self.journal.begin(ctx)
        try:
            return self._write_sync_body(ctx, inode, offset, tx,
                                         memoryview(data))
        finally:
            if tx.open:
                self.journal.commit(ctx, tx)

    def _write_sync_body(self, ctx, inode, offset, tx, view):
        """An eager request's blocks in one pass: a buffered block is
        written into its DRAM copy and flushed; each run of other blocks
        goes to NVMM in one device call and has its ghost stamps
        recorded in one -- a hole maps it and every later one of the
        request first (the blocks before it are already durable)."""
        ino = inode.ino
        blockmap = self._map(ino)
        mapped = blockmap.mirror.get
        # Empty -- the usual case once the barrier has run -- when
        # nothing of the file is buffered.
        buffered_index = self.buffer.file_index(ino) or {}
        end = offset + len(view)
        pos = offset
        synced = 0  # blocks that reached NVMM
        try:
            while pos < end:
                file_block, in_off = divmod(pos, BLOCK_SIZE)
                reached = ctx.now  # the block's ghost stamp
                buffered = buffered_index.get(file_block)
                if buffered is not None:
                    # Paper 3.3.2: write into the DRAM copy, then
                    # explicitly evict it before returning to the user.
                    take = min(BLOCK_SIZE - in_off, end - pos)
                    self.benefit.record_write(ino, file_block, in_off,
                                              take, reached)
                    self._fetch_before_write(ctx, buffered, in_off, take)
                    self.buffer.write_into(
                        ctx, buffered, in_off,
                        view[pos - offset:pos - offset + take], ctx.now)
                    self.flush_blocks(ctx, [buffered])
                    synced += 1
                    pos += take
                    continue
                stamps = []  # each stored block's start clock
                stored = False
                try:
                    nvmm_block = mapped(file_block)
                    if nvmm_block is None:
                        nvmm_block = self._ensure_mapped(
                            ctx, tx, blockmap, pos, end - pos)[file_block]
                    # The run: this block and every later mapped,
                    # unbuffered one up to the request's end.
                    run = [nvmm_block]
                    run_end = min(pos - in_off + BLOCK_SIZE, end)
                    while run_end < end:
                        nvmm_block = mapped(file_block + len(run))
                        if nvmm_block is None or \
                                file_block + len(run) in buffered_index:
                            break
                        run.append(nvmm_block)
                        run_end = min(run_end + BLOCK_SIZE, end)
                    self.device.persist_run(
                        ctx, run, in_off, view[pos - offset:run_end - offset],
                        stamps)
                    stored = True
                finally:
                    # Every block the request reached is stamped: the
                    # first with the clock before its hole was mapped,
                    # and one whose mapping or store failed too.
                    stamps[:1] = (reached,)
                    self.benefit.record_run(ino, file_block, in_off,
                                            end - pos, stamps)
                    synced += len(stamps) if stored else len(stamps) - 1
                pos = run_end
        finally:
            # One bump per request, of the blocks that reached NVMM.
            if synced:
                self.env.stats.counters["hinfs_sync_writes"] += synced
        inode.size = max(inode.size, end)
        inode.mtime = ctx.now
        self.itable.write_core(ctx, tx, inode)
        return end - offset

    # -- write-path helpers -------------------------------------------------

    def _buffer_room(self, ctx):
        """The buffer's free blocks, after stalling on the flusher if it
        has none."""
        free = self.buffer.free_blocks
        if not free:
            self.writeback.demand_reclaim(ctx)
            free = self.buffer.free_blocks
            if not free:
                raise self._buffer_exhausted(ctx)
        return free

    def _buffer_exhausted(self, ctx):
        """Demand reclaim freed nothing: every buffered block is stuck
        (e.g. its writeback target sits on bad media).  The diagnosable
        deadlock to raise instead of overfilling the buffer."""
        notes = []
        model = getattr(self.device, "fault_model", None)
        if model is not None and model.bad_lines:
            notes.append(
                "%d NVMM cacheline(s) are marked bad; writeback of "
                "blocks mapped onto them cannot complete"
                % len(model.bad_lines)
            )
        return DeadlockError(
            "DRAM write buffer exhausted: demand reclaim freed no "
            "blocks (%d buffered, 0 free)" % self.buffer.used_blocks,
            diagnostics=[ThreadDiagnostic.of(ctx),
                         ThreadDiagnostic.of(self.writeback.ctx)],
            notes=notes,
        )

    def _fetch_before_write(self, ctx, block, in_off, length):
        """CLFW: fetch only the partially-overwritten edge cachelines;
        HiNFS-NCLFW fetches the whole missing block instead."""
        if self.hconfig.enable_clfw:
            need = block.bitmap.fetch_needed(in_off, length)
        else:
            need = FULL_MASK & ~block.bitmap.valid
        if not need:
            return
        src_base = block_addr(block.nvmm_block)
        for start, nlines in iter_runs(need):
            data = self.device.read(
                ctx, src_base + start * CACHELINE_SIZE, nlines * CACHELINE_SIZE
            )
            self.buffer.dram.write(ctx, block.dram_addr + start * CACHELINE_SIZE,
                                   data)
        block.bitmap.mark_fetched(need)
        self.env.stats.bump("hinfs_fetched_lines", popcount(need))

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------

    def read_iter(self, ctx, req):
        """Direct read from DRAM and/or NVMM guided by the bitmaps: each
        run of blocks with no valid DRAM line -- holes among them -- is
        one device pass, a fully valid block one DRAM copy, and a partly
        valid one a merged copy."""
        ino, offset, count = req.ino, req.offset, req.total_bytes
        inode = self._inode(ino)
        if inode.is_dir:
            raise IsADirectory("inode %d" % ino)
        if offset >= inode.size or count <= 0:
            return b""
        count = min(count, inode.size - offset)
        ctx.charge(self.config.index_lookup_ns)
        end = offset + count
        first = offset // BLOCK_SIZE
        blocks = list(map(self._map(ino).mirror.get,
                          range(first, (end - 1) // BLOCK_SIZE + 1)))
        index = self.buffer.file_index(ino)
        out = bytearray()
        pos = offset
        if index is not None:
            dram_read = self.buffer.dram.read
            for file_block in range(first, first + len(blocks)):
                buffered = index.get(file_block)
                if buffered is None or not buffered.bitmap.valid:
                    continue
                base = file_block * BLOCK_SIZE
                if base > pos:
                    # The run of NVMM blocks and holes before this one.
                    self.device.read_run(
                        ctx, blocks[pos // BLOCK_SIZE - first:
                                    file_block - first],
                        pos % BLOCK_SIZE, base - pos, out)
                    pos = base
                take = min(base + BLOCK_SIZE, end) - pos
                if buffered.bitmap.valid == FULL_MASK:
                    # One run, all in DRAM: what the merged walk would copy.
                    out += dram_read(ctx, buffered.dram_addr + pos - base,
                                     take)
                else:
                    out += self._read_merged(ctx, buffered, pos - base, take)
                pos += take
        if pos < end:
            self.device.read_run(ctx, blocks[pos // BLOCK_SIZE - first:],
                                 pos % BLOCK_SIZE, end - pos, out)
        return bytes(out)

    def _read_merged(self, ctx, block, in_off, take):
        """One memcpy per run of equal Cacheline-Bitmap bits (Sec 3.3.1)."""
        out = bytearray()
        lo, hi = in_off, in_off + take
        for start, nlines, in_dram in iter_valid_runs(block.bitmap.valid):
            run_lo = start * CACHELINE_SIZE
            run_hi = run_lo + nlines * CACHELINE_SIZE
            copy_lo = max(lo, run_lo)
            copy_hi = min(hi, run_hi)
            if copy_lo >= copy_hi:
                continue
            length = copy_hi - copy_lo
            if in_dram:
                out.extend(self.buffer.read_from(ctx, block, copy_lo, length))
            else:
                out.extend(
                    self.device.read(
                        ctx, block_addr(block.nvmm_block) + copy_lo, length
                    )
                )
        return bytes(out)

    # ------------------------------------------------------------------
    # synchronization
    # ------------------------------------------------------------------

    def sync_iter(self, ctx, req):
        """Flush the file's buffered blocks and fence.

        fsync also re-evaluates the Buffer Benefit Model and records
        ``last_sync``; fdatasync skips both -- they drive the
        eager-persistence heuristics, i.e. metadata a data-only sync need
        not touch.  Foreground (eager) syncs keep the paper's serial
        Section 3.3.2 flush; ring-async syncs overlap the dirty runs
        across the NVMM writer slots and return a pending completion that
        resolves at the slowest run's device-side end."""
        ino = req.ino
        inode = self._inode(ino)
        if not req.datasync:
            # Evaluate Inequality (1) for every block written since the
            # last sync (the ghost buffer tracked them whether buffered
            # or not).
            for file_block in self.benefit.pending_blocks(ino):
                self.benefit.on_sync(ino, file_block, ctx.now)
        end = self.flush_blocks(ctx, self.buffer.file_blocks(ino),
                                parallel=not req.eager, wait=req.eager)
        if not req.datasync:
            # last_sync only feeds the 5-second eager-reset heuristic; the
            # paper notes recording it is lightweight, so it stays
            # DRAM-only.
            inode.last_sync = ctx.now
        self.device.fence(ctx)
        self.env.stats.bump(
            "hinfs_fdatasyncs" if req.datasync else "hinfs_fsyncs"
        )
        if req.eager:
            return 0
        return VCompletion(self.env, name="hinfs.sync:%d" % ino).resolve(
            max(end or 0, ctx.now), 0)

    # ------------------------------------------------------------------
    # flush / discard machinery
    # ------------------------------------------------------------------

    def flush_blocks(self, ctx, blocks, parallel=False, record_errors=False,
                     wait=True):
        """Persist a batch of buffered blocks to NVMM, then release them.

        ``parallel=True`` overlaps the dirty runs across the NVMM writer
        slots -- the effect of the paper's *multiple* background
        writeback threads; the caller waits once for the slowest run.  A
        foreground fsync flushes serially (the syncing thread performs
        the ``N_cf`` cacheline flushes itself, Section 3.3.2).
        ``wait=False`` (parallel only) skips that final wait and returns
        the slowest run's device-side end time instead, for callers --
        the ring's async fsync -- that surface it as a completion rather
        than blocking on it.

        Deferred commits are appended only after the data is durable
        (ordered mode).  With CLFW only dirty cacheline runs are written;
        the HiNFS-NCLFW ablation writes back every valid line of a dirty
        block.

        Media errors: with ``record_errors=False`` (foreground fsync /
        O_SYNC) a failed persist raises EIO to the caller and the
        affected blocks stay buffered for a later fsync.  Background
        writeback passes ``record_errors=True``: nobody is there to
        raise at, so the block's acknowledged-but-unpersistable data is
        dropped and the failure is recorded against the inode's errseq --
        the next fsync/close of the file reports it (Linux writeback
        semantics: the data is lost, the error is not).  Neither path
        retries: the device already retried a transient persist before
        it raised.
        """
        if not blocks:
            return None
        ends = []
        failed = set()
        plan = self.env.faults
        clfw = self.hconfig.enable_clfw
        # What DRAMDevice.read does per run, bound once: the copy out of
        # the buffer and its load charge.
        dram_read = self.buffer.dram.mem.read
        load_ns = self.buffer.dram.config.load_cost_ns
        block_load_ns = load_ns(BLOCK_SIZE)
        persist_run = self.device.persist_run
        sequential = not parallel
        counters = self.env.stats.counters
        for block in blocks:
            bitmap = block.bitmap
            if clfw:
                mask = bitmap.dirty
            else:
                mask = bitmap.valid if bitmap.dirty else 0
            if not mask:
                continue
            src_base = block.dram_addr
            dst = (block.nvmm_block,)
            try:
                if plan is not None:
                    # The ``writeback`` fault site: fail the persist of
                    # blocks last written by an armed request id.
                    plan.check("writeback", block.last_req_id)
                if mask == FULL_MASK:
                    data = dram_read(src_base, BLOCK_SIZE)
                    ctx.charge(block_load_ns, CAT_READ_ACCESS)
                    done = persist_run(ctx, dst, 0, data, wait=sequential)
                    if parallel:
                        ends.append(done)
                else:
                    for start, nlines in iter_runs(mask):
                        off = start * CACHELINE_SIZE
                        data = dram_read(src_base + off,
                                         nlines * CACHELINE_SIZE)
                        ctx.charge(load_ns(nlines * CACHELINE_SIZE),
                                   CAT_READ_ACCESS)
                        done = persist_run(ctx, dst, off, data,
                                           wait=sequential)
                        if parallel:
                            ends.append(done)
            except MediaError:
                if not record_errors:
                    if ends:
                        ctx.sync_to(max(ends), CAT_WRITE_ACCESS)
                    raise
                self.note_wb_error(block.ino)
                failed.add(block)
                counters["hinfs_wb_media_errors"] += 1
            else:
                counters["hinfs_flushed_lines"] += mask.bit_count()
        end = max(ends) if ends else None
        if ends and wait:
            ctx.sync_to(end, CAT_WRITE_ACCESS)
        for block in blocks:
            if not (failed and block in failed):
                block.bitmap.dirty = 0  # written back: every line stays valid
        # A block whose data was lost is released all the same: its
        # deferred commits complete (the metadata is already
        # acknowledged) and its DRAM block is freed, so the buffer
        # cannot wedge on unpersistable lines.
        self._complete_pending(ctx, blocks)
        self.buffer.evict_many(blocks)
        if failed:
            counters["hinfs_discarded_blocks"] += len(failed)
        return end

    def discard_blocks(self, ctx, blocks):
        """Drop buffered blocks without writeback (unlink/truncate path:
        writes to files that are later deleted never touch NVMM)."""
        if blocks:
            self._complete_pending(ctx, blocks)
            self.buffer.evict_many(blocks)
            self.env.stats.counters["hinfs_discarded_blocks"] += len(blocks)

    def _complete_pending(self, ctx, blocks):
        """``blocks`` were persisted (or discarded): in order, each stops
        holding back the deferred commits it carried, and its file's
        queue drains at the block that frees the queue's head -- the
        commits land at the clocks a block-by-block release gives them,
        and those commits are all the release charges."""
        queues = self._pending
        for block in blocks:
            carried = block.pending_txs
            if carried:
                for pending in carried:
                    del pending.blocks[block]
                carried.clear()
            queue = queues.get(block.ino)
            if queue and not queue[0].blocks and not queue[0].writing:
                self._drain(ctx, block.ino)

    def make_room(self, ctx, limit):
        """Log space comes back oldest first: flush the blocks the oldest
        deferred commits wait on until the journal holds at most
        ``limit`` slots; returns how many blocks that took.

        Called by ``Journal.begin`` when its reserve is short and by the
        background relief before it is.  Must not abort half-way, so
        media errors are recorded, not raised.
        """
        journal = self.journal
        flushed = 0
        while journal.used_slots > limit:
            tx = journal.oldest_open
            blocks = list(tx.owner.blocks) if tx.owner is not None else ()
            self.flush_blocks(ctx, blocks, parallel=True, record_errors=True)
            flushed += len(blocks)
            if tx.open:
                break  # not a deferred commit: its own caller closes it
        return flushed

    # ------------------------------------------------------------------
    # memory-mapped I/O (paper Section 4.2)
    # ------------------------------------------------------------------

    def on_mmap(self, ctx, ino):
        """Map-time hook: flush the file's buffered DRAM blocks first.
        While the mapping registry holds the inode its blocks are
        pinned Eager-Persistent (mapped stores bypass the file-I/O
        path, so nothing may be staged in DRAM)."""
        self.flush_blocks(ctx, self.buffer.file_blocks(ino))

    # ------------------------------------------------------------------
    # namespace hooks
    # ------------------------------------------------------------------

    def on_release(self, ctx, ino):
        self.discard_blocks(ctx, self.buffer.file_blocks(ino))
        self.benefit.drop_file(ino)

    def truncate(self, ctx, ino, new_size):
        first_dead = -(-new_size // BLOCK_SIZE)
        self.discard_blocks(ctx, [
            block for block in self.buffer.file_blocks(ino)
            if block.file_block >= first_dead])
        # The buffered copy of the partial tail block wins over NVMM on
        # reads, so its bytes past new_size must be zeroed too (PMFS
        # below zeroes the NVMM side).
        in_off = new_size % BLOCK_SIZE
        if in_off:
            buffered = self.buffer.lookup(ino, new_size // BLOCK_SIZE)
            if buffered is not None:
                # The cut rarely falls on a line edge: the line it splits
                # must be valid in DRAM before its tail is zeroed, or the
                # bytes below new_size in it read back as zeroes.
                self._fetch_before_write(ctx, buffered, in_off,
                                         BLOCK_SIZE - in_off)
                self.buffer.write_into(ctx, buffered, in_off,
                                       b"\0" * (BLOCK_SIZE - in_off), ctx.now)
        # The truncate transaction commits synchronously; surviving
        # deferred transactions of this file must commit first.
        self._barrier_file(ctx, ino)
        super().truncate(ctx, ino, new_size)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def unmount(self, ctx):
        """Flush all DRAM blocks to NVMM (paper Section 3.2).  Best
        effort on bad media: errors are recorded, the drain completes."""
        self.flush_blocks(ctx, self.buffer.all_blocks_lrw_order(),
                          parallel=True, record_errors=True)
        super().unmount(ctx)

    def drop_caches(self):
        """Reset the Benefit Model's history (fresh measured run); the
        buffer itself was emptied by the preceding unmount flush."""
        self.benefit = BufferBenefitModel(self.env, self.config, self.hconfig)
