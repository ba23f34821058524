"""Background integrity scrubbing: verify, repair, or isolate bad media.

The media fault model leaves poisoned cachelines behind (uncorrectable
errors, exhausted persist retries).  Left alone they degrade the mount
(errors=remount-ro) and eventually isolate it.  The scrubber is the
recovery half of that state machine: it walks the file system's
allocated extents, finds every line the :class:`~repro.faults.media.
MediaFaultModel` marks bad, and handles each one:

- **Repair**: metadata regions are replicated in DRAM (the superblock
  object, the journal generation header, the inode-table mirror, the
  block-map mirrors, the directory mirrors) and file data may live in
  the DRAM write buffer (HiNFS) or the OS page cache (the ext stacks).
  When a replica exists the line is healed and rewritten in place --
  writing PMEM clears the poison, exactly like a controller-level ECC
  scrub.  Journal slots behind the tail are regenerable by construction
  (nothing replays them), so bad slots heal to zero once the open
  transactions up to them are closed.
- **Isolate**: file data with no DRAM copy is genuinely lost.  The
  readable lines of the block are salvaged into a freshly allocated
  block, the lost lines read back as zeros, the block map is remapped
  (journaled), the failing block is quarantined in the allocator's
  badblocks list, and the loss is recorded against the inode's errseq
  so the next fsync/close reports EIO -- data lost, error not.  On a
  full device there is no block to remap into: the block heals in
  place with the lost lines zeroed, and the loss is recorded the same.

A pass that accounts for every bad line returns a *clean*
:class:`ScrubReport`; the VFS feeds it to the mount-health FSM, whose
recovery edge returns a degraded mount to HEALTHY.  The badblocks list
is surfaced through the trace spine as a zero-duration ``scrub``-layer
marker span.
"""

from contextlib import contextmanager

from repro.engine.clock import NS_PER_SEC
from repro.engine.background import BackgroundTask
from repro.engine.stats import CAT_OTHERS, CAT_READ_ACCESS
from repro.nvmm.allocator import OutOfSpaceError
from repro.nvmm.config import BLOCK_SIZE, CACHELINE_SIZE
from repro.obs.trace import LAYER_SCRUB

LINES_PER_BLOCK = BLOCK_SIZE // CACHELINE_SIZE


class ScrubReport:
    """Outcome of one scrub pass over one file system."""

    __slots__ = ("fs_name", "started_ns", "finished_ns", "scanned_lines",
                 "bad_lines_found", "repaired_lines", "isolated_lines",
                 "quarantined_blocks", "unrecovered_lines")

    def __init__(self, fs_name, started_ns=0):
        self.fs_name = fs_name
        self.started_ns = started_ns
        self.finished_ns = started_ns
        self.scanned_lines = 0
        self.bad_lines_found = 0
        #: Lines healed and rewritten from a DRAM replica, in place.
        self.repaired_lines = 0
        #: Lines whose content was lost; their block was remapped or
        #: quarantined and the loss recorded (errseq).
        self.isolated_lines = 0
        #: The badblocks list this pass grew: blocks pulled from
        #: circulation, in block order.
        self.quarantined_blocks = []
        #: Bad lines the pass could not account for (should be zero).
        self.unrecovered_lines = 0

    @property
    def clean(self):
        """Every bad line was repaired or isolated: nothing is left that
        could fail again, so the mount may recover to HEALTHY."""
        return self.unrecovered_lines == 0

    @property
    def duration_ns(self):
        return self.finished_ns - self.started_ns

    def as_dict(self):
        return {
            "fs": self.fs_name,
            "scanned_lines": self.scanned_lines,
            "bad_lines_found": self.bad_lines_found,
            "repaired_lines": self.repaired_lines,
            "isolated_lines": self.isolated_lines,
            "quarantined_blocks": list(self.quarantined_blocks),
            "unrecovered_lines": self.unrecovered_lines,
            "clean": self.clean,
            "duration_ns": self.duration_ns,
        }

    def __repr__(self):
        return ("ScrubReport(%s, bad=%d, repaired=%d, isolated=%d, "
                "clean=%s)" % (self.fs_name, self.bad_lines_found,
                               self.repaired_lines, self.isolated_lines,
                               self.clean))


class _ScrubberBase:
    """Shared walk/report plumbing; subclasses implement the regions."""

    def __init__(self, fs):
        self.fs = fs
        self.env = fs.env

    def _device(self):
        raise NotImplementedError

    def run(self, ctx):
        device = self._device()
        report = ScrubReport(self.fs.name, ctx.now)
        model = getattr(device, "fault_model", None)
        with self._span(ctx, model):
            self._walk(ctx, device, model, report)
        report.finished_ns = ctx.now
        self.env.stats.bump("scrub_passes")
        self.env.stats.bump("scrub_repaired_lines", report.repaired_lines)
        self.env.stats.bump("scrub_isolated_lines", report.isolated_lines)
        self.env.stats.bump("scrub_quarantined_blocks",
                            len(report.quarantined_blocks))
        self._trace_badblocks(ctx, report)
        return report

    @contextmanager
    def _span(self, ctx, model):
        if ctx.free:
            yield None
            return
        meta = None
        if self.env.trace is not None:
            meta = {"bad_lines": len(model.bad_lines) if model else 0}
        with ctx.span("scrub", layer=LAYER_SCRUB, meta=meta) as sp:
            yield sp

    def _trace_badblocks(self, ctx, report):
        """Surface the grown badblocks list as a zero-duration marker."""
        ring = self.env.trace
        if ring is None or not report.quarantined_blocks:
            return
        now = ctx.now
        sp = ring.begin("scrub:badblocks", ctx.name, now, req_id=0,
                        layer=LAYER_SCRUB,
                        meta={"blocks": list(report.quarantined_blocks)})
        sp.close(now)
        ring.record(sp)

    def _walk(self, ctx, device, model, report):
        raise NotImplementedError

    # -- shared helpers -------------------------------------------------

    def _charge_scan(self, ctx, report, nlines):
        report.scanned_lines += nlines
        ctx.charge(self.fs.config.load_cost_ns(nlines * CACHELINE_SIZE),
                   CAT_READ_ACCESS)

    def _salvage_block(self, device, model, block, overlay=None):
        """Raw block content with bad lines zeroed (or overlaid from a
        DRAM replica); returns ``(bytes, lost_relative_lines)``."""
        base = block * BLOCK_SIZE
        out = bytearray(device.mem.read(base, BLOCK_SIZE))
        lost = []
        for r in range(LINES_PER_BLOCK):
            line = block * LINES_PER_BLOCK + r
            if line not in model.bad_lines:
                continue
            lo = r * CACHELINE_SIZE
            replica = overlay(r) if overlay is not None else None
            if replica is not None:
                out[lo:lo + CACHELINE_SIZE] = replica
            else:
                out[lo:lo + CACHELINE_SIZE] = b"\0" * CACHELINE_SIZE
                lost.append(r)
        return bytes(out), lost

    def _isolate(self, ctx, device, model, block, lines, content, lost, ino,
                 report):
        """Data lost: write the salvaged ``content`` to a fresh block,
        quarantine the failing one and record the loss against the
        inode's errseq; returns the new block for the caller to remap.
        With no block free to remap into, heal in place with the lost
        lines zeroed and return None."""
        fs = self.fs
        try:
            new_block = fs.balloc.alloc()
        except OutOfSpaceError:
            new_block = None
        for line in lines:
            model.heal_line(line)
        target = block if new_block is None else new_block
        device.write_persistent(ctx, target * BLOCK_SIZE, content, CAT_OTHERS)
        if new_block is not None:
            fs.balloc.quarantine(block)
            report.quarantined_blocks.append(block)
        report.repaired_lines += len(lines) - len(lost)
        report.isolated_lines += len(lost)
        fs.note_wb_error(ino)
        return new_block


class PmfsScrubber(_ScrubberBase):
    """Scrubber for the PMFS on-NVMM layout (PMFS, HiNFS, EXT4-DAX).

    Every metadata region has an exact DRAM replica, so metadata always
    repairs in place; file data repairs from the HiNFS write buffer when
    the bad line is DRAM-valid there and is isolated otherwise.
    """

    def _device(self):
        return self.fs.device

    def _walk(self, ctx, device, model, report):
        fs = self.fs
        sb = fs.sb
        # Scan cost: the allocated extents (metadata regions + allocated
        # data blocks) are read end to end.
        allocated = sb.data_start + fs.balloc.used_count
        self._charge_scan(ctx, report, allocated * LINES_PER_BLOCK)
        if model is None or not model.bad_lines:
            return
        bad = sorted(model.bad_lines)
        report.bad_lines_found = len(bad)
        owners = self._owner_maps()
        by_block = {}
        for line in bad:
            by_block.setdefault(line // LINES_PER_BLOCK, []).append(line)
        for block in sorted(by_block):
            lines = by_block[block]
            if block == 0:
                self._repair_superblock(ctx, device, model, lines, report)
            elif sb.journal_start <= block < sb.inode_table_start:
                self._repair_journal(ctx, device, model, lines, report)
            elif sb.inode_table_start <= block < sb.data_start:
                self._repair_itable(ctx, device, model, lines, report)
            elif sb.data_start <= block < sb.total_blocks:
                self._handle_data_block(ctx, device, model, block, lines,
                                        owners, report)
            else:
                report.unrecovered_lines += len(lines)

    # -- metadata replicas ----------------------------------------------

    def _repair_superblock(self, ctx, device, model, lines, report):
        for line in lines:
            model.heal_line(line)
        device.write_persistent(
            ctx, 0, self.fs.sb.pack().ljust(BLOCK_SIZE, b"\0"), CAT_OTHERS)
        report.repaired_lines += len(lines)

    def _repair_journal(self, ctx, device, model, lines, report):
        """A journal slot behind the tail is regenerable (nothing will
        replay it), so it heals to zero; one between tail and head may
        be the only undo image of a still-open deferred transaction, so
        the transactions up to it are closed first.  The header line
        rewrites from the in-DRAM generation."""
        journal = self.fs.journal
        for line in lines:
            model.heal_line(line)
            addr = line * CACHELINE_SIZE
            data = journal._header_bytes()
            if addr != journal.base_addr:
                data = b"\0" * CACHELINE_SIZE
                # Leave in use only the entries appended after this one
                # (slot ``lines_in - 1`` of the ring).
                lines_in = (addr - journal.base_addr) // CACHELINE_SIZE
                journal.make_room(
                    ctx, (journal.head - lines_in) % journal.capacity)
            device.write_persistent(ctx, addr, data, CAT_OTHERS)
        report.repaired_lines += len(lines)

    def _repair_itable(self, ctx, device, model, lines, report):
        """Rebuild inode-table lines from the DRAM mirror.  An inode slot
        is 256 B = 4 lines, so each bad line falls inside exactly one
        slot; free slots rebuild as zeros."""
        from repro.fs.pmfs.layout import INODE_SIZE
        itable = self.fs.itable
        table_base = self.fs.sb.inode_table_start * BLOCK_SIZE
        for line in lines:
            model.heal_line(line)
            addr = line * CACHELINE_SIZE
            index = (addr - table_base) // INODE_SIZE
            ino = index + 1
            inode = itable._mirror.get(ino)
            if inode is None:
                slot = b"\0" * INODE_SIZE
            else:
                slot = (inode.pack_core()
                        + inode.pack_pointers()).ljust(INODE_SIZE, b"\0")
            off = (addr - table_base) % INODE_SIZE
            device.write_persistent(
                ctx, addr, slot[off:off + CACHELINE_SIZE], CAT_OTHERS)
        report.repaired_lines += len(lines)

    # -- data region ----------------------------------------------------

    def _owner_maps(self):
        """``nvmm_block -> owner`` over every live inode's block map."""
        fs = self.fs
        data, pointer = {}, {}
        for inode in fs.itable.live_inodes():
            blockmap = fs._map(inode.ino)
            for file_block, nvmm_block in sorted(blockmap.mapped_blocks()):
                data[nvmm_block] = (inode.ino, file_block)
            if inode.indirect:
                pointer[inode.indirect] = ("indirect", inode.ino)
            if inode.dindirect:
                pointer[inode.dindirect] = ("dindirect", inode.ino)
            for l1_index, l2 in sorted(blockmap._l2_blocks.items()):
                pointer[l2] = ("l2", inode.ino, l1_index)
        return {"data": data, "pointer": pointer}

    def _handle_data_block(self, ctx, device, model, block, lines, owners,
                           report):
        fs = self.fs
        pointer_owner = owners["pointer"].get(block)
        if pointer_owner is not None:
            self._repair_pointer_block(ctx, device, model, block, lines,
                                       pointer_owner, report)
            return
        data_owner = owners["data"].get(block)
        if data_owner is None:
            # Free block: nothing references it; heal the lines so raw
            # tools can touch it, but never trust it again.
            from repro.fs.pmfs.layout import ZERO_BLOCK
            for line in lines:
                model.heal_line(line)
            device.write_persistent(ctx, block * BLOCK_SIZE,
                                    ZERO_BLOCK, CAT_OTHERS)
            fs.balloc.quarantine(block)
            report.quarantined_blocks.append(block)
            report.isolated_lines += len(lines)
            return
        ino, file_block = data_owner
        inode = fs.itable.get(ino)
        if inode is not None and inode.is_dir:
            self._repair_dirent_block(ctx, device, model, block, lines,
                                      ino, file_block, report)
            return
        self._repair_or_isolate_file_block(ctx, device, model, block, lines,
                                           ino, file_block, report)

    def _repair_pointer_block(self, ctx, device, model, block, lines, owner,
                              report):
        """Indirect/L1/L2 pointer blocks rebuild exactly from the block
        map's DRAM mirror."""
        from repro.fs.pmfs.layout import N_DIRECT, PTRS_PER_BLOCK
        import struct
        kind, ino = owner[0], owner[1]
        blockmap = self.fs._map(ino)
        ptrs = [0] * PTRS_PER_BLOCK
        if kind == "indirect":
            for i in range(PTRS_PER_BLOCK):
                ptrs[i] = blockmap.mirror.get(N_DIRECT + i, 0)
        elif kind == "dindirect":
            for i, l2 in blockmap._l2_blocks.items():
                ptrs[i] = l2
        else:
            l1_index = owner[2]
            base = N_DIRECT + PTRS_PER_BLOCK + l1_index * PTRS_PER_BLOCK
            for j in range(PTRS_PER_BLOCK):
                ptrs[j] = blockmap.mirror.get(base + j, 0)
        for line in lines:
            model.heal_line(line)
        device.write_persistent(
            ctx, block * BLOCK_SIZE,
            struct.pack("<%dQ" % PTRS_PER_BLOCK, *ptrs), CAT_OTHERS)
        report.repaired_lines += len(lines)

    def _repair_dirent_block(self, ctx, device, model, block, lines, ino,
                             file_block, report):
        """Dirent blocks rebuild exactly from the directory's DRAM mirror
        (``name -> (child_ino, slot)``)."""
        from repro.fs.pmfs.layout import (DIRENTS_PER_BLOCK, pack_dirent,
                                          pack_empty_dirent)
        directory = self.fs._dir(ino)
        by_slot = {slot: (name, child)
                   for name, (child, slot) in directory._entries.items()}
        out = bytearray()
        first_slot = file_block * DIRENTS_PER_BLOCK
        for s in range(DIRENTS_PER_BLOCK):
            entry = by_slot.get(first_slot + s)
            if entry is None:
                out.extend(pack_empty_dirent())
            else:
                name, child = entry
                out.extend(pack_dirent(child, name))
        for line in lines:
            model.heal_line(line)
        device.write_persistent(ctx, block * BLOCK_SIZE, bytes(out),
                                CAT_OTHERS)
        report.repaired_lines += len(lines)

    def _repair_or_isolate_file_block(self, ctx, device, model, block, lines,
                                      ino, file_block, report):
        """File data: repair lines the HiNFS write buffer still holds;
        salvage-and-remap the block when any line is genuinely lost."""
        fs = self.fs
        buffer = getattr(fs, "buffer", None)
        buffered = buffer.lookup(ino, file_block) if buffer is not None \
            else None

        def overlay(r):
            if buffered is None or not (buffered.bitmap.valid >> r) & 1:
                return None
            return buffer.read_from(ctx, buffered, r * CACHELINE_SIZE,
                                    CACHELINE_SIZE)

        content, lost = self._salvage_block(device, model, block,
                                            overlay=overlay)
        repaired = len(lines) - len(lost)
        if not lost:
            # Every bad line had a DRAM-valid copy: heal and rewrite in
            # place, like a controller ECC scrub.
            for line in lines:
                model.heal_line(line)
            device.write_persistent(ctx, block * BLOCK_SIZE, content,
                                    CAT_OTHERS)
            report.repaired_lines += repaired
            return
        # Data lost: move the salvageable bytes to a fresh block and
        # remap it (journaled).
        new_block = self._isolate(ctx, device, model, block, lines, content,
                                  lost, ino, report)
        if new_block is not None:
            tx = fs.journal.begin(ctx)
            fs._map(ino).set(ctx, tx, file_block, new_block)
            fs.journal.commit(ctx, tx)
            if buffered is not None:
                buffered.nvmm_block = new_block


class ExtScrubber(_ScrubberBase):
    """Scrubber for the block-based stacks (EXT2/EXT4 over NVMMBD).

    All namespace metadata lives in DRAM and metadata disk blocks carry
    regenerable content, so the reserved region always repairs; file
    data repairs from the OS page cache when the page is resident and is
    isolated (salvage + remap + quarantine + errseq) otherwise.
    """

    def _device(self):
        return self.fs.bdev.nvmm

    def _walk(self, ctx, device, model, report):
        fs = self.fs
        allocated = fs._reserved + fs.balloc.used_count
        self._charge_scan(ctx, report, allocated * LINES_PER_BLOCK)
        if model is None or not model.bad_lines:
            return
        bad = sorted(model.bad_lines)
        report.bad_lines_found = len(bad)
        owners = {}
        for ino in sorted(fs._inodes):
            inode = fs._inodes[ino]
            for file_block, disk in sorted(inode.blocks.items()):
                owners[disk] = (ino, file_block)
        by_block = {}
        for line in bad:
            by_block.setdefault(line // LINES_PER_BLOCK, []).append(line)
        for block in sorted(by_block):
            lines = by_block[block]
            if block >= fs.bdev.num_blocks:
                report.unrecovered_lines += len(lines)
            elif block < fs._reserved:
                # Metadata/journal area: content is regenerable (the
                # DRAM structures are authoritative); heal to zero.
                for line in lines:
                    model.heal_line(line)
                device.write_persistent(ctx, block * BLOCK_SIZE,
                                        b"\0" * BLOCK_SIZE, CAT_OTHERS)
                report.repaired_lines += len(lines)
            else:
                self._handle_data_block(ctx, device, model, block, lines,
                                        owners, report)

    def _handle_data_block(self, ctx, device, model, block, lines, owners,
                           report):
        fs = self.fs
        owner = owners.get(block)
        if owner is None:
            for line in lines:
                model.heal_line(line)
            device.write_persistent(ctx, block * BLOCK_SIZE,
                                    b"\0" * BLOCK_SIZE, CAT_OTHERS)
            fs.balloc.quarantine(block)
            report.quarantined_blocks.append(block)
            report.isolated_lines += len(lines)
            return
        ino, file_block = owner
        page = fs.cache.lookup(ctx, ino, file_block)
        if page is not None:
            # The whole page is resident: rewrite the block from it.
            for line in lines:
                model.heal_line(line)
            fs.bdev.write_block(ctx, block, bytes(page.data))
            report.repaired_lines += len(lines)
            return
        content, lost = self._salvage_block(device, model, block)
        new_block = self._isolate(ctx, device, model, block, lines, content,
                                  lost, ino, report)
        if new_block is not None:
            fs._inodes[ino].blocks[file_block] = new_block


class ScrubTask(BackgroundTask):
    """Periodic background scrubbing on its own virtual timeline.

    Runs a full pass every ``interval_ns`` (md's resync cadence, scaled
    down), feeding each report to the VFS's mount-health FSM, so a mount
    degraded by transient damage recovers without operator action.
    """

    def __init__(self, env, vfs, interval_ns=60 * NS_PER_SEC):
        super().__init__(env, "scrub")
        self.vfs = vfs
        self.interval_ns = interval_ns
        self._next_due_ns = interval_ns

    def quiesce(self):
        super().quiesce()
        self._next_due_ns = self.interval_ns

    def next_due_ns(self):
        return self._next_due_ns

    def run_due(self, horizon_ns):
        while self._next_due_ns <= horizon_ns:
            due = self._next_due_ns
            self._next_due_ns += self.interval_ns
            self.ctx.now = max(self.ctx.now, due)
            self.vfs.scrub(self.ctx)


__all__ = ["ScrubReport", "ScrubTask", "PmfsScrubber", "ExtScrubber"]
