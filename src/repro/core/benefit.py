"""The Buffer Benefit Model and its ghost buffer (paper Section 3.3.2).

The model decides, per 4 KiB data block, whether future asynchronous
writes should be buffered (Lazy-Persistent) or sent straight to NVMM
(Eager-Persistent).  At every synchronization operation it evaluates
Inequality (1) for each block the sync had to persist::

    N_cw * L_dram + N_cf * L_nvmm  <  N_cw * L_nvmm

where ``N_cw`` is the number of cacheline writes to the block since its
previous sync and ``N_cf`` the number of cacheline flushes this sync
itself had to perform (flushes already done by the background writeback
threads do not count).  Buffering wins exactly when enough writes
coalesce between syncs.

``N_cf`` for blocks that currently bypass the buffer is measured with a
**ghost buffer** that pretends every write were buffered but keeps only
index metadata (bitmaps and counters, no data) -- under 1 % of the buffer
footprint.  The model also tracks its own prediction accuracy, which
regenerates the paper's Figure 6.
"""

from collections import OrderedDict

from repro.core.bitmap import FULL_MASK, line_range_mask
from repro.nvmm.config import BLOCK_SIZE, LINES_PER_BLOCK

STATE_LAZY = 0
STATE_EAGER = 1


class GhostEntry:
    """Ghost-buffer record for one data block (metadata only)."""

    __slots__ = ("n_cw", "ghost_dirty", "last_write_ns", "state", "last_outcome")

    def __init__(self):
        self.n_cw = 0
        self.ghost_dirty = 0
        self.last_write_ns = 0
        self.state = STATE_LAZY
        #: Result of the previous sync's Inequality (1) evaluation
        #: (None until the block has seen a sync).
        self.last_outcome = None


class BufferBenefitModel:
    """Per-block eager/lazy state machine driven by sync history."""

    def __init__(self, env, nvmm_config, hinfs_config, max_entries=None):
        self.env = env
        self.nvmm_config = nvmm_config
        self.config = hinfs_config
        #: Per-cacheline write latencies for Inequality (1).
        self.l_dram_ns = nvmm_config.dram_store_cost_ns(64)
        self.l_nvmm_ns = nvmm_config.nvmm_write_latency_ns
        self.max_entries = max_entries or hinfs_config.buffer_blocks * 4
        # (ino, file_block) -> GhostEntry, LRU-ordered for capacity capping.
        self._entries = OrderedDict()
        # ino -> set of file blocks written since the file's last sync
        # (which blocks a sync must evaluate, without scanning the ghost).
        self._pending_by_file = {}
        # Figure 6 accounting.
        self.predictions = 0
        self.accurate_predictions = 0

    # -- ghost bookkeeping ---------------------------------------------------

    def _entry(self, ino, file_block, create=True):
        key = (ino, file_block)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            return entry
        return self._admit(key) if create else None

    def _admit(self, key):
        """A fresh entry for ``key``, dropping the least recent one past
        ``max_entries``."""
        entries = self._entries
        entry = entries[key] = GhostEntry()
        if len(entries) > self.max_entries:
            entries.popitem(last=False)
        return entry

    def record_write(self, ino, file_block, offset_in_block, length, now_ns):
        """Every write (buffered or direct) updates the ghost buffer."""
        key = (ino, file_block)
        entry = self._entries.get(key)
        if entry is None:
            entry = self._admit(key)
        else:
            self._entries.move_to_end(key)
        if length == BLOCK_SIZE:
            entry.n_cw += LINES_PER_BLOCK
            entry.ghost_dirty = FULL_MASK
        else:
            mask = line_range_mask(offset_in_block, length)
            entry.n_cw += mask.bit_count()
            entry.ghost_dirty |= mask
        entry.last_write_ns = now_ns
        pending = self._pending_by_file.get(ino)
        if pending is None:
            self._pending_by_file[ino] = {file_block}
        else:
            pending.add(file_block)

    def record_run(self, ino, file_block, offset_in_block, length, stamps,
                   store_ns=None):
        """:meth:`record_write` for each block of a request's run, from
        ``offset_in_block`` of ``file_block`` on, in one pass.  An eager
        run passes each block's stamp in ``stamps`` -- the clock its
        NVMM store started at, as the device reported it -- and stops at
        the last one.  A buffered run passes ``(now_ns,)`` for its first
        block and ``store_ns``, where that block's store started: each
        later block is stamped with the clock its buffered store starts
        at, ``store_ns`` plus ``L_dram`` per line stored before it."""
        entries = self._entries
        pending = self._pending_by_file.get(ino)
        if pending is None:
            pending = self._pending_by_file[ino] = set()
        line_ns = self.l_dram_ns
        now_ns = stamps[0]
        next_stamp = 1
        while length:
            take = BLOCK_SIZE - offset_in_block
            if take > length:
                take = length
            key = (ino, file_block)
            entry = entries.get(key)
            if entry is None:  # _admit, inline: a frame less per new block
                entry = entries[key] = GhostEntry()
                if len(entries) > self.max_entries:
                    entries.popitem(last=False)
            else:
                entries.move_to_end(key)
            if take == BLOCK_SIZE:
                lines = LINES_PER_BLOCK
                entry.ghost_dirty = FULL_MASK
            else:
                mask = line_range_mask(offset_in_block, take)
                lines = mask.bit_count()
                entry.ghost_dirty |= mask
            entry.n_cw += lines
            entry.last_write_ns = now_ns
            pending.add(file_block)
            if store_ns is not None:
                store_ns += lines * line_ns
                now_ns = store_ns
            elif next_stamp < len(stamps):
                now_ns = stamps[next_stamp]
                next_stamp += 1
            else:
                return
            file_block += 1
            offset_in_block = 0
            length -= take

    def pending_blocks(self, ino):
        """Blocks written since the file's last sync; resets the set."""
        return sorted(self._pending_by_file.pop(ino, ()))

    def drop_file(self, ino):
        """Forget a deleted file's ghost state."""
        pop = self._entries.pop
        for file_block in self._pending_by_file.pop(ino, ()):
            pop((ino, file_block), None)

    # -- state queries -----------------------------------------------------

    def is_eager(self, ino, file_block, now_ns, file_last_sync_ns):
        """The Eager-Persistent Write Checker's case-(2) decision.

        A block is treated as eager only while its file keeps seeing
        synchronization operations; after ``eager_reset_ns`` without one
        the state reverts to lazy (paper Section 3.3.2).
        """
        if not self.config.enable_eager_checker:
            return False
        if self.l_nvmm_ns <= int(self.l_dram_ns * 1.5):
            # NVMM writes are (nearly) as fast as DRAM: Inequality (1)
            # can essentially never pay for the extra copy, so every
            # write bypasses the buffer -- the paper observes exactly
            # this at the 50 ns point of Figure 11.
            return True
        entry = self._entry(ino, file_block, create=False)
        if entry is None or entry.state != STATE_EAGER:
            return False
        if now_ns - file_last_sync_ns > self.config.eager_reset_ns:
            entry.state = STATE_LAZY
            return False
        return True

    # -- sync-time evaluation -------------------------------------------------

    def on_sync(self, ino, file_block, now_ns, flushed_by_background=False):
        """Evaluate Inequality (1) for one block at a sync point.

        ``flushed_by_background`` marks blocks whose dirty lines had
        already been written back before the sync arrived, so this sync
        performed no flushes for them (``N_cf = 0``).
        Returns the new state.
        """
        entry = self._entry(ino, file_block)
        n_cw = entry.n_cw
        if flushed_by_background or now_ns - entry.last_write_ns > self.config.dirty_age_ns:
            n_cf = 0
        else:
            n_cf = entry.ghost_dirty.bit_count()
        buffering_wins = (
            n_cw * self.l_dram_ns + n_cf * self.l_nvmm_ns < n_cw * self.l_nvmm_ns
        )
        outcome = STATE_LAZY if buffering_wins else STATE_EAGER
        if entry.last_outcome is not None:
            self.predictions += 1
            if entry.last_outcome == outcome:
                self.accurate_predictions += 1
        entry.last_outcome = outcome
        entry.state = outcome
        entry.n_cw = 0
        entry.ghost_dirty = 0
        return outcome

    # -- reporting ----------------------------------------------------------

    @property
    def accuracy(self):
        """Fraction of syncs whose outcome matched the previous one
        (the paper's Figure 6 metric); None before any repeat sync."""
        if self.predictions == 0:
            return None
        return self.accurate_predictions / self.predictions

    def state_of(self, ino, file_block):
        entry = self._entry(ino, file_block, create=False)
        return STATE_LAZY if entry is None else entry.state
