"""Background writeback (paper Section 3.2).

Two wakeup causes, exactly as the paper specifies:

1. Pressure: fewer than ``Low_f`` free DRAM blocks.  Each wake flushes
   one ``reclaim_batch`` of LRW victims and, while fewer than ``High_f``
   blocks are free, re-arms itself at the batch's end on the device, so
   the climb to ``High_f`` runs beside the foreground instead of being
   booked on every writer slot at one instant.  The wake that reaches
   ``High_f`` (or finds nothing left to reclaim) then relieves the
   journal and scans the dirty list for blocks last updated more than
   30 s ago.
2. Periodic: every 5 seconds it writes cold updated data back to NVMM.

The paper runs *multiple* writeback threads.  Here that parallelism is
the device's: every batch books its dirty runs across the ``N_w`` NVMM
writer slots (``HiNFS.flush_blocks(parallel=True)``), on the one
``hinfs-writeback`` timeline, contending with foreground eager writes --
the effect Figure 9 attributes background traffic to.  When the
foreground runs the buffer completely dry it calls
:meth:`~WritebackTask.demand_reclaim` and *waits* for the batch, which
is the only time writeback latency enters the critical path.
"""

from repro.engine.background import NEVER, BackgroundTask
from repro.obs.trace import LAYER_WRITEBACK


class WritebackTask(BackgroundTask):
    """The lazily-advanced writeback timeline of one HiNFS instance.

    Two due times drive it: the periodic wakeup, and a pressure wakeup
    that :meth:`signal_pressure` pulls in and each paced reclaim batch
    re-arms until ``High_f`` is reached (:meth:`_reclaim_step`).
    """

    def __init__(self, env, hinfs):
        super().__init__(env, "hinfs-writeback")
        self.hinfs = hinfs
        self.config = hinfs.hconfig
        self._next_periodic_ns = self.config.periodic_interval_ns
        self._pressure_ns = NEVER

    def quiesce(self):
        super().quiesce()
        self._next_periodic_ns = self.config.periodic_interval_ns
        self._pressure_ns = NEVER

    # -- BackgroundTask interface ----------------------------------------

    def next_due_ns(self):
        return min(self._next_periodic_ns, self._pressure_ns)

    def run_due(self, horizon_ns):
        while self.next_due_ns() <= horizon_ns:
            due = self.next_due_ns()
            self.ctx.now = max(self.ctx.now, due)
            if self._pressure_ns <= due:
                self._pressure_ns = NEVER
                if not self._reclaim_step(due):
                    self._journal_relief()
                    self._flush_older_than("aged", self.config.dirty_age_ns)
            if self._next_periodic_ns <= due:
                self._next_periodic_ns += self.config.periodic_interval_ns
                self._flush_older_than("periodic",
                                       self.config.periodic_interval_ns)

    # -- signals ------------------------------------------------------------

    def signal_pressure(self, now_ns):
        """Foreground noticed free blocks < Low_f.

        Coalescing: under sustained saturation the foreground signals on
        every write, but only a signal that actually pulls the wakeup
        *earlier* touches the registry -- and then via
        :meth:`~repro.engine.background.BackgroundRegistry.note_earlier`,
        which lowers the cached minimum in place instead of invalidating
        it, so the PR 7 idle fast path stays warm through an overload
        episode.
        """
        if now_ns < self._pressure_ns:
            self._pressure_ns = now_ns
            self.env.background.note_earlier(now_ns)

    def demand_reclaim(self, fg_ctx):
        """The buffer is completely full: reclaim a batch *synchronously*.

        The writeback clock catches up to the foreground's, the victim
        batch is flushed (occupying NVMM writer slots), and the
        foreground waits for it -- the paper's foreground stall.
        """
        ctx = self.ctx
        ctx.now = max(ctx.now, fg_ctx.now)
        victims = self.hinfs.buffer.all_blocks_lrw_order(
            self.config.reclaim_batch)
        with fg_ctx.waiting("hinfs-writeback demand reclaim "
                            "(%d victim blocks)" % len(victims)):
            self._flush_batch("demand", victims)
            self.env.stats.bump("writeback_demand_stalls")
            # The only time writeback latency enters the critical path:
            # the foreground's wait shows up as a writeback phase on its
            # own in-flight request's span.
            if victims:
                with fg_ctx.layer(LAYER_WRITEBACK):
                    fg_ctx.sync_to(ctx.now)
        # Let the background continue towards High_f off the critical path.
        self.signal_pressure(fg_ctx.now)
        return len(victims)

    # -- work items -----------------------------------------------------------

    def _flush_batch(self, cause, victims):
        """Flush one batch under a ``writeback``-layer span and count it
        in ``writeback_<cause>_blocks`` (an empty batch counts 0).

        When tracing is on the span is tagged with the ids of the
        requests whose buffered data this batch persists, joining the
        background timeline to the foreground requests in the exported
        trace (and letting fault injection target one request's
        writeback).
        """
        if victims:
            ctx = self.ctx
            meta = None
            if self.env.trace is not None:
                meta = {
                    "cause": cause,
                    "req_ids": sorted({block.last_req_id for block in victims
                                       if block.last_req_id is not None}),
                }
            with ctx.waiting("flushing %d %s victims" % (len(victims), cause)):
                with ctx.span("wb:%s" % cause, layer=LAYER_WRITEBACK,
                              meta=meta):
                    self.hinfs.flush_blocks(ctx, victims, parallel=True,
                                            record_errors=True)
        self.env.stats.bump("writeback_%s_blocks" % cause, len(victims))

    def _reclaim_step(self, due):
        """One pressure wake: flush one ``reclaim_batch`` of LRW victims.

        While the buffer is still short of ``High_f`` the next wake is
        armed at the batch's device-side end (the writeback clock, held
        strictly after ``due`` so the registry sees progress) and True
        is returned.  False means the climb is over: ``High_f`` was
        reached, or nothing was left to reclaim.
        """
        buffer = self.hinfs.buffer
        if buffer.at_high_watermark:
            return False
        victims = buffer.all_blocks_lrw_order(self.config.reclaim_batch)
        if not victims:
            return False
        self._flush_batch("pressure", victims)
        if buffer.at_high_watermark:
            return False
        self._pressure_ns = max(due + 1, self.ctx.now)
        return True

    def _journal_relief(self):
        """Close the oldest deferred-commit transactions once the ring is
        past its relief line, so ``Journal.begin`` rarely has to make
        room on the foreground."""
        journal = self.hinfs.journal
        if journal.used_slots > journal.relief_limit:
            self.env.stats.bump(
                "writeback_journal_relief_blocks",
                self.hinfs.make_room(self.ctx, journal.relief_limit))

    def _flush_older_than(self, cause, age_ns):
        """Flush every dirty block not written for ``age_ns``: the 30 s
        scan after a reclaim (``aged``) and the 5-second wakeup's cold
        data (``periodic``).

        Scans the dirty list (first-dirtied order), not the whole LRW
        list.
        """
        now = self.ctx.now
        self._flush_batch(cause, [
            block for block in self.hinfs.buffer.dirty_blocks()
            if now - block.last_written_ns >= age_ns
        ])
