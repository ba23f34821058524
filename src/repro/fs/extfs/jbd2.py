"""A jbd2-style block journal model (ordered data mode).

Metadata-changing operations register the *metadata blocks* they dirty
(inode-table block, block-bitmap block, directory block).  A running
transaction deduplicates them -- touching the same inode block a
thousand times still journals it once, exactly like jbd2 buffer credits
-- and commits when fsync demands it or the periodic commit interval
(5 s, as in ext4) expires.  A commit writes ``1 descriptor + dirtied
metadata blocks + 1 commit`` journal blocks through the supplied block
writer -- the block device for EXT4+NVMMBD, direct NVMM page writes for
EXT4-DAX -- which is where the journaling overhead the paper sees on
Varmail and EXT4 comes from (and why EXT2+NVMMBD beats EXT4+NVMMBD in
Figure 13).
"""

from repro.engine.background import BackgroundTask
from repro.engine.clock import NS_PER_SEC
from repro.engine.locks import VCompletion
from repro.nvmm.config import BLOCK_SIZE

_ZERO_BLOCK = b"\0" * BLOCK_SIZE


class JBD2Journal:
    """Dirty-metadata-block accounting plus commit-block traffic."""

    def __init__(self, env, write_block_fn, commit_interval_ns=5 * NS_PER_SEC,
                 max_blocks=512):
        self.env = env
        self.write_block_fn = write_block_fn
        self.commit_interval_ns = commit_interval_ns
        self.max_blocks = max_blocks
        #: Metadata block ids dirtied by the running transaction.
        self._blocks = set()
        #: Inodes whose data must be flushed before the next commit
        #: (ordered mode); the owning fs registers a flush callback.
        self._ordered_inos = set()
        self.ordered_flush_fn = None
        #: Completions resolved by the next commit (async fsync CQEs).
        self._waiters = []

    def dirty_metadata(self, ctx, block_ids, ino=None):
        """A handle: register metadata blocks this op dirties."""
        self._blocks.update(block_ids)
        if ino is not None:
            self._ordered_inos.add(ino)
        if len(self._blocks) >= self.max_blocks:
            self.commit(ctx)

    def commit_completion(self, name="jbd2.commit"):
        """A :class:`VCompletion` the next :meth:`commit` resolves.

        Backs the ring's async fsync on the journaling stacks: the CQE
        lands when the transaction actually commits -- usually the
        periodic 5 s commit timeline.  A reaper that blocks first drives
        the commit itself through the completion's force hook.
        """
        comp = VCompletion(self.env, name=name, force_fn=self.commit)
        self._waiters.append(comp)
        return comp

    def sync_commit(self, ctx, req, metadata):
        """The journal's half of an OP_SYNC request; ``metadata`` says
        whether the sync has a metadata commit to make durable at all.

        Eager syncs commit in the foreground and return 0.  Ring-async
        syncs return a completion the next commit resolves (see
        :meth:`commit_completion`) -- already resolved when there is
        nothing to commit: data durable, size clean, nothing left to
        wait for.
        """
        if req.eager:
            if metadata:
                self.commit(ctx)
            return 0
        name = "jbd2.sync:%d" % req.ino
        if metadata:
            return self.commit_completion(name=name)
        return VCompletion(self.env, name=name).resolve(ctx.now, 0)

    def commit(self, ctx):
        """Write the running transaction's journal blocks."""
        if not self._blocks:
            self._resolve_waiters(ctx)
            return 0
        if self.ordered_flush_fn is not None:
            for ino in sorted(self._ordered_inos):
                self.ordered_flush_fn(ctx, ino)
        self._ordered_inos.clear()
        blocks = 1 + len(self._blocks) + 1  # descriptor + metadata + commit
        for _ in range(blocks):
            self.write_block_fn(ctx, _ZERO_BLOCK)
        self._blocks.clear()
        self.env.stats.bump("jbd2_commits")
        self.env.stats.bump("jbd2_blocks", blocks)
        self._resolve_waiters(ctx)
        return blocks

    def _resolve_waiters(self, ctx):
        waiters, self._waiters = self._waiters, []
        for comp in waiters:
            comp.resolve(ctx.now, 0)

    @property
    def pending_blocks(self):
        return len(self._blocks)


class JBD2CommitTask(BackgroundTask):
    """The periodic (5 s) jbd2 commit timeline."""

    def __init__(self, env, journal):
        super().__init__(env, "jbd2-commit")
        self.journal = journal
        self._next_ns = journal.commit_interval_ns

    def next_due_ns(self):
        return self._next_ns

    def run_due(self, horizon_ns):
        while self._next_ns <= horizon_ns:
            self.ctx.now = max(self.ctx.now, self._next_ns)
            self._next_ns += self.journal.commit_interval_ns
            self.journal.commit(self.ctx)

    def quiesce(self):
        super().quiesce()
        self._next_ns = self.journal.commit_interval_ns
