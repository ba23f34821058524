"""pdflush: periodic background writeback for the page cache."""

from repro.engine.background import BackgroundTask
from repro.engine.clock import NS_PER_SEC


class PdflushTask(BackgroundTask):
    """Flush aged dirty pages every interval, like the kernel flusher
    threads (dirty_expire_centisecs ~ 30 s, wakeup ~ 5 s)."""

    def __init__(self, env, cache, interval_ns=5 * NS_PER_SEC,
                 age_ns=30 * NS_PER_SEC, dirty_ratio=0.2):
        super().__init__(env, "pdflush")
        self.cache = cache
        self.interval_ns = interval_ns
        self.age_ns = age_ns
        self.dirty_ratio = dirty_ratio
        self._next_ns = interval_ns

    def next_due_ns(self):
        return self._next_ns

    def run_due(self, horizon_ns):
        while self._next_ns <= horizon_ns:
            self.ctx.now = max(self.ctx.now, self._next_ns)
            self._next_ns += self.interval_ns
            self._flush_round()

    def quiesce(self):
        super().quiesce()
        self._next_ns = self.interval_ns

    def _flush_round(self):
        now = self.ctx.now
        dirty = self.cache.dirty_pages_lru_order()
        over_ratio = len(dirty) > self.dirty_ratio * self.cache.capacity
        for page in dirty:
            aged = now - page.dirtied_ns >= self.age_ns
            if aged or over_ratio:
                self.cache.flush_fn(self.ctx, page)
                self.cache.mark_clean(page)
                self.env.stats.bump("pdflush_pages")
