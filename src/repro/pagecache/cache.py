"""Pages, dirty tracking, and LRU eviction for the OS page cache."""

from collections import OrderedDict

from repro.engine.stats import CAT_OTHERS, CAT_READ_ACCESS, CAT_WRITE_ACCESS
from repro.nvmm.config import BLOCK_SIZE


class Page:
    """One cached 4 KiB file page."""

    __slots__ = ("ino", "file_block", "data", "dirty", "dirtied_ns")

    def __init__(self, ino, file_block):
        self.ino = ino
        self.file_block = file_block
        self.data = bytearray(BLOCK_SIZE)
        self.dirty = False
        self.dirtied_ns = 0


class PageCache:
    """Global LRU page cache with a per-file page index.

    ``flush_fn(ctx, page)`` is supplied by the owning file system: it
    writes the page to the block device (through the generic block
    layer).  Eviction of a dirty page flushes first -- charged to
    whichever context forced the eviction, which is how the double-copy
    write path lands on the foreground under memory pressure.
    """

    def __init__(self, env, config, capacity_pages, flush_fn):
        self.env = env
        self.config = config
        self.capacity = max(8, int(capacity_pages))
        self.flush_fn = flush_fn
        self._files = {}  # ino -> {file_block: Page}
        #: Every cached page, least recently used first (page -> None).
        self.lru = OrderedDict()
        #: Incrementally-maintained count of dirty pages (used by the
        #: balance_dirty_pages-style foreground throttle).
        self.dirty_total = 0

    def __len__(self):
        return len(self.lru)

    # -- lookup / insert ----------------------------------------------------

    def lookup(self, ctx, ino, file_block):
        ctx.charge(self.config.page_cache_op_ns, CAT_OTHERS)
        pages = self._files.get(ino)
        page = None if pages is None else pages.get(file_block)
        if page is None:
            self.env.stats.bump("pagecache_misses")
            return None
        self.lru.move_to_end(page)
        self.env.stats.bump("pagecache_hits")
        return page

    def insert(self, ctx, ino, file_block):
        """Add an (initially clean, zeroed) page, evicting if needed."""
        ctx.charge(self.config.page_cache_op_ns, CAT_OTHERS)
        while len(self.lru) >= self.capacity:
            self._evict_one(ctx)
        page = Page(ino, file_block)
        pages = self._files.get(ino)
        if pages is None:
            pages = self._files[ino] = {}
        pages[file_block] = page
        self.lru[page] = None
        self.env.stats.bump("pagecache_inserts")
        return page

    def _evict_one(self, ctx):
        victim = next(iter(self.lru), None)
        if victim is None:
            raise RuntimeError("page cache capacity 0")
        if victim.dirty:
            self.flush_fn(ctx, victim)
            self.mark_clean(victim)
            self.env.stats.bump("pagecache_dirty_evictions")
        self.drop(victim)
        self.env.stats.bump("pagecache_evictions")

    def mark_clean(self, page):
        """Writeback finished for ``page``."""
        if page.dirty:
            page.dirty = False
            self.dirty_total -= 1

    def drop(self, page):
        """Remove a page from the cache without flushing."""
        if page.dirty:
            page.dirty = False
            self.dirty_total -= 1
        pages = self._files.get(page.ino)
        if pages is not None:
            pages.pop(page.file_block, None)
            if not pages:
                del self._files[page.ino]
        self.lru.pop(page, None)

    def drop_file(self, ino):
        """Invalidate every page of a file (unlink/truncate)."""
        pages = self._files.pop(ino, {})
        for page in pages.values():
            if page.dirty:
                page.dirty = False
                self.dirty_total -= 1
            self.lru.pop(page, None)
        return len(pages)

    # -- data movement ----------------------------------------------------

    def copy_in(self, ctx, page, offset, data, now_ns):
        """User buffer -> page (first copy of the write path)."""
        page.data[offset : offset + len(data)] = data
        ctx.charge(self.config.dram_store_cost_ns(len(data)), CAT_WRITE_ACCESS)
        if not page.dirty:
            page.dirty = True
            page.dirtied_ns = now_ns
            self.dirty_total += 1
        self.lru.move_to_end(page)

    def copy_out(self, ctx, page, offset, length):
        """Page -> user buffer (second copy of the read path)."""
        ctx.charge(self.config.load_cost_ns(length), CAT_READ_ACCESS)
        self.lru.move_to_end(page)
        return bytes(page.data[offset : offset + length])

    def fill_from_device(self, page, data):
        """Device -> page (data plane; the device read already charged)."""
        page.data[: len(data)] = data

    # -- dirty-set queries ----------------------------------------------------

    def pages_of(self, ino):
        """Every cached page of a file, clean or dirty, in block order."""
        pages = self._files.get(ino, {})
        return [pages[fb] for fb in sorted(pages)]

    def dirty_pages_of(self, ino):
        """The file's dirty pages, in block order."""
        return [page for page in self.pages_of(ino) if page.dirty]

    def dirty_pages_lru_order(self):
        return [page for page in self.lru if page.dirty]

    def clear(self):
        """Drop every page (echo 3 > drop_caches).  Callers must have
        flushed dirty pages first."""
        self._files.clear()
        self.lru.clear()
        self.dirty_total = 0
