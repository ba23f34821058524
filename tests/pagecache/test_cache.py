"""Unit tests for the page cache and pdflush."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.context import ExecContext
from repro.engine.env import SimEnv
from repro.nvmm.config import NVMMConfig
from repro.pagecache.cache import PageCache
from repro.pagecache.writeback import PdflushTask

SEC = 1_000_000_000


class Rig:
    def __init__(self, capacity=8):
        self.env = SimEnv()
        self.config = NVMMConfig()
        self.flushed = []
        self.cache = PageCache(self.env, self.config, capacity, self._flush)
        self.ctx = ExecContext(self.env, "t")

    def _flush(self, ctx, page):
        self.flushed.append((page.ino, page.file_block, bytes(page.data)))


@pytest.fixture()
def rig():
    return Rig()


def test_miss_then_hit(rig):
    assert rig.cache.lookup(rig.ctx, 1, 0) is None
    page = rig.cache.insert(rig.ctx, 1, 0)
    assert rig.cache.lookup(rig.ctx, 1, 0) is page
    assert rig.env.stats.count("pagecache_hits") == 1
    assert rig.env.stats.count("pagecache_misses") == 1


def test_copy_in_marks_dirty_and_costs(rig):
    page = rig.cache.insert(rig.ctx, 1, 0)
    before = rig.ctx.now
    rig.cache.copy_in(rig.ctx, page, 100, b"hello", now_ns=42)
    assert page.dirty and page.dirtied_ns == 42
    assert bytes(page.data[100:105]) == b"hello"
    assert rig.ctx.now > before


def test_copy_out_roundtrip(rig):
    page = rig.cache.insert(rig.ctx, 1, 0)
    rig.cache.copy_in(rig.ctx, page, 0, b"abcdef", now_ns=1)
    assert rig.cache.copy_out(rig.ctx, page, 2, 3) == b"cde"


def test_eviction_at_capacity(rig):
    for i in range(10):
        rig.cache.insert(rig.ctx, 1, i)
    assert len(rig.cache) == 8
    # The two oldest pages are gone.
    assert rig.cache.lookup(rig.ctx, 1, 0) is None
    assert rig.cache.lookup(rig.ctx, 1, 9) is not None


def test_dirty_eviction_flushes_first(rig):
    page = rig.cache.insert(rig.ctx, 1, 0)
    rig.cache.copy_in(rig.ctx, page, 0, b"must flush", now_ns=1)
    for i in range(1, 10):
        rig.cache.insert(rig.ctx, 1, i)
    assert rig.flushed and rig.flushed[0][:2] == (1, 0)
    assert rig.flushed[0][2][:10] == b"must flush"


def test_lookup_keeps_a_page_past_an_older_untouched_one(rig):
    pages = [rig.cache.insert(rig.ctx, 1, i) for i in range(8)]
    rig.cache.lookup(rig.ctx, 1, 0)  # the oldest page is used again
    rig.cache.insert(rig.ctx, 1, 8)
    survivors = rig.cache.pages_of(1)
    assert pages[0] in survivors  # touched: no longer the victim
    assert pages[1] not in survivors  # the oldest untouched page went


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(
    st.tuples(st.sampled_from(["insert", "lookup", "write", "read", "drop"]),
              st.integers(min_value=0, max_value=11)),
    max_size=120,
))
def test_eviction_order_matches_a_reference_list(ops):
    """Victim order, not just membership: every hit or copy moves a page
    to the young end, and a full cache evicts (flushing first if dirty)
    the page a reference recency list holds at its old end."""
    rig = Rig(capacity=8)
    ref = [rig.cache.insert(rig.ctx, 1, fb) for fb in range(6)]  # LRU first
    for op, fb in ops:
        live = {page.file_block: page for page in ref}
        page = live.get(fb)
        if op in ("write", "read", "drop") and ref:
            page = ref[fb % len(ref)]  # any cached page, hit or not
        if op == "insert" and page is None:
            flushed = len(rig.flushed)
            if len(ref) == 8:
                victim = ref.pop(0)
                expect = [(1, victim.file_block)] if victim.dirty else []
            else:
                expect = []
            ref.append(rig.cache.insert(rig.ctx, 1, fb))
            assert [f[:2] for f in rig.flushed[flushed:]] == expect
        elif op == "lookup":
            assert rig.cache.lookup(rig.ctx, 1, fb) is page
        elif op == "write" and page is not None:
            rig.cache.copy_in(rig.ctx, page, 0, b"w", now_ns=0)
        elif op == "read" and page is not None:
            rig.cache.copy_out(rig.ctx, page, 0, 1)
        elif op == "drop" and page is not None:
            rig.cache.drop(page)
            ref.remove(page)
        if op in ("lookup", "write", "read") and page is not None:
            ref.remove(page)
            ref.append(page)
        assert list(rig.cache.lru) == ref
        assert rig.cache.dirty_pages_lru_order() == [p for p in ref if p.dirty]


def test_drop_file(rig):
    for i in range(4):
        rig.cache.insert(rig.ctx, 7, i)
    rig.cache.insert(rig.ctx, 8, 0)
    assert rig.cache.drop_file(7) == 4
    assert len(rig.cache) == 1
    assert rig.cache.lookup(rig.ctx, 8, 0) is not None


def test_dirty_queries(rig):
    a = rig.cache.insert(rig.ctx, 1, 0)
    b = rig.cache.insert(rig.ctx, 1, 1)
    rig.cache.insert(rig.ctx, 2, 0)
    rig.cache.copy_in(rig.ctx, a, 0, b"x", now_ns=1)
    rig.cache.copy_in(rig.ctx, b, 0, b"y", now_ns=2)
    assert rig.cache.dirty_pages_of(1) == [a, b]
    assert rig.cache.dirty_total == 2


def test_pages_come_back_in_block_order(rig):
    pages = {fb: rig.cache.insert(rig.ctx, 4, fb) for fb in (9, 2, 5)}
    assert rig.cache.pages_of(4) == [pages[2], pages[5], pages[9]]
    for fb in (9, 5):
        rig.cache.copy_in(rig.ctx, pages[fb], 0, b"d", now_ns=1)
    assert rig.cache.dirty_pages_of(4) == [pages[5], pages[9]]
    rig.cache.drop(pages[5])
    pages[7] = rig.cache.insert(rig.ctx, 4, 7)
    assert rig.cache.pages_of(4) == [pages[2], pages[7], pages[9]]
    assert rig.cache.dirty_pages_of(4) == [pages[9]]
    assert rig.cache.dirty_total == 1
    rig.cache.drop_file(4)
    assert rig.cache.pages_of(4) == rig.cache.dirty_pages_of(4) == []
    assert rig.cache.dirty_total == 0


def test_pdflush_flushes_aged_pages(rig):
    task = PdflushTask(rig.env, rig.cache, interval_ns=5 * SEC, age_ns=30 * SEC)
    rig.env.background.register(task)
    page = rig.cache.insert(rig.ctx, 1, 0)
    rig.cache.copy_in(rig.ctx, page, 0, b"old", now_ns=0)
    # Before the age threshold nothing is flushed.
    rig.env.background.advance_to(10 * SEC)
    assert not rig.flushed
    # After 30 s the periodic pass writes it back.
    rig.env.background.advance_to(36 * SEC)
    assert rig.flushed
    assert not page.dirty


def test_pdflush_ratio_trigger():
    rig = Rig(capacity=10)
    task = PdflushTask(rig.env, rig.cache, interval_ns=SEC, age_ns=1000 * SEC,
                       dirty_ratio=0.2)
    rig.env.background.register(task)
    for i in range(5):  # 50 % dirty > 20 % ratio
        page = rig.cache.insert(rig.ctx, 1, i)
        rig.cache.copy_in(rig.ctx, page, 0, b"d", now_ns=0)
    rig.env.background.advance_to(2 * SEC)
    assert len(rig.flushed) == 5
