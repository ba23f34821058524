"""The OS page cache used by the block-based baseline file systems.

This is the layer whose *double-copy* overhead the paper sets out to
eliminate: every read misses into the cache first (device -> cache ->
user), and every durable write copies twice (user -> cache -> device).

- :mod:`repro.pagecache.cache` -- pages, dirty tracking, LRU eviction,
  and the per-file page index.  Linux keeps that index in a radix tree;
  here it is a dict, since a lookup costs the flat ``page_cache_op_ns``
  and callers need only ascending block order, which ``sorted()`` gives.
- :mod:`repro.pagecache.writeback` -- the pdflush-style background
  writeback timeline.
"""

from repro.pagecache.cache import Page, PageCache
from repro.pagecache.writeback import PdflushTask

__all__ = ["Page", "PageCache", "PdflushTask"]
