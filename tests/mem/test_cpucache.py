"""Unit and property tests for the CPU-cache / persistence-domain model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.cpucache import CachedPersistentRegion
from repro.mem.region import CACHELINE_SIZE


def test_cached_write_visible_to_reads():
    region = CachedPersistentRegion(256)
    region.write(10, b"abc")
    assert region.read(10, 3) == b"abc"


def test_cached_write_lost_on_crash():
    region = CachedPersistentRegion(256)
    region.write(10, b"abc")
    region.crash()
    assert region.read(10, 3) == b"\0\0\0"


def test_clflush_makes_write_durable():
    region = CachedPersistentRegion(256)
    region.write(10, b"abc")
    region.clflush(10, 3)
    region.crash()
    assert region.read(10, 3) == b"abc"


def test_nocache_write_is_immediately_durable():
    region = CachedPersistentRegion(256)
    region.write_nocache(0, b"persist")
    region.crash()
    assert region.read(0, 7) == b"persist"


def test_nocache_write_invalidates_stale_cached_lines():
    region = CachedPersistentRegion(256)
    region.write(0, b"old")
    region.write_nocache(0, b"new")
    assert region.read(0, 3) == b"new"
    region.crash()
    assert region.read(0, 3) == b"new"


def test_crash_line_granularity_all_or_nothing():
    region = CachedPersistentRegion(256)
    # Two writes to the same line: both lost together.
    region.write(0, b"a")
    region.write(32, b"b")
    region.crash()
    assert region.read(0, 1) == b"\0"
    assert region.read(32, 1) == b"\0"


def test_crash_with_eviction_persists_chosen_lines():
    region = CachedPersistentRegion(256)
    region.write(0, b"line0")
    region.write(CACHELINE_SIZE, b"line1")
    region.crash(evict_lines=[1])
    assert region.read(0, 5) == b"\0" * 5
    assert region.read(CACHELINE_SIZE, 5) == b"line1"


def test_clflush_counts_only_dirty_lines():
    region = CachedPersistentRegion(512)
    region.write(0, b"x" * 100)  # lines 0 and 1
    assert region.clflush(0, 512) == 2
    assert region.clflush(0, 512) == 0  # already clean


def test_write_spanning_lines():
    region = CachedPersistentRegion(512)
    payload = bytes(range(150))
    region.write(60, payload)
    assert region.read(60, 150) == payload
    assert set(region.dirty_line_indices()) == {0, 1, 2, 3}


def test_flush_all():
    region = CachedPersistentRegion(512)
    region.write(0, b"a")
    region.write(200, b"b")
    assert region.flush_all() == 2
    region.crash()
    assert region.read(0, 1) == b"a"
    assert region.read(200, 1) == b"b"


def test_read_merges_cache_and_persistence():
    region = CachedPersistentRegion(256)
    region.write_nocache(0, b"AAAABBBB")
    region.write(4, b"bbbb")  # cached overlay on the second half
    assert region.read(0, 8) == b"AAAAbbbb"


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["write", "write_nocache", "clflush"]),
            st.integers(min_value=0, max_value=255),
            st.binary(min_size=1, max_size=80),
        ),
        max_size=25,
    )
)
def test_read_always_sees_newest_data(ops):
    """Reads must merge cache and persistence exactly like a shadow model."""
    region = CachedPersistentRegion(512)
    shadow = bytearray(512)
    for kind, addr, data in ops:
        if addr + len(data) > 512:
            data = data[: 512 - addr]
            if not data:
                continue
        if kind == "write":
            region.write(addr, data)
            shadow[addr : addr + len(data)] = data
        elif kind == "write_nocache":
            region.write_nocache(addr, data)
            shadow[addr : addr + len(data)] = data
        else:
            region.clflush(addr, len(data))
    assert region.read(0, 512) == bytes(shadow)


@settings(max_examples=60, deadline=None)
@given(
    writes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=255),
            st.binary(min_size=1, max_size=64),
        ),
        max_size=12,
    ),
    data=st.data(),
)
def test_crash_state_is_union_of_persisted_and_evicted_lines(writes, data):
    """After a crash, each line is either its flushed state or its old state."""
    region = CachedPersistentRegion(512)
    for addr, payload in writes:
        if addr + len(payload) > 512:
            payload = payload[: 512 - addr]
            if not payload:
                continue
        region.write(addr, payload)
    before_crash = region.read(0, 512)
    persistent_only = region.persistent_snapshot()
    dirty = region.dirty_line_indices()
    evict = data.draw(st.sets(st.sampled_from(dirty)) if dirty else st.just(set()))
    region.crash(evict_lines=evict)
    after = region.read(0, 512)
    for line in range(512 // CACHELINE_SIZE):
        lo, hi = line * CACHELINE_SIZE, (line + 1) * CACHELINE_SIZE
        if line in evict:
            assert after[lo:hi] == before_crash[lo:hi]
        else:
            assert after[lo:hi] == persistent_only[lo:hi]


def test_crash_rejects_out_of_range_eviction():
    region = CachedPersistentRegion(512)
    with pytest.raises(ValueError):
        region.crash(evict_lines=[region.num_lines])
    with pytest.raises(ValueError):
        region.crash(evict_lines=[-1])


def test_crash_rejects_clean_line_eviction():
    region = CachedPersistentRegion(512)
    region.write(0, b"a")
    region.clflush(0, 1)
    # Line 0 is clean: "evicting" it would silently assert nothing.
    with pytest.raises(ValueError):
        region.crash(evict_lines=[0])


def test_crash_accepts_dirty_line_eviction():
    region = CachedPersistentRegion(512)
    region.write(CACHELINE_SIZE, b"zz")
    region.crash(evict_lines=[1])
    assert region.read(CACHELINE_SIZE, 2) == b"zz"


def test_persistent_read_is_a_range_of_the_durable_image():
    region = CachedPersistentRegion(512)
    region.write_nocache(60, b"durable!")
    region.write(64, b"volatile")
    assert region.persistent_read(60, 8) == b"durable!"
    assert region.persistent_read(64, 8) == region.persistent_snapshot()[64:72]
    assert region.persistent_read(0, 512) == region.persistent_snapshot()
    assert region.read(64, 8) == b"volatile"
    for addr, length in ((-1, 4), (510, 4), (0, -1)):
        with pytest.raises(IndexError):
            region.persistent_read(addr, length)
