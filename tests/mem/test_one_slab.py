"""The one-slab region against the two-slab model it replaced.

``TwoSlabReference`` below is the previous layout kept as a test oracle:
a *current* and a *persistent* ``bytearray`` with a flush that copies
between them.  The stateful machine drives it and the real
:class:`CachedPersistentRegion` with the same random calls and demands
equal bytes, flush counts and observer events after every step.
"""

import os
import sys

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, invariant, precondition, rule,
)

from repro.mem.cpucache import CachedPersistentRegion
from repro.mem.region import CACHELINE_SIZE as LINE
from repro.mem.region import MemoryRegion


class TwoSlabReference:
    """Two device-sized slabs; a flush copies current -> persistent."""

    def __init__(self, size):
        self.size = size
        self.current = bytearray(size)
        self.persistent = bytearray(size)
        self.dirty = set()
        self.events = []

    @staticmethod
    def _lines(addr, length):
        if length <= 0:
            return range(0)
        return range(addr // LINE, (addr + length - 1) // LINE + 1)

    def _flush(self, line):
        if line not in self.dirty:
            return 0
        self.dirty.remove(line)
        lo, hi = line * LINE, min((line + 1) * LINE, self.size)
        self.events.append(("persist", lo, bytes(self.current[lo:hi]),
                            bytes(self.persistent[lo:hi])))
        self.persistent[lo:hi] = self.current[lo:hi]
        return 1

    def write(self, addr, data):
        if data:
            old = bytes(self.current[addr:addr + len(data)])
            self.events.append(("store", addr, bytes(data), old))
            self.current[addr:addr + len(data)] = data
            self.dirty.update(self._lines(addr, len(data)))

    def write_nocache(self, addr, data):
        for line in self._lines(addr, len(data)):
            self._flush(line)
        self.events.append(("persist", addr, bytes(data),
                            bytes(self.persistent[addr:addr + len(data)])))
        self.persistent[addr:addr + len(data)] = data
        self.current[addr:addr + len(data)] = data

    def clflush(self, addr, length):
        flushed = sum(self._flush(line) for line in self._lines(addr, length))
        self.events.append(("boundary",))
        return flushed

    def fence(self):
        self.events.append(("fence",))

    def flush_all(self):
        return self.clflush(0, self.size)

    def crash(self, evict_lines):
        for line in evict_lines:
            self._flush(line)
        self.current[:] = self.persistent
        self.dirty.clear()



class Recorder:
    """Observer logging the reference's event tuples.  A store event
    also captures what a load saw at that moment, and a persist event
    what a durable load saw, which pins ``on_cached_write`` and
    ``on_persist`` to *before* the mutation."""

    def __init__(self, region):
        self.region = region
        self.events = []

    def on_cached_write(self, addr, data):
        self.events.append(
            ("store", addr, data, self.region.read(addr, len(data))))

    def on_persist(self, addr, data):
        self.events.append(("persist", addr, data,
                            self.region.persistent_read(addr, len(data))))

    def on_flush_boundary(self, region):
        assert region is self.region
        self.events.append(("boundary",))

    def on_fence(self, region):
        assert region is self.region
        self.events.append(("fence",))


class Differential(RuleBasedStateMachine):
    SIZE = None

    def __init__(self):
        super().__init__()
        self.region = CachedPersistentRegion(self.SIZE)
        self.ref = TwoSlabReference(self.SIZE)
        self.recorder = self.region.observer = Recorder(self.region)

    def _clamp(self, addr, data):
        addr %= self.SIZE
        return addr, data[:self.SIZE - addr]

    # 200 bytes is up to five lines: the multi-line save path, and with
    # an address near the end, the clamped tail line.
    @rule(addr=st.integers(0, 1 << 16), data=st.binary(max_size=200))
    def write(self, addr, data):
        addr, data = self._clamp(addr, data)
        self.region.write(addr, data)
        self.ref.write(addr, data)

    @rule(addr=st.integers(0, 1 << 16), data=st.binary(max_size=200))
    def write_nocache(self, addr, data):
        addr, data = self._clamp(addr, data)
        self.region.write_nocache(addr, data)
        self.ref.write_nocache(addr, data)

    @rule(addr=st.integers(0, 1 << 16), length=st.integers(0, 300))
    def clflush(self, addr, length):
        addr %= self.SIZE
        length = min(length, self.SIZE - addr)
        assert (self.region.clflush(addr, length)
                == self.ref.clflush(addr, length))

    @rule(addr=st.integers(0, 1 << 16), data=st.binary(max_size=200),
          observed=st.booleans())
    def write_flush(self, addr, data, observed):
        """Reference = ``write`` then ``clflush``.  Unobserved, the region
        saves no image for a line it flushes at once: same bytes, same
        lines, and with nobody listening no events on either side."""
        addr, data = self._clamp(addr, data)
        before = len(self.ref.events)
        self.ref.write(addr, data)
        flushed = self.ref.clflush(addr, len(data))
        if not observed:
            del self.ref.events[before:]
            self.region.observer = None
        try:
            assert self.region.write_flush(addr, data) == flushed
        finally:
            self.region.observer = self.recorder

    @rule()
    def fence(self):
        self.region.fence()
        self.ref.fence()

    @rule()
    def flush_all(self):
        assert self.region.flush_all() == self.ref.flush_all()

    @rule(data=st.data())
    def crash(self, data):
        dirty = sorted(self.ref.dirty)
        evict = data.draw(st.lists(st.sampled_from(dirty), unique=True)
                          if dirty else st.just([]))
        self.region.crash(evict)
        self.ref.crash(evict)

    @precondition(lambda self: self.ref.dirty)
    @rule()
    def crash_refuses_a_clean_line(self):
        clean = next(line for line in range(self.region.num_lines + 1)
                     if line not in self.ref.dirty)
        with pytest.raises(ValueError):
            self.region.crash([min(self.ref.dirty), clean])

    @rule(addr=st.integers(0, 1 << 16), length=st.integers(0, 300))
    def read_ranges(self, addr, length):
        addr %= self.SIZE
        length = min(length, self.SIZE - addr)
        assert (self.region.read(addr, length)
                == bytes(self.ref.current[addr:addr + length]))
        assert (self.region.persistent_read(addr, length)
                == bytes(self.ref.persistent[addr:addr + length]))

    @invariant()
    def same_bytes_same_lines_same_events(self):
        region, ref = self.region, self.ref
        assert region.read(0, self.SIZE) == bytes(ref.current)
        assert region.persistent_read(0, self.SIZE) == bytes(ref.persistent)
        assert region.persistent_snapshot() == bytes(ref.persistent)
        assert region.dirty_line_indices() == sorted(ref.dirty)
        assert region.dirty_lines_snapshot() == {
            line: bytes(ref.current[line * LINE:(line + 1) * LINE]
                        ).ljust(LINE, b"\0")
            for line in ref.dirty}
        assert self.recorder.events == ref.events
        # The three views of "which lines are volatile" never part.
        assert (len(region.dirty_line_indices()) == sum(region._flags)
                == len(region._saved))
        assert set(region._saved) == ref.dirty


def _machine(size):
    return type("Differential%d" % size, (Differential,),
                {"SIZE": size}).TestCase


TestAligned = _machine(1024)
TestUnaligned = _machine(1000)


@pytest.mark.parametrize("call", [
    lambda r: r.write(-1, b"x"),
    lambda r: r.write(1020, b"12345"),
    lambda r: r.write_nocache(-1, b"x"),
    lambda r: r.write_nocache(1020, b"12345"),
    lambda r: r.write_flush(-1, b"x"),
    lambda r: r.write_flush(1020, b"12345"),
    lambda r: r.write_flush(1025, b""),
    lambda r: r.read(1020, 5),
    lambda r: r.read(0, -1),
    lambda r: r.persistent_read(1020, 5),
])
def test_out_of_bounds_access_raises_and_changes_nothing(call):
    region = CachedPersistentRegion(1024)
    region.write(960, b"volatile")
    with pytest.raises(IndexError):
        call(region)
    assert region.dirty_line_indices() == [15]
    assert region.read(960, 8) == b"volatile"
    assert region.persistent_snapshot() == bytes(1024)


# Below and above the mmap threshold: a bytearray and an mmap backing.
@pytest.mark.parametrize("size", [1024, 2 << 20])
def test_use_after_close_raises(size):
    slab = MemoryRegion(size)
    slab.write(10, b"abc")
    slab.close()
    slab.close()  # idempotent
    for call in (lambda: slab.read(10, 3), lambda: slab.view(0, 8),
                 lambda: slab.write(10, b"x"), lambda: slab.fill(0, 8),
                 lambda: slab.fill(0, 8, 0xFF), slab.snapshot):
        with pytest.raises(ValueError):
            call()

    region = CachedPersistentRegion(size)
    region.write(100, b"volatile")
    region.write_nocache(4096 % size, b"durable")
    region.close()
    region.close()
    for call in (lambda: region.read(100, 8),
                 lambda: region.write(100, b"x"),
                 lambda: region.write_nocache(100, b"x"),
                 lambda: region.write_flush(100, b"x"),
                 lambda: region.persistent_read(100, 8),
                 region.persistent_snapshot):
        with pytest.raises(ValueError):
            call()
    # Nothing volatile is left to flush or to lose.
    assert region.dirty_line_indices() == []
    assert region.flush_all() == 0
    region.crash()


def test_an_mmap_slab_refuses_to_close_under_a_live_view():
    slab = MemoryRegion(2 << 20)
    window = slab.view(0, 64)
    with pytest.raises(BufferError):
        slab.close()
    window.release()
    slab.close()


def _resident_bytes():
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="resident set size is read from /proc/self/statm")
def test_streaming_stores_fault_in_one_slab_not_two():
    """64 MB of non-temporal 4 KB stores into a fresh 256 MB region may
    make about 64 MB resident.  A second device-sized copy makes it 128."""
    total = 64 << 20
    region = CachedPersistentRegion(256 << 20)
    block = b"\xa5" * 4096
    before = _resident_bytes()
    for addr in range(0, total, len(block)):
        region.write_nocache(addr, block)
    grown = _resident_bytes() - before
    assert region.read(total - 4096, 4096) == block
    assert grown < 1.5 * total, "resident set grew by %d MB" % (grown >> 20)
