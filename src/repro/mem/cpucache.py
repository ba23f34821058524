"""A persistent region behind a volatile CPU-cache line store.

NVMM sits on the memory bus, so ordinary stores land in the (volatile)
CPU cache and reach the persistence domain only when flushed -- either
explicitly (``clflush``), via non-temporal stores (the
``copy_from_user_inatomic_nocache`` path PMFS uses for data), or
*unpredictably* when the cache evicts a line on its own.  That last
hazard is why NVMM file systems must order metadata updates with
``clflush``/``mfence``; this module models all three paths so the
journal-recovery tests can exercise real crash states.

Hot-path layout (PR 7): instead of a dict of per-line ``bytearray``
copies, the volatile state is **flat-array** -- one contiguous
*current* slab holding the newest data (what loads observe), one
*persistent* slab holding the durable image, and one dirty-line bitmap
(a ``bytearray`` of 0/1 flags) between them.  A store is a single slice
assignment plus a bitmap run; a load is a single slice copy with no
per-line merge; a flush copies ``current -> persistent`` for exactly
the dirty lines.  Nothing on the write/flush/crash paths allocates per
line.
"""

from repro.mem.region import CACHELINE_SIZE, MemoryRegion

#: Flag-run template for marking many lines dirty in one slice assign.
_ONES = b"\x01" * 4096


class CachedPersistentRegion:
    """Persistent bytes fronted by a volatile write-back line cache.

    Reads always observe the newest data (the current slab).  ``crash()``
    discards unflushed lines, optionally persisting an arbitrary subset
    first to model uncontrolled evictions.  Within one cacheline, a crash
    is all-or-nothing -- the architectural guarantee ("writes to the same
    cacheline are never reordered") that both PMFS's and HiNFS's
    valid-flag log entries rely on.
    """

    def __init__(self, size):
        self.size = int(size)
        #: Durable image: what survives a crash.
        self._persistent = MemoryRegion(size)
        #: Newest data: durable image overlaid with volatile stores.
        self._current = MemoryRegion(size)
        #: One flag byte per cacheline: 1 = line differs from the
        #: durable image (volatile).  ``_dirty_count`` caches the number
        #: of set flags so clean-path checks are O(1).
        self._flags = bytearray(self.num_lines)
        self._dirty_count = 0
        #: Optional persistence observer (crash-point exploration).  When
        #: set, it receives ``on_cached_write(addr, data)`` for volatile
        #: stores, ``on_persist(addr, data)`` for every byte range that
        #: becomes durable, ``on_flush_boundary(region)`` after each
        #: ``clflush``, and ``on_fence(region)`` at every ordering point.
        self.observer = None

    @property
    def num_lines(self):
        return -(-self.size // CACHELINE_SIZE)

    # -- helpers ----------------------------------------------------------

    @staticmethod
    def _line_range(addr, length):
        """Indices of every cacheline overlapping [addr, addr+length)."""
        if length <= 0:
            return range(0, 0)
        first = addr // CACHELINE_SIZE
        last = (addr + length - 1) // CACHELINE_SIZE
        return range(first, last + 1)

    # -- store paths ------------------------------------------------------

    def write(self, addr, data):
        """An ordinary (cached, write-back) store: volatile until flushed."""
        length = len(data)
        if addr < 0 or addr + length > self.size:
            raise IndexError("store outside region")
        if length == 0:
            return
        if self.observer is not None:
            self.observer.on_cached_write(addr, bytes(data))
        self._current.write(addr, data)
        first = addr // CACHELINE_SIZE
        last = (addr + length - 1) // CACHELINE_SIZE
        nlines = last - first + 1
        flags = self._flags
        if self._dirty_count:
            already = sum(flags[first : last + 1])
            if already == nlines:
                return
            self._dirty_count += nlines - already
        else:
            self._dirty_count = nlines
        if nlines <= len(_ONES):
            flags[first : last + 1] = _ONES[:nlines]
        else:
            flags[first : last + 1] = b"\x01" * nlines

    def write_nocache(self, addr, data):
        """A non-temporal store: bypasses the cache, immediately durable.

        Matches PMFS's ``copy_from_user_inatomic_nocache`` data path.
        Dirty volatile copies of partially-covered lines are flushed first
        so the store never resurrects stale bytes within a line.
        """
        length = len(data)
        if addr < 0 or addr + length > self.size:
            raise IndexError("store outside region")
        if self._dirty_count and length:
            first = addr // CACHELINE_SIZE
            last = (addr + length - 1) // CACHELINE_SIZE
            if any(self._flags[first : last + 1]):
                for line in range(first, last + 1):
                    self._flush_line(line)
        self._persistent.write(addr, data)
        self._current.write(addr, data)
        if self.observer is not None:
            self.observer.on_persist(addr, bytes(data))

    # -- flush / ordering ---------------------------------------------------

    def clflush(self, addr, length):
        """Flush every cacheline overlapping the range to persistence.

        Returns the number of lines actually flushed (dirty lines only),
        which the timing layer converts into emulated NVMM write delay.
        """
        flushed = 0
        if self._dirty_count and length > 0:
            first = addr // CACHELINE_SIZE
            last = (addr + length - 1) // CACHELINE_SIZE
            if any(self._flags[first : last + 1]):
                for line in range(first, last + 1):
                    if self._flush_line(line):
                        flushed += 1
        if self.observer is not None:
            self.observer.on_flush_boundary(self)
        return flushed

    def fence(self):
        """mfence ordering point (a no-op for the data plane; crash-point
        exploration records it as an enumeration boundary)."""
        if self.observer is not None:
            self.observer.on_fence(self)

    def _flush_line(self, line):
        if not self._flags[line]:
            return False
        self._flags[line] = 0
        self._dirty_count -= 1
        base = line * CACHELINE_SIZE
        end = min(base + CACHELINE_SIZE, self.size)
        self._persistent.write(base, self._current.view(base, end - base))
        if self.observer is not None:
            self.observer.on_persist(base, self._current.read(base, end - base))
        return True

    def flush_all(self):
        """Flush every dirty line (wbinvd-style; used at unmount)."""
        flushed = 0
        find = self._flags.find
        line = find(1)
        while line != -1:
            if self._flush_line(line):
                flushed += 1
            line = find(1, line + 1)
        if self.observer is not None:
            self.observer.on_flush_boundary(self)
        return flushed

    # -- load path --------------------------------------------------------

    def read(self, addr, length):
        """Load ``length`` bytes, observing volatile lines first."""
        if addr < 0 or length < 0 or addr + length > self.size:
            raise IndexError("load outside region")
        return self._current.read(addr, length)

    # -- crash modelling --------------------------------------------------

    def dirty_line_indices(self):
        """Lines currently volatile (useful for enumerating crash states)."""
        out = []
        find = self._flags.find
        line = find(1)
        while line != -1:
            out.append(line)
            line = find(1, line + 1)
        return out

    def dirty_lines_snapshot(self):
        """Copy of the volatile lines: ``{line_index: line_bytes}``.

        Line buffers are always ``CACHELINE_SIZE`` long; a tail line on an
        unaligned region is zero-padded, mirroring the hardware's
        full-line granularity.
        """
        out = {}
        size = self.size
        for line in self.dirty_line_indices():
            base = line * CACHELINE_SIZE
            end = min(base + CACHELINE_SIZE, size)
            buf = self._current.read(base, end - base)
            if len(buf) < CACHELINE_SIZE:
                buf += b"\0" * (CACHELINE_SIZE - len(buf))
            out[line] = buf
        return out

    def crash(self, evict_lines=()):
        """Power failure: lose volatile lines, except ``evict_lines``.

        ``evict_lines`` models lines the cache happened to write back on
        its own before the crash; they persist, everything else volatile
        is lost.  Whole lines persist or vanish atomically.

        Every index in ``evict_lines`` must name a currently-dirty line;
        a clean or out-of-range index raises :class:`ValueError` so a
        crash-state enumeration can never silently test the wrong state.
        """
        evict_lines = list(evict_lines)
        for line in evict_lines:
            if not 0 <= line < self.num_lines:
                raise ValueError(
                    "evict_lines index %r outside region of %d lines"
                    % (line, self.num_lines)
                )
            if not self._flags[line]:
                raise ValueError(
                    "evict_lines index %r is not dirty; a clean line cannot "
                    "be written back at crash time" % (line,)
                )
        for line in evict_lines:
            self._flush_line(line)
        # Roll the current slab back to the durable image for every line
        # still volatile, then clear the bitmap.
        size = self.size
        find = self._flags.find
        line = find(1)
        while line != -1:
            base = line * CACHELINE_SIZE
            end = min(base + CACHELINE_SIZE, size)
            self._current.write(base, self._persistent.view(base, end - base))
            line = find(1, line + 1)
        if self._dirty_count:
            self._flags[:] = bytes(len(self._flags))
            self._dirty_count = 0

    def persistent_snapshot(self):
        """Contents as they would be read after an immediate crash."""
        return self._persistent.snapshot()

    def persistent_read(self, addr, length):
        """``length`` durable bytes at ``addr``: the same range of
        :meth:`persistent_snapshot` without copying the whole image."""
        if addr < 0 or length < 0 or addr + length > self.size:
            raise IndexError("load outside region")
        return self._persistent.read(addr, length)

    def load_snapshot(self, image):
        """Replace the persistent contents with ``image`` (crash-state
        replay); all volatile lines are discarded."""
        image = bytes(image)
        if len(image) != self.size:
            raise ValueError(
                "snapshot of %d bytes does not match region of %d bytes"
                % (len(image), self.size)
            )
        if self._dirty_count:
            self._flags[:] = bytes(len(self._flags))
            self._dirty_count = 0
        self._persistent.write(0, image)
        self._current.write(0, image)
