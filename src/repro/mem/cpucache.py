"""A persistent region behind a volatile CPU-cache line store.

NVMM sits on the memory bus, so ordinary stores land in the (volatile)
CPU cache and reach the persistence domain only when flushed -- either
explicitly (``clflush``), via non-temporal stores (the
``copy_from_user_inatomic_nocache`` path PMFS uses for data), or
*unpredictably* when the cache evicts a line on its own.  That last
hazard is why NVMM file systems must order metadata updates with
``clflush``/``mfence``; this module models all three paths so the
journal-recovery tests can exercise real crash states.

Layout: **one** slab holds the newest bytes (what loads observe), and
persistence is a property of a line, not a second array.  A one-byte-
per-line bitmap marks the volatile lines, and a small ``line -> bytes``
table keeps the *durable* image of exactly those lines, saved the
moment a clean line is first dirtied.  So a cached store saves the old
line(s) once and stores once; a non-temporal store is a single copy;
a flush moves no bytes at all -- the line's newest content simply *is*
the durable content now, so the saved image is dropped and the flag
cleared; a store flushed in the same call (``write_flush``) saves no
image to begin with; and only a crash copies, putting the surviving
saved images back.  The device costs one device-sized mapping, not two.
"""

from repro.mem.region import CACHELINE_SIZE, MemoryRegion


class CachedPersistentRegion:
    """Persistent bytes fronted by a volatile write-back line cache.

    Reads always observe the newest data.  ``crash()`` discards unflushed
    lines, optionally persisting an arbitrary subset first to model
    uncontrolled evictions.  Within one cacheline, a crash is
    all-or-nothing -- the architectural guarantee ("writes to the same
    cacheline are never reordered") that both PMFS's and HiNFS's
    valid-flag log entries rely on.
    """

    def __init__(self, size):
        self.size = int(size)
        #: The one slab: durable image overlaid with volatile stores.
        self._slab = MemoryRegion(size)
        self._mv = self._slab.view(0, self.size)
        #: One flag byte per cacheline: 1 = line is volatile (differs, or
        #: may differ, from what a crash would leave behind).
        self._flags = bytearray(self.num_lines)
        #: ``line -> durable bytes`` for exactly the flagged lines (the
        #: tail line of an unaligned region is clamped, not padded).
        self._saved = {}
        #: Optional persistence observer (crash-point exploration).  When
        #: set, it receives ``on_cached_write(addr, data)`` for volatile
        #: stores, ``on_persist(addr, data)`` for every byte range that
        #: becomes durable, ``on_flush_boundary(region)`` after each
        #: ``clflush``, and ``on_fence(region)`` at every ordering point.
        #: Both store hooks run *before* the change: a ``read`` or
        #: ``persistent_read`` inside one still sees the old bytes.
        self.observer = None

    @property
    def num_lines(self):
        return -(-self.size // CACHELINE_SIZE)

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
        mv = self._mv
        flags = self._flags
        first = addr // CACHELINE_SIZE
        last = (addr + length - 1) // CACHELINE_SIZE
        if first == last:
            if not flags[first]:
                base = first * CACHELINE_SIZE
                self._saved[first] = bytes(mv[base : base + CACHELINE_SIZE])
                flags[first] = 1
        else:
            run = flags[first : last + 1]
            if 0 in run:
                # Save the durable image of every clean line from ONE
                # copy of the run, not one slab read per line.
                saved = self._saved
                old = bytes(mv[first * CACHELINE_SIZE
                               : (last + 1) * CACHELINE_SIZE])
                off = 0
                for line, flag in enumerate(run, first):
                    if not flag:
                        saved[line] = old[off : off + CACHELINE_SIZE]
                    off += CACHELINE_SIZE
                flags[first : last + 1] = b"\x01" * len(run)
        mv[addr : addr + length] = data

    def write_nocache(self, addr, data):
        """A non-temporal store: bypasses the cache, immediately durable.

        Matches PMFS's ``copy_from_user_inatomic_nocache`` data path.
        Dirty volatile copies of partially-covered lines are flushed first
        so the store never resurrects stale bytes within a line.
        """
        length = len(data)
        if addr < 0 or addr + length > self.size:
            raise IndexError("store outside region")
        if self._saved and length:
            self._flush_lines(addr // CACHELINE_SIZE,
                              (addr + length - 1) // CACHELINE_SIZE + 1)
        if self.observer is not None:
            self.observer.on_persist(addr, bytes(data))
        self._mv[addr : addr + length] = data

    # -- flush / ordering ---------------------------------------------------

    def _flush_lines(self, first, stop):
        """Make every volatile line in ``[first, stop)`` durable as it
        stands and return how many there were.  No bytes move: the slab
        already holds the line, so its saved image is simply dropped."""
        flags = self._flags
        saved = self._saved
        observer = self.observer
        line = flags.find(1, first, stop)
        flushed = 0
        while line != -1:
            if observer is not None:
                base = line * CACHELINE_SIZE
                observer.on_persist(
                    base, bytes(self._mv[base : base + CACHELINE_SIZE]))
            flags[line] = 0
            del saved[line]
            flushed += 1
            # Step through a dense run by index; ``find`` only to jump
            # a gap (flush_all crosses millions of clean lines).
            line += 1
            if line >= stop:
                break
            if not flags[line]:
                line = flags.find(1, line, stop)
        return flushed

    def clflush(self, addr, length):
        """Flush every cacheline overlapping the range to persistence.

        Returns the number of lines actually flushed (dirty lines only),
        which the timing layer converts into emulated NVMM write delay.
        """
        flushed = 0
        if self._saved and length > 0:
            flushed = self._flush_lines(
                addr // CACHELINE_SIZE,
                (addr + length - 1) // CACHELINE_SIZE + 1)
        if self.observer is not None:
            self.observer.on_flush_boundary(self)
        return flushed

    def write_flush(self, addr, data):
        """:meth:`write` then :meth:`clflush` of the same range, as one
        step; returns the lines flushed, which is every line in range.

        A line flushed in the same breath it is stored needs no durable
        image saved: clean lines just take the bytes, and lines that were
        already volatile become durable as they now stand.  An observer
        must see the store before the mutation and each line persist, so
        with one attached the two calls run as they are.
        """
        if self.observer is not None:
            self.write(addr, data)
            return self.clflush(addr, len(data))
        length = len(data)
        if addr < 0 or addr + length > self.size:
            raise IndexError("store outside region")
        if length == 0:
            return 0
        self._mv[addr : addr + length] = data
        first = addr // CACHELINE_SIZE
        stop = (addr + length - 1) // CACHELINE_SIZE + 1
        if self._saved:
            self._flush_lines(first, stop)
        return stop - first

    def fence(self):
        """mfence ordering point (a no-op for the data plane; crash-point
        exploration records it as an enumeration boundary)."""
        if self.observer is not None:
            self.observer.on_fence(self)

    def flush_all(self):
        """Flush every dirty line (wbinvd-style; used at unmount)."""
        flushed = self._flush_lines(0, self.num_lines) if self._saved else 0
        if self.observer is not None:
            self.observer.on_flush_boundary(self)
        return flushed

    # -- load path --------------------------------------------------------

    def read(self, addr, length):
        """Load ``length`` bytes, observing volatile lines first."""
        if addr < 0 or length < 0 or addr + length > self.size:
            raise IndexError("load outside region")
        return bytes(self._mv[addr : addr + length])

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
        for line in self.dirty_line_indices():
            base = line * CACHELINE_SIZE
            out[line] = bytes(self._mv[base : base + CACHELINE_SIZE]).ljust(
                CACHELINE_SIZE, b"\0")
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
            self._flush_lines(line, line + 1)
        # Every line still volatile rolls back to its saved durable image.
        mv = self._mv
        for line, image in self._saved.items():
            base = line * CACHELINE_SIZE
            mv[base : base + len(image)] = image
        self._discard_volatile()

    def _discard_volatile(self):
        if self._saved:
            self._saved.clear()
            self._flags[:] = bytes(len(self._flags))

    def persistent_snapshot(self):
        """Contents as they would be read after an immediate crash."""
        return self.persistent_read(0, self.size)

    def persistent_read(self, addr, length):
        """``length`` durable bytes at ``addr``: the same range of
        :meth:`persistent_snapshot` without copying the whole image."""
        if addr < 0 or length < 0 or addr + length > self.size:
            raise IndexError("load outside region")
        end = addr + length
        newest = self._mv[addr:end]
        stop = (end - 1) // CACHELINE_SIZE + 1
        find = self._flags.find
        line = find(1, addr // CACHELINE_SIZE, stop) if self._saved else -1
        if line == -1:
            return bytes(newest)
        # Newest bytes, with the saved image laid over each volatile line.
        out = bytearray(newest)
        while line != -1:
            image = self._saved[line]
            base = line * CACHELINE_SIZE
            lo = max(base, addr)
            hi = min(base + len(image), end)
            out[lo - addr : hi - addr] = image[lo - base : hi - base]
            line = find(1, line + 1, stop)
        return bytes(out)

    def close(self):
        """Release the slab (see :meth:`MemoryRegion.close`): every
        later load or store raises ``ValueError``."""
        self._discard_volatile()
        self._mv.release()
        self._slab.close()
