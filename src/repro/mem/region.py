"""Flat byte-addressable memory regions.

The data plane of every simulated device is one contiguous slab.  Two
properties keep it off the simulator's own profile:

- **No per-access copies.**  ``write`` slice-assigns straight from the
  caller's buffer (bytes, bytearray, or memoryview) and ``view`` hands
  out zero-copy windows for internal consumers; only ``read`` -- whose
  contract is an independent ``bytes`` -- allocates.
- **Lazy backing for big slabs.**  Regions past a threshold sit on an
  anonymous ``mmap``: creation costs no memset (the kernel hands out
  zero pages on first touch), so a 192 MB simulated device whose
  workload touches 2 MB pays for 2 MB.  Small regions stay plain
  ``bytearray``s.  Both backings speak the buffer protocol, so every
  other path is identical.
"""

import mmap

CACHELINE_SIZE = 64

#: Regions at or above this size are mmap-backed (lazily faulted);
#: smaller ones use a bytearray (mmap below a few pages is pure waste).
_MMAP_THRESHOLD = 1 << 20

#: Shared zero slab for pattern fills; grown on demand, never shrunk.
_ZEROS = bytearray(1 << 16)


class MemoryRegion:
    """A bounds-checked flat byte slab (the data plane of a device)."""

    __slots__ = ("size", "_data", "_mv")

    def __init__(self, size):
        if size <= 0:
            raise ValueError("region size must be positive, got %d" % size)
        self.size = int(size)
        if self.size >= _MMAP_THRESHOLD:
            self._data = mmap.mmap(-1, self.size)
        else:
            self._data = bytearray(self.size)
        # One long-lived view: reads copy out of it in a single hop
        # regardless of backing (a bytearray slice would copy twice).
        self._mv = memoryview(self._data)

    def _check(self, addr, length):
        if addr < 0 or length < 0 or addr + length > self.size:
            raise IndexError(
                "access [%d, %d) outside region of %d bytes"
                % (addr, addr + length, self.size)
            )

    def read(self, addr, length):
        """Return ``length`` bytes starting at ``addr`` (an independent
        copy; use :meth:`view` for a zero-copy window)."""
        if addr < 0 or length < 0 or addr + length > self.size:
            self._check(addr, length)
        return bytes(self._mv[addr : addr + length])

    def view(self, addr, length):
        """Zero-copy read-write window onto ``[addr, addr+length)``.

        The window aliases the slab: it is only valid until the region
        is resized/closed, and writing through it bypasses any caller's
        bookkeeping -- the cacheline store takes its whole slab as one
        such window, so a store or a load there is one slice operation
        with no second bounds check and no call into this class.
        """
        self._check(addr, length)
        return self._mv[addr : addr + length]

    def write(self, addr, data):
        """Store ``data`` (any bytes-like object) at ``addr``."""
        length = len(data)
        if addr < 0 or addr + length > self.size:
            self._check(addr, length)
        self._data[addr : addr + length] = data

    def fill(self, addr, length, value=0):
        """Set ``length`` bytes at ``addr`` to ``value`` without building
        an O(length) one-off temporary per call."""
        global _ZEROS
        self._check(addr, length)
        if length == 0:
            return
        if value == 0:
            if length > len(_ZEROS):
                _ZEROS = bytearray(length)
            self._data[addr : addr + length] = memoryview(_ZEROS)[:length]
        else:
            # Non-zero fills are rare (test patterns); a one-byte seed
            # repeated by C code is the cheapest portable pattern fill.
            self._data[addr : addr + length] = bytes((value,)) * length

    def snapshot(self):
        """An independent copy of the full contents."""
        return bytes(self._data)

    def close(self):
        """Give the slab back now, not whenever a collection finds it.

        Every later access raises ``ValueError``: it goes through the
        released view.  Release what :meth:`view` handed out first -- an
        mmap backing refuses to close under a live window
        (``BufferError``).
        """
        self._mv.release()
        if isinstance(self._data, mmap.mmap):
            self._data.close()
        self._data = self._mv

    def __len__(self):
        return self.size
