"""Pluggable buffer replacement policies (the paper's future work).

Section 3.2: "this does not limit HiNFS of using other sophisticated
buffer replacement policies, such as LFU, ARC, 2Q ... We leave the
research of using different buffer replacement policies in the future."
This module implements that future work: a policy interface plus four
policies --

- :class:`LRWPolicy` -- the paper's default Least-Recently-Written list;
- :class:`LFUPolicy` -- Least-Frequently-Written (frequency buckets with
  LRW tie-breaking, O(1) operations);
- :class:`TwoQPolicy` -- Johnson & Shasha's 2Q adapted to a write
  buffer: a FIFO probation queue (A1in), a ghost queue of recently
  evicted block ids (A1out), and a main LRW queue (Am) for blocks
  rewritten after probation or re-admitted from the ghost;
- :class:`ARCPolicy` -- Megiddo & Modha's Adaptive Replacement Cache
  adapted likewise: recency list T1, frequency list T2, ghost lists
  B1/B2 steering the adaptive target ``p``.

Policies order *eviction*; correctness is unaffected (every block is
flushed before release), only the write-hit ratio changes -- which is
exactly what the ablation benchmark measures.
"""

from collections import OrderedDict
from itertools import chain, islice


def _chain(lists, limit):
    """The orders of ``lists`` end to end, cut at ``limit`` blocks."""
    return list(islice(chain(*lists), limit))


class ReplacementPolicy:
    """Victim-ordering interface used by the write buffer."""

    name = "abstract"

    def on_buffered(self, block):
        """A block entered the buffer; this counts as its first write."""
        raise NotImplementedError

    def on_write(self, block):
        """The block was written again while buffered."""
        raise NotImplementedError

    def on_evict(self, block):
        """The block left the buffer (flushed or discarded)."""
        raise NotImplementedError

    def on_buffered_run(self, blocks):
        """A run of blocks entered the buffer: :meth:`on_buffered` for
        each, in order."""
        for block in blocks:
            self.on_buffered(block)

    def on_evict_run(self, blocks):
        """A batch of blocks left the buffer: :meth:`on_evict` for each,
        in order."""
        for block in blocks:
            self.on_evict(block)

    def iter_order(self, limit=None):
        """Buffered blocks, best-victim first (snapshot): all of them,
        or the first ``limit`` without walking the rest.  The buffer
        evicts only through this, so a policy's victim rule lives here."""
        raise NotImplementedError

    def __len__(self):
        raise NotImplementedError


class LRWPolicy(ReplacementPolicy):
    """The paper's default: a single Least-Recently-Written list."""

    name = "lrw"

    def __init__(self):
        self._list = OrderedDict()  # block -> None, least recent first

    def on_buffered(self, block):
        self._list[block] = None

    def on_write(self, block):
        self._list.move_to_end(block)

    def on_evict(self, block):
        self._list.pop(block, None)

    def on_buffered_run(self, blocks):
        order = self._list
        for block in blocks:
            order[block] = None

    def on_evict_run(self, blocks):
        pop = self._list.pop
        for block in blocks:
            pop(block, None)

    def iter_order(self, limit=None):
        return _chain((self._list,), limit)

    def __len__(self):
        return len(self._list)


class LFUPolicy(ReplacementPolicy):
    """Least-Frequently-Written with O(1) frequency buckets.

    Each bucket is a recency list; eviction takes the LRW end of the lowest
    non-empty bucket, so ties break by recency (LFU-aging without decay).
    """

    name = "lfu"

    def __init__(self, max_frequency=64):
        self.max_frequency = max_frequency
        self._buckets = {}  # frequency -> OrderedDict of its blocks
        self._freq = {}  # block -> frequency

    def _bucket(self, freq):
        bucket = self._buckets.get(freq)
        if bucket is None:
            bucket = self._buckets[freq] = OrderedDict()
        return bucket

    def on_buffered(self, block):
        self._freq[block] = 1
        self._bucket(1)[block] = None

    def on_write(self, block):
        freq = self._freq[block]
        del self._buckets[freq][block]
        freq = self._freq[block] = min(self.max_frequency, freq + 1)
        self._bucket(freq)[block] = None

    def on_evict(self, block):
        freq = self._freq.pop(block, None)
        if freq is not None:
            del self._buckets[freq][block]

    def iter_order(self, limit=None):
        return _chain([self._buckets[freq] for freq in sorted(self._buckets)],
                      limit)

    def __len__(self):
        return len(self._freq)


class TwoQPolicy(ReplacementPolicy):
    """2Q adapted to a write buffer.

    New blocks enter the FIFO probation queue ``A1in``.  A block written
    again while in probation is promoted to the main queue ``Am`` (an
    LRW list).  Eviction takes ``A1in`` first while it holds more than
    ``kin`` of the population, else ``Am`` first, and remembers evicted
    probation ids in the ghost ``A1out``; a re-inserted ghost id goes
    straight to ``Am``.
    """

    name = "2q"

    def __init__(self, kin=0.25, kout=0.5, capacity_hint=1024):
        self.kin = kin
        self.kout_entries = max(16, int(kout * capacity_hint))
        self._a1in = OrderedDict()
        self._am = OrderedDict()
        self._a1out = OrderedDict()  # ghost: (ino, file_block) -> None

    @staticmethod
    def _key(block):
        return (block.ino, block.file_block)

    def on_buffered(self, block):
        if self._key(block) in self._a1out:
            del self._a1out[self._key(block)]
            self._am[block] = None
        else:
            self._a1in[block] = None

    def on_write(self, block):
        if block in self._a1in:
            # Second write while on probation: promote.
            del self._a1in[block]
            self._am[block] = None
        else:
            self._am.move_to_end(block)

    def on_evict(self, block):
        if block in self._a1in:
            del self._a1in[block]
            self._a1out[self._key(block)] = None
            while len(self._a1out) > self.kout_entries:
                self._a1out.popitem(last=False)
        else:
            self._am.pop(block, None)

    def iter_order(self, limit=None):
        if len(self._a1in) > self.kin * len(self):
            return _chain((self._a1in, self._am), limit)
        return _chain((self._am, self._a1in), limit)

    def __len__(self):
        return len(self._a1in) + len(self._am)


class ARCPolicy(ReplacementPolicy):
    """ARC adapted to a write buffer.

    ``t1`` holds blocks written once since admission, ``t2`` blocks
    written at least twice.  Ghost lists ``b1``/``b2`` remember evicted
    ids; a re-insertion that hits a ghost list adapts the target size
    ``p`` of ``t1`` (hit in b1 -> favour recency, grow p; hit in b2 ->
    favour frequency, shrink p) exactly as in the original algorithm.
    Eviction takes ``t1`` first once it holds at least ``p`` blocks,
    else ``t2`` first.
    """

    name = "arc"

    def __init__(self, capacity_hint=1024):
        self.capacity = max(8, capacity_hint)
        self.p = 0.0
        self._t1 = OrderedDict()
        self._t2 = OrderedDict()
        self._b1 = OrderedDict()
        self._b2 = OrderedDict()

    @staticmethod
    def _key(block):
        return (block.ino, block.file_block)

    def _trim_ghost(self, ghost):
        while len(ghost) > self.capacity:
            ghost.popitem(last=False)

    def on_buffered(self, block):
        key = self._key(block)
        if key in self._b1:
            delta = max(1.0, len(self._b2) / max(1, len(self._b1)))
            self.p = min(float(self.capacity), self.p + delta)
            del self._b1[key]
            self._t2[block] = None
        elif key in self._b2:
            delta = max(1.0, len(self._b1) / max(1, len(self._b2)))
            self.p = max(0.0, self.p - delta)
            del self._b2[key]
            self._t2[block] = None
        else:
            self._t1[block] = None

    def on_write(self, block):
        if block in self._t1:
            del self._t1[block]
            self._t2[block] = None
        else:
            self._t2.move_to_end(block)

    def on_evict(self, block):
        key = self._key(block)
        if block in self._t1:
            del self._t1[block]
            self._b1[key] = None
            self._trim_ghost(self._b1)
        elif block in self._t2:
            del self._t2[block]
            self._b2[key] = None
            self._trim_ghost(self._b2)

    def iter_order(self, limit=None):
        if len(self._t1) >= max(1, int(self.p)):
            return _chain((self._t1, self._t2), limit)
        return _chain((self._t2, self._t1), limit)

    def __len__(self):
        return len(self._t1) + len(self._t2)


POLICIES = {
    "lrw": LRWPolicy,
    "lfu": LFUPolicy,
    "2q": TwoQPolicy,
    "arc": ARCPolicy,
}


def make_policy(name, capacity_hint=1024):
    """Instantiate a policy by name, sizing its ghosts to the buffer."""
    cls = POLICIES[name]
    if cls in (TwoQPolicy, ARCPolicy):
        return cls(capacity_hint=capacity_hint)
    return cls()
