"""The global Least-Recently-Written list (paper Section 3.2).

All buffered DRAM blocks are kept sorted by last written time.  A write
moves a block to the MRW (most-recently-written) end; the writeback
threads pick victims from the LRW end.  Implemented as an intrusive
doubly-linked list with two sentinels, so every operation is O(1).
"""


class LRWNode:
    """Mixin/base giving an object a place in one LRW list."""

    __slots__ = ("lrw_prev", "lrw_next")

    def __init__(self):
        self.lrw_prev = None
        self.lrw_next = None


class LRWList:
    """Intrusive doubly-linked list: head = LRW victim end, tail = MRW."""

    def __init__(self):
        self._head = LRWNode()  # sentinel before the LRW-most node
        self._tail = LRWNode()  # sentinel after the MRW-most node
        self._head.lrw_next = self._tail
        self._tail.lrw_prev = self._head
        self._size = 0

    def __len__(self):
        return self._size

    def __contains__(self, node):
        return node.lrw_prev is not None

    def _unlink(self, node):
        node.lrw_prev.lrw_next = node.lrw_next
        node.lrw_next.lrw_prev = node.lrw_prev
        node.lrw_prev = None
        node.lrw_next = None

    def _link_mrw(self, node):
        last = self._tail.lrw_prev
        last.lrw_next = node
        node.lrw_prev = last
        node.lrw_next = self._tail
        self._tail.lrw_prev = node

    def touch(self, node):
        """Insert or move ``node`` to the MRW position."""
        if node.lrw_prev is not None:
            self._unlink(node)
        else:
            self._size += 1
        self._link_mrw(node)

    def remove(self, node):
        """Drop ``node`` from the list (no-op if absent)."""
        if node.lrw_prev is None:
            return
        self._unlink(node)
        self._size -= 1

    def lrw_victim(self):
        """The least-recently-written node, or None when empty."""
        node = self._head.lrw_next
        return None if node is self._tail else node

    def iter_lrw_order(self, limit=None):
        """Iterate from LRW to MRW (snapshot-safe: collects first); the
        walk stops after ``limit`` nodes when one is given."""
        count = self._size if limit is None else min(limit, self._size)
        nodes = []
        node = self._head.lrw_next
        for _ in range(count):
            nodes.append(node)
            node = node.lrw_next
        return nodes
