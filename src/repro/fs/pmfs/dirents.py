"""Directories: packed 64-byte dirents in the directory's data blocks.

Each dirent is exactly one cacheline, so adding or removing an entry is a
single journaled cacheline write.  A DRAM mirror (``name -> (ino, slot)``)
keeps lookups O(1); recovery rebuilds it by scanning the directory's data
blocks through its block map.
"""

from repro.fs.errors import ExistsError, NotFound
from repro.fs.pmfs.layout import (
    DIRENT_SIZE,
    DIRENTS_PER_BLOCK,
    block_addr,
    pack_dirent,
    pack_empty_dirent,
    unpack_dirent,
)


class Directory:
    """Dirent management for one directory inode."""

    def __init__(self, device, journal, blockmap, inode):
        self.device = device
        self.journal = journal
        self.blockmap = blockmap
        self.inode = inode
        # name -> (child_ino, global slot index)
        self._entries = {}
        self._free_slots = []

    # -- queries ----------------------------------------------------------

    def lookup(self, name):
        entry = self._entries.get(name)
        return entry[0] if entry else None

    def entries(self):
        return [(name, ino) for name, (ino, _) in self._entries.items()]

    def __len__(self):
        return len(self._entries)

    # -- slot addressing --------------------------------------------------

    def _slot_addr(self, ctx, tx, slot):
        dir_block = slot // DIRENTS_PER_BLOCK
        nvmm_block = self.blockmap.get(dir_block)
        if nvmm_block is None:
            fresh = self.blockmap.map_holes(ctx, tx, dir_block, 1)
            nvmm_block = fresh[dir_block]
        return block_addr(nvmm_block) + (slot % DIRENTS_PER_BLOCK) * DIRENT_SIZE

    def _pick_slot(self):
        if self._free_slots:
            return self._free_slots.pop()
        slots_in_use = len(self._entries)
        return slots_in_use  # append at the tail

    # -- mutation -----------------------------------------------------------

    def add(self, ctx, tx, name, child_ino):
        """Insert a dirent (one journaled cacheline write)."""
        if name in self._entries:
            raise ExistsError(name)
        slot = self._pick_slot()
        addr = self._slot_addr(ctx, tx, slot)
        self.journal.journaled_write(ctx, tx, addr, pack_dirent(child_ino, name))
        self._entries[name] = (child_ino, slot)
        new_size = (slot + 1) * DIRENT_SIZE
        if new_size > self.inode.size:
            self.inode.size = new_size

    def remove(self, ctx, tx, name):
        """Invalidate a dirent (one journaled cacheline write)."""
        entry = self._entries.pop(name, None)
        if entry is None:
            raise NotFound(name)
        _, slot = entry
        addr = self._slot_addr(ctx, tx, slot)
        self.journal.journaled_write(ctx, tx, addr, pack_empty_dirent())
        self._free_slots.append(slot)
        return entry[0]

    # -- recovery -----------------------------------------------------------

    def load_from_nvmm(self):
        """Rebuild the mirror by scanning every dirent slot."""
        self._entries.clear()
        self._free_slots = []
        total_slots = self.inode.size // DIRENT_SIZE
        for first in range(0, total_slots, DIRENTS_PER_BLOCK):
            slots = range(first, min(first + DIRENTS_PER_BLOCK, total_slots))
            nvmm_block = self.blockmap.get(first // DIRENTS_PER_BLOCK)
            if nvmm_block is None:
                self._free_slots.extend(slots)
                continue
            # One load per directory block; its dirents parse in place.
            raw = self.device.mem.read(block_addr(nvmm_block),
                                       len(slots) * DIRENT_SIZE)
            for slot in slots:
                parsed = unpack_dirent(raw, (slot - first) * DIRENT_SIZE)
                if parsed is None:
                    self._free_slots.append(slot)
                else:
                    ino, name = parsed
                    self._entries[name] = (ino, slot)
