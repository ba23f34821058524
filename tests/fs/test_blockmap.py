"""Unit and property tests for the PMFS block map (direct/indirect)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.context import ExecContext
from repro.engine.env import SimEnv
from repro.fs.errors import InvalidArgument
from repro.fs.pmfs.blockmap import BlockMap
from repro.fs.pmfs.inodes import InodeTable, KIND_FILE
from repro.fs.pmfs.journal import Journal
from repro.fs.pmfs.layout import MAX_FILE_BLOCKS, N_DIRECT, PTRS_PER_BLOCK, Superblock
from repro.nvmm.allocator import BlockAllocator
from repro.nvmm.config import NVMMConfig
from repro.nvmm.device import NVMMDevice


class Rig:
    def __init__(self, size=64 << 20):
        self.env = SimEnv()
        self.config = NVMMConfig()
        self.device = NVMMDevice(self.env, self.config, size)
        self.sb = Superblock.compute(size // 4096, journal_blocks=16)
        self.journal = Journal(self.env, self.device, self.sb, self.config)
        self.itable = InodeTable(self.device, self.journal, self.sb)
        self.balloc = BlockAllocator(
            self.sb.total_blocks - self.sb.data_start,
            first_block=self.sb.data_start,
        )
        self.ctx = ExecContext(self.env, "t")
        tx = self.journal.begin(self.ctx)
        self.inode = self.itable.alloc(self.ctx, tx, KIND_FILE, 0)
        self.journal.commit(self.ctx, tx)
        self.map = BlockMap(self.device, self.journal, self.itable,
                            self.inode, self.balloc)

    def set(self, fb, nvmm):
        tx = self.journal.begin(self.ctx)
        self.map.set(self.ctx, tx, fb, nvmm)
        self.itable.write_pointers(self.ctx, tx, self.inode)
        self.journal.commit(self.ctx, tx)

    def clear(self, fb):
        tx = self.journal.begin(self.ctx)
        freed = self.map.clear(self.ctx, tx, fb)
        self.itable.write_pointers(self.ctx, tx, self.inode)
        self.journal.commit(self.ctx, tx)
        return freed

    def reload(self):
        """Rebuild the mirror from NVMM (as mount recovery does)."""
        fresh = BlockMap(self.device, self.journal, self.itable, self.inode,
                         self.balloc)
        fresh.load_from_nvmm()
        return fresh


def test_direct_blocks():
    rig = Rig()
    rig.set(0, 5000)
    rig.set(11, 5011)
    assert rig.map.get(0) == 5000
    assert rig.map.get(11) == 5011
    assert rig.map.get(5) is None


def test_indirect_block_allocated_on_demand():
    rig = Rig()
    used_before = rig.balloc.used_count
    rig.set(N_DIRECT, 6000)
    assert rig.map.get(N_DIRECT) == 6000
    # One pointer block (the indirect) was allocated.
    assert rig.balloc.used_count == used_before + 1
    assert rig.inode.indirect != 0


def test_double_indirect_region():
    rig = Rig()
    fb = N_DIRECT + PTRS_PER_BLOCK + 3
    rig.set(fb, 7000)
    assert rig.map.get(fb) == 7000
    assert rig.inode.dindirect != 0


def test_far_double_indirect_slot():
    rig = Rig()
    fb = N_DIRECT + PTRS_PER_BLOCK + 5 * PTRS_PER_BLOCK + 17
    rig.set(fb, 8000)
    assert rig.map.get(fb) == 8000


def test_beyond_max_rejected():
    rig = Rig()
    tx = rig.journal.begin(rig.ctx)
    with pytest.raises(InvalidArgument):
        rig.map.set(rig.ctx, tx, MAX_FILE_BLOCKS, 1)
    with pytest.raises(InvalidArgument):
        rig.map.set(rig.ctx, tx, -1, 1)


def test_clear_returns_block():
    rig = Rig()
    rig.set(3, 9000)
    assert rig.clear(3) == 9000
    assert rig.map.get(3) is None
    assert rig.clear(3) is None


def test_mirror_survives_reload():
    rig = Rig()
    mapping = {0: 5000, 7: 5007, N_DIRECT + 2: 6002,
               N_DIRECT + PTRS_PER_BLOCK + 9: 7009}
    for fb, nvmm in mapping.items():
        rig.set(fb, nvmm)
    reloaded = rig.reload()
    assert dict(reloaded.mapped_blocks()) == mapping


def test_drop_all_frees_pointer_blocks():
    rig = Rig()
    rig.set(0, 5000)
    rig.set(N_DIRECT + 1, 6001)
    rig.set(N_DIRECT + PTRS_PER_BLOCK, 7000)
    tx = rig.journal.begin(rig.ctx)
    freed = rig.map.drop_all(rig.ctx, tx)
    rig.journal.commit(rig.ctx, tx)
    # 3 data blocks + indirect + dindirect + one L2 block.
    assert len(freed) == 6
    assert len(rig.map.mirror) == 0
    assert rig.reload().mapped_blocks() == []


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(
    st.tuples(st.booleans(),
              st.integers(min_value=0, max_value=N_DIRECT + 2 * PTRS_PER_BLOCK)),
    max_size=40,
))
def test_blockmap_matches_dict_and_reload(ops):
    """The map must behave like a dict, and the NVMM pointers must
    reproduce the exact same mapping after a reload."""
    rig = Rig()
    model = {}
    next_block = 5000
    for is_set, fb in ops:
        if is_set:
            rig.set(fb, next_block)
            model[fb] = next_block
            next_block += 1
        else:
            assert rig.clear(fb) == model.pop(fb, None)
    assert dict(rig.map.mapped_blocks()) == model
    assert dict(rig.reload().mapped_blocks()) == model
