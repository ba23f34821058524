"""Functional tests for PMFS through the VFS syscall surface."""

import struct

import pytest

from repro.faults.media import MediaFaultModel
from repro.fs import flags as f
from repro.fs.errors import (
    BadFileDescriptor,
    ExistsError,
    IsADirectory,
    MediaError,
    NotADirectory,
    NotEmpty,
    NotFound,
    ReadOnly,
)
from repro.fs.pmfs.inodes import CORE_SIZE, KIND_FREE, InodeTable, PmfsInode
from repro.fs.pmfs.layout import (
    DIRENT_SIZE,
    DIRENTS_PER_BLOCK,
    N_DIRECT,
    PTRS_PER_BLOCK,
    block_addr,
    inode_addr,
    unpack_dirent,
)

from tests.fs.conftest import PmfsRig


def test_create_write_read_roundtrip(rig):
    fd = rig.vfs.open(rig.ctx, "/a.txt", f.O_RDWR | f.O_CREAT)
    rig.vfs.write(rig.ctx, fd, b"hello world")
    rig.vfs.lseek(rig.ctx, fd, 0)
    assert rig.vfs.read(rig.ctx, fd, 100) == b"hello world"
    rig.vfs.close(rig.ctx, fd)


def test_read_missing_file_raises(rig):
    with pytest.raises(NotFound):
        rig.vfs.open(rig.ctx, "/nope")


def test_pread_pwrite_at_offsets(rig):
    fd = rig.vfs.open(rig.ctx, "/f", f.O_RDWR | f.O_CREAT)
    rig.vfs.pwrite(rig.ctx, fd, 0, b"AAAA")
    rig.vfs.pwrite(rig.ctx, fd, 2, b"BB")
    assert rig.vfs.pread(rig.ctx, fd, 0, 4) == b"AABB"


def test_sparse_file_reads_zeroes(rig):
    fd = rig.vfs.open(rig.ctx, "/sparse", f.O_RDWR | f.O_CREAT)
    rig.vfs.pwrite(rig.ctx, fd, 10_000, b"tail")
    assert rig.vfs.pread(rig.ctx, fd, 0, 10) == b"\0" * 10
    assert rig.vfs.pread(rig.ctx, fd, 10_000, 4) == b"tail"
    assert rig.vfs.stat(rig.ctx, "/sparse").size == 10_004


def test_read_past_eof_is_short(rig):
    fd = rig.vfs.open(rig.ctx, "/f", f.O_RDWR | f.O_CREAT)
    rig.vfs.write(rig.ctx, fd, b"12345")
    assert rig.vfs.pread(rig.ctx, fd, 3, 100) == b"45"
    assert rig.vfs.pread(rig.ctx, fd, 5, 100) == b""
    assert rig.vfs.pread(rig.ctx, fd, 50, 10) == b""


def test_multiblock_write_spans_blocks(rig):
    payload = bytes(i % 251 for i in range(3 * 4096 + 123))
    rig.vfs.write_file(rig.ctx, "/big", payload)
    assert rig.vfs.read_file(rig.ctx, "/big") == payload


def test_large_file_uses_indirect_blocks(rig):
    # > 12 direct blocks => single-indirect territory.
    payload = bytes(i % 256 for i in range(20 * 4096))
    rig.vfs.write_file(rig.ctx, "/indirect", payload)
    assert rig.vfs.read_file(rig.ctx, "/indirect") == payload


def test_overwrite_preserves_rest(rig):
    rig.vfs.write_file(rig.ctx, "/f", b"x" * 8192)
    fd = rig.vfs.open(rig.ctx, "/f")
    rig.vfs.pwrite(rig.ctx, fd, 4000, b"YY")
    data = rig.vfs.read_file(rig.ctx, "/f")
    assert data[3999:4003] == b"xYYx"
    assert len(data) == 8192


def test_mkdir_and_nested_paths(rig):
    rig.vfs.mkdir(rig.ctx, "/d1")
    rig.vfs.mkdir(rig.ctx, "/d1/d2")
    rig.vfs.write_file(rig.ctx, "/d1/d2/file", b"deep")
    assert rig.vfs.read_file(rig.ctx, "/d1/d2/file") == b"deep"
    names = dict(rig.vfs.readdir(rig.ctx, "/d1"))
    assert "d2" in names


def test_mkdir_existing_raises(rig):
    rig.vfs.mkdir(rig.ctx, "/d")
    with pytest.raises(ExistsError):
        rig.vfs.mkdir(rig.ctx, "/d")


def test_unlink_removes_file(rig):
    rig.vfs.write_file(rig.ctx, "/victim", b"bye")
    rig.vfs.unlink(rig.ctx, "/victim")
    assert not rig.vfs.exists(rig.ctx, "/victim")
    with pytest.raises(NotFound):
        rig.vfs.unlink(rig.ctx, "/victim")


def test_unlink_frees_blocks_for_reuse(rig):
    # Warm the root directory's dirent block so it doesn't skew the count.
    rig.vfs.write_file(rig.ctx, "/warm", b"w")
    rig.vfs.unlink(rig.ctx, "/warm")
    free_before = rig.fs.balloc.free_count
    rig.vfs.write_file(rig.ctx, "/v", b"z" * (64 * 4096))
    assert rig.fs.balloc.free_count < free_before
    rig.vfs.unlink(rig.ctx, "/v")
    assert rig.fs.balloc.free_count == free_before


def test_unlink_directory_raises(rig):
    rig.vfs.mkdir(rig.ctx, "/d")
    with pytest.raises(IsADirectory):
        rig.vfs.unlink(rig.ctx, "/d")


def test_rmdir_empty_only(rig):
    rig.vfs.mkdir(rig.ctx, "/d")
    rig.vfs.write_file(rig.ctx, "/d/f", b"x")
    with pytest.raises(NotEmpty):
        rig.vfs.rmdir(rig.ctx, "/d")
    rig.vfs.unlink(rig.ctx, "/d/f")
    rig.vfs.rmdir(rig.ctx, "/d")
    assert not rig.vfs.exists(rig.ctx, "/d")


def test_rmdir_file_raises(rig):
    rig.vfs.write_file(rig.ctx, "/f", b"x")
    with pytest.raises(NotADirectory):
        rig.vfs.rmdir(rig.ctx, "/f")


def test_open_trunc_discards_contents(rig):
    rig.vfs.write_file(rig.ctx, "/f", b"old contents")
    fd = rig.vfs.open(rig.ctx, "/f", f.O_RDWR | f.O_TRUNC)
    assert rig.vfs.stat(rig.ctx, "/f").size == 0
    rig.vfs.write(rig.ctx, fd, b"new")
    assert rig.vfs.read_file(rig.ctx, "/f") == b"new"


def test_truncate_shrink_then_read(rig):
    rig.vfs.write_file(rig.ctx, "/f", b"a" * 10_000)
    rig.vfs.truncate(rig.ctx, "/f", 5_000)
    data = rig.vfs.read_file(rig.ctx, "/f")
    assert data == b"a" * 5_000


def test_truncate_grow_pads_zeroes(rig):
    rig.vfs.write_file(rig.ctx, "/f", b"ab")
    rig.vfs.truncate(rig.ctx, "/f", 10)
    assert rig.vfs.read_file(rig.ctx, "/f") == b"ab" + b"\0" * 8


def test_append_flag(rig):
    rig.vfs.write_file(rig.ctx, "/log", b"one\n")
    fd = rig.vfs.open(rig.ctx, "/log", f.O_RDWR | f.O_APPEND)
    rig.vfs.write(rig.ctx, fd, b"two\n")
    assert rig.vfs.read_file(rig.ctx, "/log") == b"one\ntwo\n"


def test_write_on_readonly_fd_raises(rig):
    rig.vfs.write_file(rig.ctx, "/f", b"x")
    fd = rig.vfs.open(rig.ctx, "/f", f.O_RDONLY)
    with pytest.raises(ReadOnly):
        rig.vfs.write(rig.ctx, fd, b"nope")


def test_read_on_writeonly_fd_raises(rig):
    rig.vfs.write_file(rig.ctx, "/f", b"x")
    fd = rig.vfs.open(rig.ctx, "/f", f.O_WRONLY)
    with pytest.raises(ReadOnly):
        rig.vfs.read(rig.ctx, fd, 1)


def test_bad_fd_raises(rig):
    with pytest.raises(BadFileDescriptor):
        rig.vfs.fsync(rig.ctx, 99)


def test_close_invalidates_fd(rig):
    fd = rig.vfs.open(rig.ctx, "/f", f.O_CREAT | f.O_RDWR)
    rig.vfs.close(rig.ctx, fd)
    with pytest.raises(BadFileDescriptor):
        rig.vfs.read(rig.ctx, fd, 1)


def test_fsync_is_cheap_on_pmfs(rig):
    fd = rig.vfs.open(rig.ctx, "/f", f.O_CREAT | f.O_RDWR)
    rig.vfs.write(rig.ctx, fd, b"data")
    before = rig.ctx.now
    rig.vfs.fsync(rig.ctx, fd)
    # Data is already durable; fsync costs only syscall + fence.
    assert rig.ctx.now - before < 5_000


def test_stat_reports_sizes_and_kind(rig):
    rig.vfs.mkdir(rig.ctx, "/d")
    rig.vfs.write_file(rig.ctx, "/d/f", b"12345")
    st = rig.vfs.stat(rig.ctx, "/d/f")
    assert st.size == 5 and not st.is_dir
    assert rig.vfs.stat(rig.ctx, "/d").is_dir


def test_write_charges_nvmm_latency(rig):
    fd = rig.vfs.open(rig.ctx, "/f", f.O_CREAT | f.O_RDWR)
    before = rig.ctx.now
    rig.vfs.pwrite(rig.ctx, fd, 0, b"z" * 4096)
    elapsed = rig.ctx.now - before
    # 64 lines * 200 ns = 12.8 us of data persistence dominates.
    assert elapsed >= 64 * 200


def test_writes_durable_across_remount(rig):
    rig.vfs.write_file(rig.ctx, "/keep", b"persist me" * 100)
    rig.vfs.mkdir(rig.ctx, "/dir")
    rig.vfs.write_file(rig.ctx, "/dir/nested", b"nested")
    rig.vfs.unmount(rig.ctx)
    rig.remount()
    assert rig.vfs.read_file(rig.ctx, "/keep") == b"persist me" * 100
    assert rig.vfs.read_file(rig.ctx, "/dir/nested") == b"nested"


def test_remount_preserves_free_space_accounting(rig):
    rig.vfs.write_file(rig.ctx, "/f", b"q" * (16 * 4096))
    used_before = rig.fs.balloc.used_count
    rig.vfs.unmount(rig.ctx)
    rig.remount()
    assert rig.fs.balloc.used_count == used_before


def test_inode_numbers_are_lowest_free_first(rig):
    def create(names):
        for name in names:
            rig.vfs.write_file(rig.ctx, "/" + name, b"")
        return [rig.vfs.stat(rig.ctx, "/" + name).ino for name in names]

    first = create("abcde")[0]
    assert create("abcde") == list(range(first, first + 5))
    # Freed out of order, reused in ascending order, then fresh ones.
    rig.vfs.unlink(rig.ctx, "/d")
    rig.vfs.unlink(rig.ctx, "/b")
    assert create("xyz") == [first + 1, first + 3, first + 5]
    # The same after the free list is rebuilt from the NVMM table.
    rig.vfs.unlink(rig.ctx, "/c")
    rig.vfs.unlink(rig.ctx, "/a")
    rig.vfs.unmount(rig.ctx)
    rig.remount()
    rig.vfs.unlink(rig.ctx, "/e")
    assert create("pqrs") == [first, first + 2, first + 4, first + 6]


def test_many_files_in_one_directory(rig):
    for i in range(200):
        rig.vfs.write_file(rig.ctx, "/file%03d" % i, b"#%d" % i)
    assert len(rig.vfs.readdir(rig.ctx, "/")) == 200
    assert rig.vfs.read_file(rig.ctx, "/file123") == b"#123"


def test_pmfs_writes_are_durable_without_fsync(rig):
    """Direct access: a completed write survives an immediate crash."""
    rig.vfs.write_file(rig.ctx, "/d", b"durable" * 10)
    rig.crash_and_remount()
    assert rig.vfs.read_file(rig.ctx, "/d") == b"durable" * 10


# -- mount scans: the bulk parses equal the per-slot loops they replaced -----
#
# The three ``load_from_nvmm`` loops below are the previous
# implementations, kept as the reference: one load and one unpack per
# inode slot, per block pointer and per dirent.


def _reference_inode_scan(device, sb):
    mirror, free = {}, []
    for ino in range(1, sb.inode_count + 1):
        inode = PmfsInode.unpack(ino, device.mem.read(inode_addr(sb, ino), 152))
        if inode.kind != KIND_FREE:
            mirror[ino] = inode
        else:
            free.append(ino)
    return mirror, free


def _reference_blockmap_scan(device, inode):
    mirror, l2_blocks = {}, {}
    for i, ptr in enumerate(inode.direct):
        if ptr:
            mirror[i] = ptr
    if inode.indirect:
        raw = device.mem.read(block_addr(inode.indirect), 4096)
        for i in range(PTRS_PER_BLOCK):
            (ptr,) = struct.unpack_from("<Q", raw, i * 8)
            if ptr:
                mirror[N_DIRECT + i] = ptr
    if inode.dindirect:
        l1 = device.mem.read(block_addr(inode.dindirect), 4096)
        for i in range(PTRS_PER_BLOCK):
            (l2,) = struct.unpack_from("<Q", l1, i * 8)
            if not l2:
                continue
            l2_blocks[i] = l2
            raw = device.mem.read(block_addr(l2), 4096)
            base = N_DIRECT + PTRS_PER_BLOCK + i * PTRS_PER_BLOCK
            for j in range(PTRS_PER_BLOCK):
                (ptr,) = struct.unpack_from("<Q", raw, j * 8)
                if ptr:
                    mirror[base + j] = ptr
    return mirror, l2_blocks


def _reference_directory_scan(device, blockmap, inode):
    entries, free_slots = {}, []
    for slot in range(inode.size // DIRENT_SIZE):
        nvmm_block = blockmap.get(slot // DIRENTS_PER_BLOCK)
        if nvmm_block is None:
            free_slots.append(slot)
            continue
        addr = block_addr(nvmm_block) + (slot % DIRENTS_PER_BLOCK) * DIRENT_SIZE
        parsed = unpack_dirent(device.mem.read(addr, DIRENT_SIZE))
        if parsed is None:
            free_slots.append(slot)
        else:
            entries[parsed[1]] = (parsed[0], slot)
    return entries, free_slots


def _fields(inode):
    return tuple(getattr(inode, name) for name in PmfsInode.__slots__)


def test_inode_table_rebuild_equals_the_per_slot_reference():
    # 50 inodes: the table ends mid-block, 14 slots short of it.
    rig = PmfsRig(inode_count=50)
    for i in range(12):
        rig.vfs.write_file(rig.ctx, "/f%d" % i, b"x" * (i * 3000))
    rig.vfs.mkdir(rig.ctx, "/d")
    rig.vfs.mkdir(rig.ctx, "/d/e")
    rig.vfs.write_file(rig.ctx, "/d/e/g", b"nested")
    for i in (1, 4, 5, 9):
        rig.vfs.unlink(rig.ctx, "/f%d" % i)
    # A never-used slot whose kind byte is garbage: live to both scans.
    rig.device.mem.write_nocache(inode_addr(rig.fs.sb, 40), b"\xa7")
    rig.device.crash()

    table = InodeTable(rig.device, rig.fs.journal, rig.fs.sb)
    table.load_from_nvmm()
    mirror, free = _reference_inode_scan(rig.device, rig.fs.sb)
    assert list(table._mirror) == list(mirror)
    assert 40 in mirror and 50 in free
    assert [_fields(table._mirror[ino]) for ino in mirror] \
        == [_fields(inode) for inode in mirror.values()]
    assert table._free == free == sorted(free)
    assert len(mirror) + len(free) == 50 and len(mirror) == 13
    # A second load rebuilds, it does not accumulate.
    table.load_from_nvmm()
    assert list(table._mirror) == list(mirror) and table._free == free


def test_indirect_maps_and_a_directory_hole_survive_crash_and_remount(rig):
    vfs, ctx = rig.vfs, rig.ctx
    # Direct, single-indirect and two L2 blocks of the double-indirect
    # range, sparse: everything between them is a hole.
    blocks = [3, N_DIRECT + 7, N_DIRECT + PTRS_PER_BLOCK - 1,
              N_DIRECT + PTRS_PER_BLOCK + 5,
              N_DIRECT + PTRS_PER_BLOCK + 3 * PTRS_PER_BLOCK + 511]
    fd = vfs.open(ctx, "/sparse", f.O_CREAT | f.O_RDWR)
    for n, block in enumerate(blocks):
        vfs.pwrite(ctx, fd, block * 4096 + n, b"block-%d" % n)
    vfs.close(ctx, fd)
    # A directory of three dirent blocks with removed names in each...
    vfs.mkdir(ctx, "/d")
    for i in range(150):
        vfs.write_file(ctx, "/d/n%03d" % i, b"")
    for i in (0, 17, 63, 64, 100, 149):
        vfs.unlink(ctx, "/d/n%03d" % i)
    # ... whose middle block then goes missing from its block map.
    dir_ino = vfs.stat(ctx, "/d").ino
    dir_map = rig.fs._map(dir_ino)
    tx = rig.fs.journal.begin(ctx)
    assert dir_map.clear(ctx, tx, 1) is not None
    rig.fs.journal.commit(ctx, tx)
    file_ino = vfs.stat(ctx, "/sparse").ino
    file_map = dict(rig.fs._map(file_ino).mapped_blocks())
    assert sorted(file_map) == blocks

    rig.crash_and_remount()
    vfs = rig.vfs
    blockmap = rig.fs._map(file_ino)
    mirror, l2_blocks = _reference_blockmap_scan(rig.device, blockmap.inode)
    assert blockmap.mirror == mirror == file_map
    assert list(blockmap.mirror) == list(mirror)
    assert blockmap._l2_blocks == l2_blocks and sorted(l2_blocks) == [0, 3]
    fd = vfs.open(ctx, "/sparse")
    for n, block in enumerate(blocks):
        assert vfs.pread(ctx, fd, block * 4096 + n, 7) == b"block-%d" % n

    directory = rig.fs._dir(dir_ino)
    entries, free_slots = _reference_directory_scan(
        rig.device, rig.fs._map(dir_ino), directory.inode)
    assert directory._entries == entries
    assert list(directory._entries) == list(entries)
    assert directory._free_slots == free_slots
    # Slots 64..127 sat on the hole: free, and their names are gone.
    assert set(range(64, 128)) <= set(free_slots)
    listed = sorted(name for name, _ino in vfs.readdir(ctx, "/d"))
    assert listed == ["n%03d" % i for i in range(150)
                      if not 64 <= i < 128 and i not in (0, 17, 63, 149)]


def _pinned_blocks(fs):
    return sum(len(fs._map(inode.ino).all_physical_blocks())
               for inode in fs.itable.live_inodes())


def _pointer_slot_line(fs, ino, slot):
    """Cacheline of the inode's ``slot``-th 8-byte pointer (direct 0..11,
    then the indirect and double-indirect roots)."""
    return (fs.itable.core_addr(ino) + CORE_SIZE + slot * 8) // 64


@pytest.mark.parametrize("slot,file_block", [
    (5, 5),                                        # a direct pointer
    (N_DIRECT, N_DIRECT + 3),                      # the indirect root
    (N_DIRECT + 1, N_DIRECT + PTRS_PER_BLOCK + 1),  # the dindirect root
], ids=["direct", "indirect-root", "dindirect-root"])
def test_a_fresh_block_whose_pointer_write_fails_is_given_back(
        rig, slot, file_block):
    model = rig.device.attach_faults(MediaFaultModel(seed=0))
    fd = rig.vfs.open(rig.ctx, "/a", f.O_CREAT | f.O_RDWR)
    rig.vfs.pwrite(rig.ctx, fd, 0, b"x" * 4096)
    ino = rig.vfs.stat(rig.ctx, "/a").ino
    used = rig.fs.balloc.used_count
    assert used == _pinned_blocks(rig.fs) == 2  # root dirents + block 0
    line = _pointer_slot_line(rig.fs, ino, slot)
    model.poison_line(line)
    with pytest.raises(MediaError):
        rig.vfs.pwrite(rig.ctx, fd, file_block * 4096, b"y" * 4096)
    assert rig.fs.balloc.used_count == _pinned_blocks(rig.fs) == used
    inode = rig.fs.itable.get(ino)
    assert (inode.indirect, inode.dindirect) == (0, 0)
    # Once the line is replaced the same write goes through, onto the
    # blocks the failed attempt gave back.
    model.heal_line(line)
    rig.vfs.pwrite(rig.ctx, fd, file_block * 4096, b"y" * 4096)
    assert rig.vfs.pread(rig.ctx, fd, file_block * 4096, 4096) == b"y" * 4096
    assert rig.fs.balloc.used_count == _pinned_blocks(rig.fs) > used
    rig.remount()
    assert rig.fs.balloc.used_count == _pinned_blocks(rig.fs)


@pytest.mark.parametrize("slot,file_block,neighbour", [
    (5, 5, 6),                                         # slots 3..10: one line
    (N_DIRECT, N_DIRECT + 3, N_DIRECT - 1),            # slot 11 + both roots
    (N_DIRECT + 1, N_DIRECT + PTRS_PER_BLOCK + 1, N_DIRECT - 1),
], ids=["direct", "indirect-root", "dindirect-root"])
def test_a_given_back_block_is_not_named_by_a_late_flush_of_its_slot(
        rig, slot, file_block, neighbour):
    """The failed persist left the new pointer in the CPU cache; the
    block it names is the next one handed out, and the neighbour's
    journaled write flushes the whole 64-byte line."""
    model = rig.device.attach_faults(MediaFaultModel(seed=0))
    fd = rig.vfs.open(rig.ctx, "/a", f.O_CREAT | f.O_RDWR)
    rig.vfs.pwrite(rig.ctx, fd, 0, b"x" * 4096)
    ino = rig.vfs.stat(rig.ctx, "/a").ino
    line = _pointer_slot_line(rig.fs, ino, slot)
    assert line == _pointer_slot_line(rig.fs, ino, neighbour)
    model.poison_line(line)
    with pytest.raises(MediaError):
        rig.vfs.pwrite(rig.ctx, fd, file_block * 4096, b"y" * 4096)
    model.heal_line(line)
    rig.vfs.pwrite(rig.ctx, fd, neighbour * 4096, b"z" * 4096)
    rig.vfs.write_file(rig.ctx, "/b", b"w" * 8192)
    rig.crash_and_remount()
    pinned = [block for inode in rig.fs.itable.live_inodes()
              for block in rig.fs._map(inode.ino).all_physical_blocks()]
    assert len(pinned) == len(set(pinned)) == rig.fs.balloc.used_count
    inode = rig.fs.itable.get(ino)
    assert (inode.indirect, inode.dindirect) == (0, 0)
    assert rig.fs._map(ino).get(file_block) is None
    fd = rig.vfs.open(rig.ctx, "/a")
    assert rig.vfs.pread(rig.ctx, fd, neighbour * 4096, 4096) == b"z" * 4096
    # The block that failed is a hole (or past the end), not an alias.
    assert not rig.vfs.pread(rig.ctx, fd, file_block * 4096, 4096).strip(b"\0")
    assert rig.vfs.read_file(rig.ctx, "/b") == b"w" * 8192


def test_a_fresh_l2_pointer_block_whose_write_fails_is_given_back(rig):
    model = rig.device.attach_faults(MediaFaultModel(seed=0))
    fd = rig.vfs.open(rig.ctx, "/a", f.O_CREAT | f.O_RDWR)
    first = N_DIRECT + PTRS_PER_BLOCK
    rig.vfs.pwrite(rig.ctx, fd, first * 4096, b"x")
    blockmap = rig.fs._map(rig.vfs.stat(rig.ctx, "/a").ino)
    used = rig.fs.balloc.used_count
    # L1 slot 8 of the double-indirect block is on its second cacheline.
    model.poison_line(block_addr(blockmap.inode.dindirect) // 64 + 1)
    with pytest.raises(MediaError):
        rig.vfs.pwrite(rig.ctx, fd, (first + 8 * PTRS_PER_BLOCK) * 4096, b"y")
    assert sorted(blockmap._l2_blocks) == [0]
    assert rig.fs.balloc.used_count == _pinned_blocks(rig.fs) == used


def test_a_fresh_dirent_block_whose_pointer_write_fails_is_given_back(rig):
    model = rig.device.attach_faults(MediaFaultModel(seed=0))
    rig.vfs.mkdir(rig.ctx, "/d")
    for i in range(DIRENTS_PER_BLOCK):
        rig.vfs.write_file(rig.ctx, "/d/n%d" % i, b"")
    used = rig.fs.balloc.used_count
    model.poison_line(
        _pointer_slot_line(rig.fs, rig.vfs.stat(rig.ctx, "/d").ino, 3))
    with pytest.raises(MediaError):
        for i in range(3 * DIRENTS_PER_BLOCK):
            rig.vfs.write_file(rig.ctx, "/d/more%d" % i, b"")
    assert rig.fs.balloc.used_count == _pinned_blocks(rig.fs) == used + 2
