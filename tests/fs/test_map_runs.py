"""The run-granular fresh-block path: a request maps its holes as runs
of adjacent pointer slots, each run one journaled range; the dirent
block and the pointer blocks are the run of one on the same code."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import HiNFS, HiNFSConfig
from repro.faults import MediaFaultModel
from repro.fs import flags as f
from repro.fs.errors import MediaError, NoSpace
from repro.fs.pmfs import PMFS
from repro.fs.pmfs.inodes import CORE_SIZE
from repro.fs.pmfs.layout import N_DIRECT, PTRS_PER_BLOCK

from tests.fs.conftest import PmfsRig

BLOCK = 4096
KINDS = [pytest.param(PMFS, {}, id="pmfs"),
         pytest.param(HiNFS, {"hconfig": HiNFSConfig(buffer_bytes=1 << 20)},
                      id="hinfs")]


def _pinned(fs):
    return [block for inode in fs.itable.live_inodes()
            for block in fs._map(inode.ino).all_physical_blocks()]


def _fill(rig, path="/fill"):
    """Write ``path`` until the device is full; returns the open fd."""
    fd = rig.vfs.open(rig.ctx, path, f.O_CREAT | f.O_RDWR)
    with pytest.raises(NoSpace):
        for i in range(10_000):
            rig.vfs.pwrite(rig.ctx, fd, i * BLOCK, b"x" * BLOCK)
    assert rig.fs.balloc.free_count == 0
    return fd


# -- a dirent block on a full device (the run of one) ----------------------

@pytest.mark.parametrize("fs_cls,kwargs", KINDS)
def test_create_needing_a_dirent_block_on_a_full_device_fails_clean(
        fs_cls, kwargs):
    rig = PmfsRig(size=4 << 20, fs_cls=fs_cls, journal_blocks=16, **kwargs)
    rig.vfs.mkdir(rig.ctx, "/d")
    rig.vfs.close(rig.ctx, _fill(rig))
    inodes = len(rig.fs.itable.live_inodes())
    # On hinfs the deferred commits of "/fill"'s buffered blocks are open.
    open_txs = rig.fs.journal.open_transactions
    assert open_txs == 0 or fs_cls is HiNFS
    with pytest.raises(NoSpace):
        rig.vfs.write_file(rig.ctx, "/d/new", b"")
    assert rig.fs.journal.open_transactions == open_txs
    assert len(rig.fs.itable.live_inodes()) == inodes
    assert not rig.vfs.exists(rig.ctx, "/d/new")
    # The mount outlives the failure: the churn takes the ring through a
    # wrap, which refuses to recycle under a transaction left open.
    rig.vfs.unlink(rig.ctx, "/fill")
    wraps = rig.env.stats.count("journal_wraps")
    for i in range(3000):
        rig.vfs.write_file(rig.ctx, "/d/churn", b"%d" % i)
    assert rig.env.stats.count("journal_wraps") > wraps
    rig.remount()
    assert [name for name, _ in rig.vfs.readdir(rig.ctx, "/d")] == ["churn"]
    # No orphan: "/", "/d" and the churn file that took "/fill"'s place.
    assert len(rig.fs.itable.live_inodes()) == inodes == 3
    assert rig.fs.balloc.used_count == len(set(_pinned(rig.fs)))


# -- ENOSPC inside a run ---------------------------------------------------

@pytest.mark.parametrize("fs_cls,kwargs", KINDS)
def test_a_run_cut_short_by_enospc_maps_what_fits_and_leaks_nothing(
        fs_cls, kwargs):
    rig = PmfsRig(size=4 << 20, fs_cls=fs_cls, journal_blocks=16, **kwargs)
    rig.vfs.write_file(rig.ctx, "/victim", b"v" * (5 * BLOCK))
    fd = rig.vfs.open(rig.ctx, "/new", f.O_CREAT | f.O_RDWR)
    fill = _fill(rig)
    rig.vfs.unlink(rig.ctx, "/victim")
    assert rig.fs.balloc.free_count == 5
    with pytest.raises(NoSpace):
        rig.vfs.pwrite(rig.ctx, fd, 0, b"n" * (16 * BLOCK))
    # The run of 12 direct slots took the 5 blocks there were.
    ino = rig.vfs.stat(rig.ctx, "/new").ino
    assert sorted(dict(rig.fs._map(ino).mapped_blocks())) == list(range(5))
    assert rig.fs.balloc.free_count == 0
    rig.vfs.fsync(rig.ctx, fd)
    rig.vfs.fsync(rig.ctx, fill)
    assert rig.fs.journal.open_transactions == 0
    rig.vfs.close(rig.ctx, fd)
    rig.vfs.unlink(rig.ctx, "/new")
    assert rig.fs.balloc.free_count == 5
    assert rig.fs.balloc.used_count == len(set(_pinned(rig.fs)))
    rig.crash_and_remount()
    assert rig.fs.balloc.free_count == 5
    assert rig.fs.balloc.used_count == len(set(_pinned(rig.fs)))


# -- a run whose pointer write fails ---------------------------------------

@pytest.mark.parametrize("premapped,kept", [(None, 0), (2, 2)],
                         ids=["fresh-file", "second-run-fails"])
@pytest.mark.parametrize("fs_cls,kwargs", KINDS)
def test_a_run_whose_pointer_write_fails_is_given_back_whole(
        fs_cls, kwargs, premapped, kept):
    """Direct slots 3..10 share one cacheline.  On a fresh file the run
    of all 12 direct slots crosses it; with block 2 mapped beforehand
    the run of slots 0..1 succeeds first and the run of 3..11 fails."""
    rig = PmfsRig(fs_cls=fs_cls, **kwargs)
    model = rig.device.attach_faults(MediaFaultModel(seed=0))
    fd = rig.vfs.open(rig.ctx, "/a", f.O_CREAT | f.O_RDWR)
    if premapped is not None:
        rig.vfs.pwrite(rig.ctx, fd, premapped * BLOCK, b"p" * BLOCK)
        rig.vfs.fsync(rig.ctx, fd)
    ino = rig.vfs.stat(rig.ctx, "/a").ino
    used = rig.fs.balloc.used_count
    slots = rig.fs.itable.core_addr(ino) + CORE_SIZE
    line = (slots + 3 * 8) // 64
    assert line == (slots + 10 * 8) // 64 != (slots + 2 * 8) // 64
    model.poison_line(line)
    with pytest.raises(MediaError):
        rig.vfs.pwrite(rig.ctx, fd, 0, b"y" * (16 * BLOCK))
    assert rig.fs.balloc.used_count == len(_pinned(rig.fs)) == used + kept
    # The failed persist left the pointers in the CPU cache; they are
    # zero again before their blocks can have another owner.
    assert rig.device.mem.read(slots + 3 * 8, 9 * 8) == bytes(9 * 8)
    assert rig.fs._map(ino).get(3) is None
    model.heal_line(line)
    rig.vfs.pwrite(rig.ctx, fd, 0, b"z" * (16 * BLOCK))
    rig.vfs.write_file(rig.ctx, "/b", b"w" * (2 * BLOCK))
    rig.vfs.fsync(rig.ctx, fd)
    rig.crash_and_remount()
    pinned = _pinned(rig.fs)
    assert len(pinned) == len(set(pinned)) == rig.fs.balloc.used_count
    assert rig.vfs.read_file(rig.ctx, "/a") == b"z" * (16 * BLOCK)


# -- the property ----------------------------------------------------------

#: Where a run must stop: the end of the direct area, of the indirect
#: block, and of the first L2 block of the double-indirect tree.
BOUNDARIES = [0, N_DIRECT, N_DIRECT + PTRS_PER_BLOCK,
              N_DIRECT + 2 * PTRS_PER_BLOCK]

writes = st.lists(
    st.tuples(st.sampled_from(BOUNDARIES),
              st.integers(min_value=-10 * BLOCK, max_value=10 * BLOCK),
              st.integers(min_value=1, max_value=20 * BLOCK)),
    min_size=1, max_size=8)


@pytest.mark.parametrize("fs_cls,kwargs", KINDS)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(writes=writes)
def test_random_writes_over_random_holes_match_a_bytearray(
        fs_cls, kwargs, writes):
    """Each write lands on whatever holes the earlier ones left, around
    the direct -> indirect -> double-indirect boundaries."""
    rig = PmfsRig(fs_cls=fs_cls, **kwargs)
    fd = rig.vfs.open(rig.ctx, "/f", f.O_CREAT | f.O_RDWR)
    ino = rig.vfs.stat(rig.ctx, "/f").ino
    model = bytearray()
    touched = set()
    for i, (boundary, delta, length) in enumerate(writes):
        offset = max(0, boundary * BLOCK + delta)
        data = bytes([i + 1]) * length
        assert rig.vfs.pwrite(rig.ctx, fd, offset, data) == length
        if len(model) < offset + length:
            model.extend(bytes(offset + length - len(model)))
        model[offset:offset + length] = data
        touched.update(range(offset // BLOCK,
                             (offset + length - 1) // BLOCK + 1))
    assert rig.vfs.read_file(rig.ctx, "/f") == model
    mirror = dict(rig.fs._map(ino).mapped_blocks())
    assert set(mirror) == touched
    pinned = _pinned(rig.fs)
    assert len(pinned) == len(set(pinned)) == rig.fs.balloc.used_count
    rig.vfs.fsync(rig.ctx, fd)
    rig.crash_and_remount()
    assert dict(rig.fs._map(ino).mapped_blocks()) == mirror
    assert rig.fs.balloc.used_count == len(pinned)
    assert rig.vfs.read_file(rig.ctx, "/f") == model
