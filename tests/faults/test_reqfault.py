"""Request-targeted fault injection through the unified I/O pipeline:
the ``writeback`` site of the one :class:`repro.faults.FaultPlan`."""

import pytest

from repro.core import HiNFS, HiNFSConfig
from repro.engine.env import SimEnv
from repro.faults import FaultPlan, PowerCut
from repro.fs import flags as f
from repro.fs.errors import MediaError

from tests.fs.conftest import PmfsRig


def make_rig():
    rig = PmfsRig(size=32 << 20, fs_cls=HiNFS,
                  hconfig=HiNFSConfig(buffer_bytes=2 << 20))
    rig.plan = FaultPlan(rig.env)
    return rig


@pytest.fixture()
def rig():
    return make_rig()


def test_injector_arm_disarm_and_max_hits():
    env = SimEnv()
    plan = FaultPlan(env)
    assert env.faults is plan
    plan.check("writeback", None)  # untagged blocks are never hit
    plan.check("writeback", 7)  # unarmed
    plan.arm("writeback", 7)
    with pytest.raises(MediaError):
        plan.check("writeback", 7)
    plan.check("writeback", 7)  # budget of one hit exhausted
    assert plan.hits == 1
    assert env.stats.count("writeback_fault_injections") == 1
    plan.arm("writeback", 7, hits=None)  # keeps firing until disarmed
    for _ in range(3):
        with pytest.raises(MediaError):
            plan.check("writeback", 7)
    plan.disarm("writeback", 7)
    plan.check("writeback", 7)
    assert plan.hits == 4
    # Armed with no key, a site fires whatever the key; armed to crash,
    # it cuts power instead of failing with EIO.
    plan.arm("xmv:linked", crash=True)
    with pytest.raises(PowerCut) as cut:
        plan.check("xmv:linked")
    assert (cut.value.site, cut.value.key) == ("xmv:linked", None)
    assert not isinstance(cut.value, Exception)  # no handler swallows it
    assert env.stats.count("xmv_fault_injections") == 0
    # Every consult is on the record, armed or not, in order.
    assert plan.observed[:3] == [("writeback", None), ("writeback", 7),
                                 ("writeback", 7)]
    assert plan.observed[-1] == ("xmv:linked", None)
    with pytest.raises(ValueError):
        plan.arm("bogus:site")


def test_buffered_blocks_carry_the_last_request_id(rig):
    fd = rig.vfs.open(rig.ctx, "/f", f.O_CREAT | f.O_RDWR)
    rig.vfs.pwrite(rig.ctx, fd, 0, b"a" * 64)
    ino = rig.vfs.fstat(rig.ctx, fd).ino
    (block,) = rig.fs.buffer.file_blocks(ino)
    first = block.last_req_id
    assert first is not None
    rig.vfs.pwrite(rig.ctx, fd, 64, b"b" * 64)
    assert block.last_req_id > first  # rewrite re-tags the block


def test_armed_request_fails_foreground_fsync(rig):
    fd = rig.vfs.open(rig.ctx, "/f", f.O_CREAT | f.O_RDWR)
    rig.vfs.pwrite(rig.ctx, fd, 0, b"x" * 4096)
    ino = rig.vfs.fstat(rig.ctx, fd).ino
    (block,) = rig.fs.buffer.file_blocks(ino)
    rig.plan.arm("writeback", block.last_req_id, hits=None)
    with pytest.raises(MediaError):
        rig.vfs.fsync(rig.ctx, fd)
    # Foreground EIO: the data stays buffered for a retry, and once the
    # fault is disarmed the retry succeeds.
    assert rig.fs.buffer.file_blocks(ino)
    rig.plan.disarm("writeback", block.last_req_id)
    rig.vfs.fsync(rig.ctx, fd)
    assert not rig.fs.buffer.file_blocks(ino)
    assert rig.vfs.pread(rig.ctx, fd, 0, 4096) == b"x" * 4096


def test_armed_request_writeback_records_deferred_error(rig):
    fd = rig.vfs.open(rig.ctx, "/f", f.O_CREAT | f.O_RDWR)
    rig.vfs.pwrite(rig.ctx, fd, 0, b"y" * 4096)
    ino = rig.vfs.fstat(rig.ctx, fd).ino
    (block,) = rig.fs.buffer.file_blocks(ino)
    rig.plan.arm("writeback", block.last_req_id, hits=None)
    # Background-style flush: nobody to raise at, so the error lands in
    # the inode's errseq and the block's unpersistable data is dropped.
    rig.fs.flush_blocks(rig.ctx, [block], record_errors=True)
    assert rig.env.stats.count("hinfs_wb_media_errors") == 1
    assert not rig.fs.buffer.file_blocks(ino)
    with pytest.raises(MediaError):
        rig.vfs.fsync(rig.ctx, fd)  # errseq: reported exactly once per fd
    rig.vfs.fsync(rig.ctx, fd)


def test_unarmed_requests_are_untouched(rig):
    rig.plan.arm("writeback", 999_999, hits=None)
    fd = rig.vfs.open(rig.ctx, "/ok", f.O_CREAT | f.O_RDWR)
    rig.vfs.pwrite(rig.ctx, fd, 0, b"fine")
    rig.vfs.fsync(rig.ctx, fd)
    assert rig.plan.hits == 0


def test_writeback_spans_tag_flushed_request_ids(rig):
    """With tracing on, writeback batch spans carry the req_ids whose
    buffered data they persist -- the join key for targeted injection."""
    ring = rig.env.enable_tracing()
    fd = rig.vfs.open(rig.ctx, "/t", f.O_CREAT | f.O_RDWR)
    rig.vfs.pwrite(rig.ctx, fd, 0, b"z" * 4096)
    ino = rig.vfs.fstat(rig.ctx, fd).ino
    (block,) = rig.fs.buffer.file_blocks(ino)
    req_id = block.last_req_id
    rig.fs.writeback._flush_batch("test", [block])
    wb_spans = [s for s in ring.spans() if s.layer == "writeback"]
    assert wb_spans
    assert wb_spans[-1].meta == {"cause": "test", "req_ids": [req_id]}
    # The foreground span for the pwrite carries the same request id.
    assert any(s.req_id == req_id and s.name == "write"
               for s in ring.spans())


def test_crashpoint_explorer_maps_ops_to_request_ids():
    from repro.faults.crashpoints import CrashPointExplorer

    ops = (
        ("create", "/a"),
        ("append", "/a", 2000),
        ("fsync", "/a"),
        ("mkdir", "/d"),
    )
    report = CrashPointExplorer("hinfs", eviction_samples_per_op=4).explore(ops)
    report.raise_if_failed()
    # The data-path ops (append's pwrite, plus stat-free ops issue none)
    # are mapped to the request ids they consumed.
    assert 1 in report.op_request_ids
    first, last = report.op_request_ids[1]
    assert first <= last
    # Namespace-only ops allocate no data-path requests.
    assert 3 not in report.op_request_ids
